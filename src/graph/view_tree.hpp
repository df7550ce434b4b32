// view_tree.hpp -- truncated unfoldings (paper §3).
//
// The unfolding G' of G rooted at r has one node per non-backtracking walk
// from r; it is the universal cover of G.  A local algorithm with horizon D
// in the port-numbering model sees exactly the depth-D truncation of the
// unfolding rooted at itself (its *local view*): children of a node reached
// via edge e are its neighbours via every incident edge except e, and types,
// port numbers and coefficients are inherited from the parent graph
// (Remarks 4-5 of §3).
//
// ViewTree materialises this truncation where the model puts it on the
// wire: engine M's gather (dist/gather.hpp), the wire codec (dist/wire.hpp)
// and the kNaive oracle.  Each node records its parent, the port index *at
// this node* that leads to the parent, the edge coefficient, and its origin
// (the parent node in G).  The naive oracle engine never branches on
// origins, which witnesses that the algorithm is definable in the
// identifier-free port-numbering model; the memoized DP engine uses origins
// purely as pointers into the unfolding's shared structure (all copies of a
// G-node carry identical subproblems -- Example 2 of the paper -- so
// deduplicating by origin provably changes no output, which the
// differential tests assert).  Origins carry global node ids, so nothing
// observable by a port-numbering algorithm may ever branch on their values
// (engines use them only as dictionary keys -- see ViewNode::origin).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/comm_graph.hpp"
#include "support/wire_layout.hpp"

namespace locmm {

struct ViewNode {
  NodeType type = NodeType::kAgent;
  std::int32_t parent = -1;       // index of parent view-node; -1 at the root
  std::int32_t parent_port = -1;  // port at THIS node leading to the parent
  double parent_coeff = 0.0;      // a_iv / c_kv on the parent edge
  std::int32_t depth = 0;
  // G-node this copy projects to.  Load-bearing since the memoized DP engine
  // (PR 1) keys its (slot, depth) tables on it: all copies of an origin share
  // one table row.  Engines may use it as an opaque dictionary key only --
  // never branch on its value, which a port-numbering algorithm cannot see
  // (the naive oracle never reads it at all).
  NodeId origin = -1;
  std::int32_t degree = 0;        // full degree in G (part of local input)
  std::int32_t constraint_degree = 0;  // for agents: # constraint ports
  std::int32_t first_child = 0;   // children stored contiguously,
  std::int32_t num_children = 0;  // in port order with parent_port skipped
};

class ViewTree {
 public:
  ViewTree() = default;

  // Builds the depth-`depth` truncation of the unfolding rooted at `root`.
  // `max_nodes` guards against exponential blow-up on high-degree graphs:
  // exceeding it CHECK-fails with the offending root, radius and node budget
  // in the message (use try_build_into for a non-throwing variant).
  static ViewTree build(const CommGraph& g, NodeId root, std::int32_t depth,
                        std::int64_t max_nodes = 64 * 1000 * 1000);

  // Arena-style build: reuses `out`'s storage (capacity is retained across
  // calls), so a per-agent loop over views of similar size stops paying one
  // set of allocations per agent.  `out` is left equal to what build() would
  // have returned.
  static void build_into(const CommGraph& g, NodeId root, std::int32_t depth,
                         ViewTree& out,
                         std::int64_t max_nodes = 64 * 1000 * 1000);

  // Like build_into, but a blown `max_nodes` budget truncates instead of
  // throwing: the BFS stops expanding, `out.truncated()` is set, and the
  // tree stays internally consistent (unexpanded nodes read as frontier, so
  // an engine that actually needs them still CHECK-fails loudly).  Returns
  // true when the full depth-`depth` truncation fit in the budget.
  static bool try_build_into(const CommGraph& g, NodeId root,
                             std::int32_t depth, ViewTree& out,
                             std::int64_t max_nodes = 64 * 1000 * 1000);

  // True when the last build stopped at the node budget rather than the
  // requested depth (only reachable via try_build_into; build/build_into
  // CHECK-fail instead).
  bool truncated() const { return truncated_; }

  std::int32_t size() const { return static_cast<std::int32_t>(nodes_.size()); }
  const ViewNode& node(std::int32_t idx) const {
    LOCMM_DCHECK(idx >= 0 && idx < size());
    return nodes_[static_cast<std::size_t>(idx)];
  }
  std::int32_t depth() const { return depth_; }

  // Child view-node indices of `idx` (port order, parent port skipped).
  std::span<const std::int32_t> children(std::int32_t idx) const {
    const ViewNode& n = node(idx);
    return {child_index_.data() + n.first_child,
            child_index_.data() + n.first_child + n.num_children};
  }

  // True when all non-parent ports of `idx` are materialised as children
  // (false exactly at the truncation frontier).
  bool expanded(std::int32_t idx) const {
    const ViewNode& n = node(idx);
    return n.num_children + (n.parent >= 0 ? 1 : 0) == n.degree;
  }

  // Materialised neighbours of `idx` in the node's original port order (the
  // parent edge interleaved at parent_port).  Frontier nodes only expose
  // their parent.  These slices are precomputed at build time so that the
  // evaluation engines walk flat arrays instead of re-deriving the
  // interleaving on every visit.
  std::span<const std::int32_t> neighbor_ids(std::int32_t idx) const {
    const ViewNode& n = node(idx);
    return {nbr_ids_.data() + nbr_offsets_[static_cast<std::size_t>(idx)],
            nbr_ids_.data() + nbr_offsets_[static_cast<std::size_t>(idx)] +
                n.num_children + (n.parent >= 0 ? 1 : 0)};
  }
  std::span<const double> neighbor_coeffs(std::int32_t idx) const {
    const ViewNode& n = node(idx);
    return {nbr_coeffs_.data() + nbr_offsets_[static_cast<std::size_t>(idx)],
            nbr_coeffs_.data() + nbr_offsets_[static_cast<std::size_t>(idx)] +
                n.num_children + (n.parent >= 0 ? 1 : 0)};
  }

  // Calls fn(port, neighbor_view_index, coeff) for every materialised
  // neighbour of `idx`, in port order (a thin wrapper over the cached
  // adjacency slices).
  template <typename Fn>
  void for_each_neighbor(std::int32_t idx, Fn&& fn) const {
    const ViewNode& n = node(idx);
    if (n.num_children == 0) {  // frontier: only the parent edge is visible
      if (n.parent >= 0) fn(n.parent_port, n.parent, n.parent_coeff);
      return;
    }
    const auto ids = neighbor_ids(idx);
    const auto coeffs = neighbor_coeffs(idx);
    for (std::size_t port = 0; port < ids.size(); ++port) {
      fn(static_cast<std::int32_t>(port), ids[port], coeffs[port]);
    }
  }

  // Recomputes the cached adjacency slices from nodes_/child_index_.
  // Called by build_into(); anything else that splices nodes directly (the
  // dist/ ViewAssembler, the wire decoder) must call it before handing the
  // tree to an engine.
  void rebuild_neighbor_cache();

  // Structural equality ignoring origins: same shape, types, port positions
  // and coefficients (compared exactly), plus the depth and truncated()
  // flags (a budget-cut tree never equals a complete one).  This is the
  // "information content" a port-numbering algorithm can observe; the
  // faithfulness tests compare message-gathered and decoded views with
  // directly-built ones through this.
  static bool structurally_equal(const ViewTree& a, const ViewTree& b);

  // Exact serialized size in bytes: the real codec (dist/wire.hpp
  // encode_view) emits kWireNodeBytes per node and nothing else, and
  // CHECK-fails if its output ever drifts from this number -- so the byte
  // statistics quoted by RunStats and the benches are the measured wire
  // format, not a parallel hand-maintained formula (round-trip tested per
  // generator family in tests/wire_test.cpp).
  std::int64_t byte_size() const {
    return static_cast<std::int64_t>(nodes_.size()) * kWireNodeBytes;
  }

  // The shallowest copy of a G-node in this view, or -1 when it has none.
  // Recorded during construction at no extra cost (the BFS build order makes
  // the first copy the minimum-depth one).  The memoized DP engine keys its
  // tables on origins through this: every quantity of the §5 recursions is
  // position-independent (Example 2 of the paper), so all copies of an
  // origin share one table row and the shallowest copy -- the one with the
  // most materialised adjacency -- serves as the lookup point.
  std::int32_t representative(NodeId origin) const {
    const auto o = static_cast<std::size_t>(origin);
    if (o >= rep_.size() || rep_epoch_[o] != rep_epoch_now_) return -1;
    return rep_[o];
  }

  friend class ViewAssembler;  // dist/gather.cpp splices message views
  friend class WireCodec;      // dist/wire.cpp decodes serialized views

 private:
  std::vector<ViewNode> nodes_;
  std::vector<std::int32_t> child_index_;
  // Cached adjacency (see neighbor_ids/neighbor_coeffs): per node, the
  // materialised neighbours in port order, parent edge interleaved.
  std::vector<std::int64_t> nbr_offsets_;
  std::vector<std::int32_t> nbr_ids_;
  std::vector<double> nbr_coeffs_;
  // Origin -> shallowest copy, epoch-stamped so arena reuse (build_into)
  // resets it in O(1).
  std::vector<std::int32_t> rep_;
  std::vector<std::uint32_t> rep_epoch_;
  std::uint32_t rep_epoch_now_ = 0;
  std::int32_t depth_ = 0;
  bool truncated_ = false;

  static void build_impl(const CommGraph& g, NodeId root, std::int32_t depth,
                         ViewTree& out, std::int64_t max_nodes,
                         bool allow_truncation);
};

}  // namespace locmm
