#include "graph/view_tree.hpp"

#include <algorithm>
#include <cmath>

namespace locmm {

ViewTree ViewTree::build(const CommGraph& g, NodeId root, std::int32_t depth,
                         std::int64_t max_nodes) {
  ViewTree t;
  build_into(g, root, depth, t, max_nodes);
  return t;
}

void ViewTree::build_into(const CommGraph& g, NodeId root, std::int32_t depth,
                          ViewTree& out, std::int64_t max_nodes) {
  build_impl(g, root, depth, out, max_nodes, /*allow_truncation=*/false);
}

bool ViewTree::try_build_into(const CommGraph& g, NodeId root,
                              std::int32_t depth, ViewTree& out,
                              std::int64_t max_nodes) {
  build_impl(g, root, depth, out, max_nodes, /*allow_truncation=*/true);
  return !out.truncated_;
}

void ViewTree::build_impl(const CommGraph& g, NodeId root, std::int32_t depth,
                          ViewTree& out, std::int64_t max_nodes,
                          bool allow_truncation) {
  LOCMM_CHECK(root >= 0 && root < g.num_nodes());
  LOCMM_CHECK(depth >= 0);
  LOCMM_CHECK(max_nodes >= 1);

  ViewTree& t = out;
  t.nodes_.clear();
  t.child_index_.clear();
  t.depth_ = depth;
  t.truncated_ = false;
  // New representative-map generation; O(1) arena reuse (stale entries keep
  // their old epoch stamp and read as absent).
  ++t.rep_epoch_now_;
  if (t.rep_epoch_now_ == 0) {
    t.rep_epoch_.assign(t.rep_epoch_.size(), 0);
    t.rep_epoch_now_ = 1;
  }
  auto note_origin = [&](NodeId origin, std::int32_t idx) {
    const auto o = static_cast<std::size_t>(origin);
    if (o >= t.rep_.size()) {
      t.rep_.resize(o + 1);
      t.rep_epoch_.resize(o + 1, 0);
    }
    if (t.rep_epoch_[o] != t.rep_epoch_now_) {
      t.rep_epoch_[o] = t.rep_epoch_now_;
      t.rep_[o] = idx;  // BFS order: the first copy is the shallowest
    }
  };

  auto make_node = [&](NodeId origin, std::int32_t parent,
                       std::int32_t parent_port, double parent_coeff,
                       std::int32_t d) {
    ViewNode n;
    n.type = g.type(origin);
    n.parent = parent;
    n.parent_port = parent_port;
    n.parent_coeff = parent_coeff;
    n.depth = d;
    n.origin = origin;
    n.degree = g.degree(origin);
    n.constraint_degree =
        (n.type == NodeType::kAgent) ? g.constraint_degree(origin) : 0;
    return n;
  };

  t.nodes_.push_back(make_node(root, -1, -1, 0.0, 0));
  note_origin(root, 0);

  // BFS expansion; children of the node popped at position `head` are
  // appended contiguously, in port order, skipping the parent port.
  std::size_t head = 0;
  while (head < t.nodes_.size() && !t.truncated_) {
    const auto idx = static_cast<std::int32_t>(head);
    // Copy the fields we need: nodes_ may reallocate below.
    const NodeId origin = t.nodes_[head].origin;
    const std::int32_t d = t.nodes_[head].depth;
    const std::int32_t parent_port = t.nodes_[head].parent_port;
    ++head;
    if (d >= depth) continue;

    const auto neigh = g.neighbors(origin);
    t.nodes_[static_cast<std::size_t>(idx)].first_child =
        static_cast<std::int32_t>(t.child_index_.size());
    std::int32_t added = 0;
    for (std::int32_t port = 0; port < static_cast<std::int32_t>(neigh.size());
         ++port) {
      if (port == parent_port) continue;  // non-backtracking
      if (static_cast<std::int64_t>(t.nodes_.size()) >= max_nodes) {
        if (allow_truncation) {
          t.truncated_ = true;
          break;
        }
        LOCMM_CHECK_MSG(false, "view tree exceeds the node budget: root "
                                   << root << " (" << to_string(g.type(root))
                                   << "), requested depth " << depth
                                   << ", max_nodes " << max_nodes
                                   << " reached while expanding depth " << d
                                   << "; reduce the radius/degree, raise the "
                                      "budget, or use try_build_into");
      }
      const HalfEdge& e = neigh[static_cast<std::size_t>(port)];
      // Port at the child that leads back here (see CommGraph::back_port).
      const std::int32_t back_port = g.back_port(origin, port);
      const auto child_idx = static_cast<std::int32_t>(t.nodes_.size());
      t.nodes_.push_back(make_node(e.to, idx, back_port, e.coeff, d + 1));
      note_origin(e.to, child_idx);
      t.child_index_.push_back(child_idx);
      ++added;
    }
    t.nodes_[static_cast<std::size_t>(idx)].num_children = added;
  }
  t.rebuild_neighbor_cache();
}

void ViewTree::rebuild_neighbor_cache() {
  const std::size_t n = nodes_.size();
  nbr_offsets_.clear();
  nbr_offsets_.reserve(n + 1);
  nbr_ids_.clear();
  nbr_coeffs_.clear();
  std::int64_t total = 0;
  nbr_offsets_.push_back(0);
  for (const ViewNode& v : nodes_) {
    total += v.num_children + (v.parent >= 0 ? 1 : 0);
    nbr_offsets_.push_back(total);
  }
  nbr_ids_.resize(static_cast<std::size_t>(total));
  nbr_coeffs_.resize(static_cast<std::size_t>(total));
  for (std::size_t i = 0; i < n; ++i) {
    const ViewNode& v = nodes_[i];
    std::int64_t at = nbr_offsets_[i];
    const std::int32_t* kids = child_index_.data() + v.first_child;
    std::int32_t j = 0;
    const std::int32_t total_ports = v.num_children + (v.parent >= 0 ? 1 : 0);
    // Slot of the parent edge: its own port when that lies within the
    // materialised range, else the last slot.  The latter covers frontier
    // nodes (no children, parent at slot 0) and nodes a truncation cut
    // mid-expansion before reaching parent_port -- the parent edge is how
    // the node was reached, so it is always materialised, and clamping
    // keeps the child walk within v's own num_children entries.
    const std::int32_t parent_slot =
        v.parent < 0 ? -1 : std::min(v.parent_port, total_ports - 1);
    for (std::int32_t port = 0; port < total_ports; ++port, ++at) {
      if (port == parent_slot) {
        nbr_ids_[static_cast<std::size_t>(at)] = v.parent;
        nbr_coeffs_[static_cast<std::size_t>(at)] = v.parent_coeff;
      } else {
        const std::int32_t child = kids[j++];
        nbr_ids_[static_cast<std::size_t>(at)] = child;
        nbr_coeffs_[static_cast<std::size_t>(at)] =
            nodes_[static_cast<std::size_t>(child)].parent_coeff;
      }
    }
  }
}

bool ViewTree::structurally_equal(const ViewTree& a, const ViewTree& b) {
  // The truncation depth and the budget-truncation flag are part of the
  // view's identity: a deeper request that happens to exhaust the same
  // finite unfolding still announces a different horizon, and a budget-cut
  // tree never equals a complete one -- what lies beyond the cut is
  // unknown.  Two trees truncated at the same budget can still coincide
  // here while their full views differ.
  if (a.size() != b.size() || a.depth() != b.depth() ||
      a.truncated() != b.truncated()) {
    return false;
  }
  // Both trees are stored in deterministic BFS/port order, so structural
  // equality reduces to elementwise comparison (origins excluded).
  for (std::int32_t i = 0; i < a.size(); ++i) {
    const ViewNode& x = a.node(i);
    const ViewNode& y = b.node(i);
    if (x.type != y.type || x.parent != y.parent ||
        x.parent_port != y.parent_port || x.depth != y.depth ||
        x.degree != y.degree || x.constraint_degree != y.constraint_degree ||
        x.num_children != y.num_children) {
      return false;
    }
    // first_child is only meaningful through children(), i.e. when the node
    // has children: builders differ on what they leave in the field for
    // childless inner nodes (build_impl stamps the running cursor, the
    // assembler and the wire decoder leave 0), and that difference is not
    // structure.
    if (x.num_children != 0 && x.first_child != y.first_child) return false;
    if (std::abs(x.parent_coeff - y.parent_coeff) > 0.0) return false;
  }
  return true;
}

}  // namespace locmm
