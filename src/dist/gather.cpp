#include "dist/gather.hpp"

#include <utility>

#include "dist/fault.hpp"

namespace locmm {

// ===========================================================================
// ViewAssembler -- splices received subtree blobs into a ViewTree with the
// exact BFS/port layout ViewTree::build produces, so structurally_equal
// holds against the direct unfolding.  Friend of ViewTree (declared in view_tree.hpp).
//
// Origins are synthetic (every view node is its own origin, and its own
// representative): no global identifiers exist on this side of the message
// boundary.  Engines only use origins as dictionary keys, so this is
// observationally equivalent -- the DP engine just loses cross-copy sharing.
// ===========================================================================
class ViewAssembler {
 public:
  // `subtrees[q]` is the preorder blob received on port q (the depth-(D-1)
  // subtree of the unfolding below edge q); `in` is the assembling node's
  // own local input.
  static void assemble(const LocalInput& in,
                       const std::vector<std::vector<WireNode>>& subtrees,
                       std::int32_t depth, ViewTree& out) {
    LOCMM_CHECK(depth >= 1);
    LOCMM_CHECK_MSG(static_cast<std::int32_t>(subtrees.size()) == in.degree,
                    "assemble: need one subtree per port");

    // Subtree sizes per blob (reverse-preorder stack fold), so the BFS can
    // jump between a node's consecutive preorder children.  The fold's
    // CHECKs below are internal invariants: a malformed blob arriving off
    // the wire is caught at delivery time by wire_view_well_formed
    // (dist/fault.hpp), which runs this same fold as a predicate -- by the
    // time a blob reaches assemble it has either passed that boundary or
    // was produced in-process.
    std::vector<std::vector<std::int32_t>> sizes(subtrees.size());
    std::vector<std::int32_t> stack;
    for (std::size_t q = 0; q < subtrees.size(); ++q) {
      const std::vector<WireNode>& blob = subtrees[q];
      LOCMM_CHECK_MSG(!blob.empty(), "assemble: empty subtree on port " << q);
      const auto n = static_cast<std::int32_t>(blob.size());
      sizes[q].assign(static_cast<std::size_t>(n), 0);
      stack.clear();
      for (std::int32_t i = n - 1; i >= 0; --i) {
        std::int32_t s = 1;
        const std::int32_t nc = blob[static_cast<std::size_t>(i)].num_children;
        for (std::int32_t c = 0; c < nc; ++c) {
          LOCMM_CHECK_MSG(!stack.empty(), "assemble: malformed preorder blob");
          s += sizes[q][static_cast<std::size_t>(stack.back())];
          stack.pop_back();
        }
        sizes[q][static_cast<std::size_t>(i)] = s;
        stack.push_back(i);
      }
      LOCMM_CHECK_MSG(stack.size() == 1, "assemble: blob is not one subtree");
    }

    out.nodes_.clear();
    out.child_index_.clear();
    out.depth_ = depth;
    out.truncated_ = false;

    // Where each view node came from: blob id (-1 = the local root) and
    // preorder index within that blob.
    std::vector<std::pair<std::int32_t, std::int32_t>> src;

    ViewNode root;
    root.type = in.type;
    root.parent = -1;
    root.parent_port = -1;
    root.parent_coeff = 0.0;
    root.depth = 0;
    root.origin = 0;
    root.degree = in.degree;
    root.constraint_degree = in.constraint_degree;
    out.nodes_.push_back(root);
    src.emplace_back(-1, -1);

    // BFS identical to ViewTree::build_impl: children of the node at `head`
    // are appended contiguously in port order (the blobs already skip the
    // parent port, per the non-backtracking send rule).
    std::size_t head = 0;
    while (head < out.nodes_.size()) {
      const auto idx = static_cast<std::int32_t>(head);
      const auto [blob_id, blob_idx] = src[head];
      const std::int32_t d = out.nodes_[head].depth;
      ++head;

      const auto append_child = [&](std::int32_t q, std::int32_t i) {
        const WireNode& w =
            subtrees[static_cast<std::size_t>(q)][static_cast<std::size_t>(i)];
        const auto child_idx = static_cast<std::int32_t>(out.nodes_.size());
        ViewNode c;
        c.type = w.type;
        c.parent = idx;
        c.parent_port = w.parent_port;
        c.parent_coeff = w.parent_coeff;
        c.depth = d + 1;
        c.origin = child_idx;  // synthetic: every copy is its own origin
        c.degree = w.degree;
        c.constraint_degree = w.constraint_degree;
        out.nodes_.push_back(c);
        src.emplace_back(q, i);
        out.child_index_.push_back(child_idx);
      };

      if (blob_id < 0) {
        // The local root: one child per port, the root of each blob.
        out.nodes_[static_cast<std::size_t>(idx)].first_child =
            static_cast<std::int32_t>(out.child_index_.size());
        for (std::int32_t q = 0; q < in.degree; ++q) append_child(q, 0);
        out.nodes_[static_cast<std::size_t>(idx)].num_children = in.degree;
      } else {
        const WireNode& w = subtrees[static_cast<std::size_t>(
            blob_id)][static_cast<std::size_t>(blob_idx)];
        if (w.num_children == 0) continue;  // gather frontier
        out.nodes_[static_cast<std::size_t>(idx)].first_child =
            static_cast<std::int32_t>(out.child_index_.size());
        std::int32_t c = blob_idx + 1;  // preorder: children follow directly
        for (std::int32_t j = 0; j < w.num_children; ++j) {
          append_child(blob_id, c);
          c += sizes[static_cast<std::size_t>(blob_id)]
                    [static_cast<std::size_t>(c)];
        }
        out.nodes_[static_cast<std::size_t>(idx)].num_children =
            w.num_children;
      }
    }

    // Synthetic representative map: every node represents itself.
    const auto n = out.nodes_.size();
    out.rep_.assign(n, 0);
    out.rep_epoch_.assign(n, 1);
    out.rep_epoch_now_ = 1;
    for (std::size_t i = 0; i < n; ++i)
      out.rep_[i] = static_cast<std::int32_t>(i);

    out.rebuild_neighbor_cache();
  }
};

// ===========================================================================
// ViewGatherCore
// ===========================================================================

void ViewGatherCore::init(const LocalInput& input) {
  in_ = input;
  prev_.assign(static_cast<std::size_t>(in_.degree), {});
}

std::vector<Message> ViewGatherCore::send(std::int32_t round) const {
  LOCMM_CHECK(round >= 1);
  std::vector<Message> out(static_cast<std::size_t>(in_.degree));
  for (std::int32_t p = 0; p < in_.degree; ++p) {
    // The depth-(round-1) subtree below the edge leaving port p: this node
    // (parent_port = p: the port leading back to the receiver), spliced over
    // the depth-(round-2) subtrees received on every other port last round.
    std::vector<WireNode> blob;
    std::size_t total = 1;
    if (round > 1)
      for (std::int32_t q = 0; q < in_.degree; ++q)
        if (q != p) total += prev_[static_cast<std::size_t>(q)].size();
    blob.reserve(total);

    WireNode root;
    root.type = in_.type;
    root.degree = in_.degree;
    root.constraint_degree = in_.constraint_degree;
    root.parent_port = p;
    root.parent_coeff = in_.coeffs[static_cast<std::size_t>(p)];
    root.num_children = round > 1 ? in_.degree - 1 : 0;
    blob.push_back(root);

    if (round > 1) {
      for (std::int32_t q = 0; q < in_.degree; ++q) {
        if (q == p) continue;  // non-backtracking: never walk straight back
        const std::vector<WireNode>& sub = prev_[static_cast<std::size_t>(q)];
        LOCMM_CHECK_MSG(!sub.empty(),
                        "gather round " << round << ": port " << q
                                        << " received nothing last round");
        blob.insert(blob.end(), sub.begin(), sub.end());
      }
    }
    out[static_cast<std::size_t>(p)] = Message::make_view(std::move(blob));
  }
  return out;
}

void ViewGatherCore::receive(std::int32_t round,
                             std::span<const Message> inbox) {
  LOCMM_CHECK(round >= 1);
  LOCMM_CHECK(static_cast<std::int32_t>(inbox.size()) == in_.degree);
  for (std::int32_t q = 0; q < in_.degree; ++q) {
    const Message& m = inbox[static_cast<std::size_t>(q)];
    // Internal invariant, not a fault boundary: corrupted or missing
    // inbound messages are rejected (and retransmit-requested) at delivery
    // time by the checksum / well-formedness guard of run_under_faults
    // (dist/fault.hpp), and a node whose inbox stayed incomplete is frozen
    // before its receive runs -- so a wrong kind here means a broken
    // engine, never a network fault, and aborting is right.
    LOCMM_CHECK_MSG(m.kind == Message::Kind::kView,
                    "gather round " << round << ": expected a view on port "
                                    << q);
    prev_[static_cast<std::size_t>(q)] = m.view;
  }
}

void ViewGatherCore::assemble(std::int32_t depth, ViewTree& out) const {
  ViewAssembler::assemble(in_, prev_, depth, out);
}

// ===========================================================================
// GatherProgram / engine M
// ===========================================================================

GatherProgram::GatherProgram(std::int32_t depth, std::int32_t R,
                             const TSearchOptions& opt)
    : depth_(depth), R_(R), opt_(opt) {
  LOCMM_CHECK(depth >= 1);
  LOCMM_CHECK_MSG(R == 0 || R >= 2,
                  "R must be 0 (gather-only) or >= 2, got " << R);
}

void GatherProgram::init(const LocalInput& input) { core_.init(input); }

std::vector<Message> GatherProgram::send(std::int32_t round) {
  return core_.send(round);
}

void GatherProgram::receive(std::int32_t round,
                            std::span<const Message> inbox) {
  core_.receive(round, inbox);
  if (round < depth_) return;
  done_ = true;
  if (R_ >= 2 && core_.input().type == NodeType::kAgent) {
    ensure_assembled();
    // The spliced view supersedes the raw blobs; dropping them halves the
    // agent's peak memory (view() short-circuits on assembled_, so the
    // blobs are never needed again).
    core_.release();
    x_ = solve_agent_from_view(view_, R_, opt_);
  }
}

void GatherProgram::ensure_assembled() const {
  if (assembled_) return;
  core_.assemble(depth_, view_);
  assembled_ = true;
}

const ViewTree& GatherProgram::view() const {
  LOCMM_CHECK_MSG(done_, "view() before the gather completed");
  ensure_assembled();
  return view_;
}

MessageRunResult solve_special_message_passing(const MaxMinInstance& special,
                                               std::int32_t R,
                                               const TSearchOptions& opt,
                                               std::size_t threads,
                                               const FaultPlan* faults,
                                               const DistOptions& dist) {
  LOCMM_CHECK(R >= 2);
  const CommGraph g(special);
  const std::int32_t D = view_radius(R);

  MessageRunResult res;
  if (dist.transport != TransportKind::kInProcess) {
    LOCMM_CHECK_MSG(faults == nullptr,
                    "fault injection is in-process only (the recovery replay "
                    "needs the full history in one address space)");
    MultiprocessResult mp = run_multiprocess(
        g, [&](NodeId) { return std::make_unique<GatherProgram>(D, R, opt); },
        D, special.num_agents(), dist);
    res.x = std::move(mp.x);
    res.stats = mp.stats;
    return res;
  }
  SyncNetwork net(g, threads);
  if (faults != nullptr && faults->any_faults()) {
    FaultTolerantResult ft = run_fault_tolerant(
        net, *faults,
        [&](NodeId) { return std::make_unique<GatherProgram>(D, R, opt); }, D,
        R, opt);
    res.x = std::move(ft.x);
    res.stats = ft.stats;
    res.degraded = std::move(ft.degraded);
    return res;
  }

  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    programs.push_back(std::make_unique<GatherProgram>(D, R, opt));

  res.stats = net.run(programs);
  res.x.resize(static_cast<std::size_t>(special.num_agents()));
  for (AgentId v = 0; v < special.num_agents(); ++v) {
    const auto* prog = static_cast<const GatherProgram*>(
        programs[static_cast<std::size_t>(g.agent_node(v))].get());
    res.x[static_cast<std::size_t>(v)] = prog->x();
  }
  return res;
}

}  // namespace locmm
