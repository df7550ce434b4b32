// gather.hpp -- engine M: gather the local view by message passing, then
// simulate (the faithful realisation of §4.1).
//
// "Each node spends the first D rounds gathering its radius-D view, then
// computes its output from that view alone."  GatherProgram implements the
// gathering: in round k every node sends, on each port p, the serialized
// depth-(k-1) subtree of the unfolding that hangs below the edge leaving p
// -- its own local input in round 1, and afterwards its input spliced with
// the depth-(k-2) subtrees received from every *other* port in round k-1
// (the non-backtracking rule of §3: the copy of u reached from w never walks
// straight back to w).  After D rounds the inboxes hold exactly the depth-
// (D-1) subtrees below each of the node's own edges; splicing them under the
// node's own local input reproduces the radius-D view, bit for bit equal to
// ViewTree::build's direct unfolding (ViewTree::structurally_equal, tested).
//
// The assembled ViewTree carries *synthetic* origins (each view node is its
// own origin): a message-passing node has no global identifiers, so the
// cross-copy sharing engine L's DP exploits is not reconstructible here.
// The DP engine then simply degenerates to a per-copy memoization of the
// same recursions with bit-identical reduction order, so outputs still
// match engines C/L exactly -- engine M pays view-sized tables instead,
// which is precisely the message/work trade-off this engine exists to
// measure.
//
// Message volume: the round-k message below one edge is a radius-(k-1)
// subtree, so engine M's largest message is a radius-(D-1) = (12r+4) view
// blob -- exponential in R.  Engine S (dist/streaming.hpp) trades +2 rounds
// for scalar messages beyond radius 4r+3.
#pragma once

#include <cstdint>
#include <vector>

#include "core/view_solver.hpp"
#include "dist/message_passing.hpp"
#include "dist/transport.hpp"
#include "graph/view_tree.hpp"

namespace locmm {

// The view-gathering state machine shared by engines M and S: outgoing
// subtree blobs per round, inbox bookkeeping, and the final BFS splice into
// a ViewTree.  Not a NodeProgram itself -- GatherProgram and the streaming
// program embed it.
class ViewGatherCore {
 public:
  void init(const LocalInput& input);

  // The round-k outgoing messages (one depth-(k-1) subtree per port).
  std::vector<Message> send(std::int32_t round) const;

  // Stores the round-k inbox (each entry a depth-(k-1) subtree).
  void receive(std::int32_t round, std::span<const Message> inbox);

  // Splices the stored inbox under the local input into the radius-`depth`
  // view, where `depth` is the number of gather rounds run.  Call once,
  // after receive(depth, ...).
  void assemble(std::int32_t depth, ViewTree& out) const;

  // Frees the stored subtree blobs (they are gather-phase-sized; callers
  // that are done assembling drop their peak memory back to scalars).
  void release() { prev_.clear(); prev_.shrink_to_fit(); }

  const LocalInput& input() const { return in_; }

 private:
  LocalInput in_;
  // Per port, the subtree received last round (preorder blobs).
  std::vector<std::vector<WireNode>> prev_;
};

// Engine M's per-node program: gather for `depth` rounds, assemble, and --
// for agent nodes when R >= 2 -- evaluate the §5 output from the gathered
// view with the engine-L evaluator.  R = 0 selects gather-only mode (view()
// still valid; used by the substrate tests and benches).
class GatherProgram final : public AgentNodeProgram {
 public:
  GatherProgram(std::int32_t depth, std::int32_t R,
                const TSearchOptions& opt);

  void init(const LocalInput& input) override;
  std::vector<Message> send(std::int32_t round) override;
  void receive(std::int32_t round, std::span<const Message> inbox) override;
  bool halted() const override { return done_; }

  // The gathered radius-`depth` view (valid once halted).  Assembled
  // lazily: in a solve run only the agents ever materialise their view (for
  // the evaluation); the constraint/objective relays keep just their raw
  // inbox blobs unless someone actually asks -- the substrate tests do, per
  // node, and get the identical splice either way.
  const ViewTree& view() const;

  // The agent's output x_v (valid once halted, for agent nodes with R >= 2).
  double x() const override { return x_; }

 private:
  void ensure_assembled() const;

  ViewGatherCore core_;
  std::int32_t depth_;
  std::int32_t R_;
  TSearchOptions opt_;
  mutable ViewTree view_;
  mutable bool assembled_ = false;
  double x_ = 0.0;
  bool done_ = false;
};

// Runs engine M on a special-form instance: view_radius(R) gathering rounds,
// then every agent evaluates its gathered view (one run_engine call,
// dist/fault.hpp).  threads: 1 = serial (default), 0 = all hardware
// threads; the output is bitwise independent of the thread count.
// `faults` (optional, not owned) injects the given seeded fault scenario
// and runs detection / retransmission / degradation on top
// (dist/fault.hpp): with full recovery the outputs are bitwise identical to
// the fault-free run.  `dist` selects the transport: the default runs the
// in-process SyncNetwork; the shared-memory transport forks dist.ranks
// processes and ships encoded frames (dist/transport.hpp) -- bitwise
// identical outputs and identical stats, tested.  Fault injection is
// in-process only (faults must be nullptr when ranks cross processes).
MessageRunResult solve_special_message_passing(const MaxMinInstance& special,
                                               std::int32_t R,
                                               const TSearchOptions& opt = {},
                                               std::size_t threads = 1,
                                               const FaultPlan* faults =
                                                   nullptr,
                                               const DistOptions& dist = {});

}  // namespace locmm
