// incremental_solver.hpp -- delta-driven dynamic re-solves (paper §1.3).
//
// "A local algorithm is automatically an efficient dynamic graph algorithm":
// every output x_v is a pure function of v's radius-D(R) neighbourhood
// (PAPER §3, Remarks 4-5), so an edit can only change the outputs of agents
// within distance D(R) = 12r+5 of the edit.  This class exploits it.  It
// holds a solved SpecialFormInstance and applies batched edits to it.
//
// The shared-memory engine (DynamicEngine::kMemoizedDp) keeps engine C's
// global tables -- t, s, g± and x (core/local_solver.hpp) -- plus the
// per-objective row sums behind omega and a min-tree over t.  t, s and g are
// position-independent (paper Example 2), so each entry depends on a fixed
// radius around its agent, and an apply() re-derives only what an edit can
// reach:
//
//   1. seeds = both endpoints of every touched edge; the t cone is every
//      agent within comm-graph distance 4r+3 of a seed (the farthest
//      coefficient t_u reads), the ball every agent within D(R).  A
//      structural delta floods both the pre- and the post-edit graph, since
//      a removed edge can leave agents that used to see it beyond the new
//      horizon;
//   2. the instance and the graph are patched in place
//      (SpecialFormInstance::apply, CommGraph::apply_delta or
//      set_edge_coefficient) -- O(ball), not O(V+E);
//   3. every t of the cone is re-bisected with compute_t_single;
//   4. over the ball: s as each agent's radius-(2r+1) agent-hop minimum of
//      t, then g± depth by depth, then x -- the arithmetic of smooth_min,
//      compute_g and output_x, reading unchanged entries outside the ball
//      from the tables;
//   5. the staged entries are written to the tables, and the row sums of
//      the ball's objectives are recomputed.
//
// Every entry is therefore computed by the same function on the same inputs
// as in a scratch engine-C solve, so after every apply() the tables are
// bitwise those of solve_special_centralized on the edited instance
// (tests/incremental_test.cpp), and engines L, M and S agree with them
// bitwise too (tests/cross_engine_test.cpp).  The cost is governed by the
// cone and the ball, never by n (the flatness test pins the counters).  The
// ball phases run inline on the calling thread: a ball is far too small to
// pay for a thread-pool dispatch.
//
// The same observation holds *distributed* (§1.3's actual claim): in the
// message-passing model, after an edit only the nodes inside the dirty ball
// need to re-send -- everyone else's messages are provably unchanged and can
// be replayed from a recorded history.  kMessagePassing and kStreaming hold
// a dynamic SyncNetwork (dist/message_passing.hpp) whose replay(delta)
// re-executes engine M's view gathering or engine S's scalar phases only on
// the dirty-ball nodes, splicing cached subtrees / scalars for the clean
// cone.  The result after every apply() is bitwise the matching scratch
// engine run (tests/dynamic_dist_test.cpp), and fresh message counts scale
// with the ball, never with n (UpdateStats::net).
//
// For edits addressed against an *original* (non-special-form) instance,
// use LocalResolver (core/solver_api.hpp), which routes the edit through
// the §4 pipeline and feeds the resulting special-form delta here.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/special_form.hpp"
#include "core/upper_bound.hpp"
#include "dist/message_passing.hpp"
#include "graph/comm_graph.hpp"
#include "lp/delta.hpp"
#include "support/deadline.hpp"
#include "support/min_tree.hpp"

namespace locmm {

class ViewClassCache;  // core/view_class_cache.hpp

// Which engine carries the incremental re-solves.  kMemoizedDp names engine
// C's tables; the name stays because perfbench/src/edit_stream.cpp uses it.
enum class DynamicEngine {
  kMemoizedDp,      // engine C: the kept t / s / g± / x tables, re-derived
                    // on each edit's t cone and radius-D(R) ball (default)
  kMessagePassing,  // engine M: SyncNetwork replay of the view gathering --
                    // dirty-ball nodes re-gather, the clean cone is spliced
                    // from cached subtree messages
  kStreaming,       // engine S: SyncNetwork replay of the t-gather and the
                    // smoothing/g scalar floods on dirty-ball nodes only
};

class IncrementalSolver {
 public:
  struct Options {
    std::int32_t R = 4;
    // Bisection knobs (tol, max_iters, exact_lp) and optional stats.
    TSearchOptions t_search = {};
    // Threads of the cold solve and of the distributed engines' network
    // (0 = all hardware threads).  kMemoizedDp's apply() always runs on
    // the calling thread.
    std::size_t threads = 1;
    // Ignored; kept because perfbench/src/edit_stream.cpp sets it.
    ViewClassCache* cache = nullptr;
    // Engine carrying the updates (see DynamicEngine).  The distributed
    // engines keep the recorded message history resident (one copy of the
    // cold run's traffic) -- that history IS the state replay serves the
    // clean cone from.
    DynamicEngine engine = DynamicEngine::kMemoizedDp;
    // Optional seeded fault scenario for the distributed COLD solve
    // (dist/fault.hpp; not owned, must outlive construction; distributed
    // engines only -- CHECK-fails with kMemoizedDp).  When the run fully
    // recovers, the repaired history is bitwise the fault-free recording,
    // so every subsequent apply() replays exactly as if no fault happened.
    // When it cannot (retransmit budget exhausted), the solver degrades
    // gracefully: it drops the network, re-solves cold into the engine-C
    // tables, and carries ALL subsequent updates there
    // (degraded_to_local() reports this).
    const FaultPlan* cold_faults = nullptr;
  };

  // Solves `special` cold -- engine C into the kept tables (kMemoizedDp)
  // or a recorded SyncNetwork run of the selected distributed engine -- and
  // keeps everything the updates need: the instance, the graph, the
  // solution, and the tables (engine C) or the per-node message history
  // (engines M / S).
  IncrementalSolver(const MaxMinInstance& special, const Options& opt);
  explicit IncrementalSolver(const MaxMinInstance& special);

  // The SyncNetwork reference into g_ and the node-indexed scratch make a
  // moved-to solver point at the wrong graph; hold it by unique_ptr if it
  // has to travel.
  IncrementalSolver(const IncrementalSolver&) = delete;
  IncrementalSolver& operator=(const IncrementalSolver&) = delete;

  const std::vector<double>& x() const { return x_; }
  const SpecialFormInstance& special() const { return sf_; }
  const CommGraph& graph() const { return g_; }
  std::int32_t R() const { return opt_.R; }
  DynamicEngine engine() const { return opt_.engine; }

  // omega of x() on special(): the minimum objective row sum, bitwise
  // special().instance().utility(x()), read in O(1) off a min-tree (every
  // engine; +infinity for an instance without objectives).
  double omega() const { return objective_sums_.min(); }

  // min_v t_v, the upper bound on the special optimum of Lemmas 2-3
  // (kMemoizedDp; 0 for the distributed engines, which keep no t table).
  double t_min() const { return t().empty() ? 0.0 : t_.min(); }

  // Engine C's tables (kMemoizedDp; empty for the distributed engines),
  // bitwise what solve_special_centralized computes on special().
  const std::vector<double>& t() const { return t_.values(); }
  const std::vector<double>& s() const { return s_; }
  const std::vector<double>& g_plus(std::int32_t d) const {
    return g_plus_[static_cast<std::size_t>(d)];
  }
  const std::vector<double>& g_minus(std::int32_t d) const {
    return g_minus_[static_cast<std::size_t>(d)];
  }

  // The agents whose x entry the last apply() may have changed, ascending:
  // the radius-D(R) ball (kMemoizedDp) or the replay's executed agents
  // (engines M / S).  Every other entry of x() kept its bits.
  std::span<const AgentId> last_rewritten() const { return rewritten_; }

  // Scheduler accounting of the cold solve (engines M / S; all zero for
  // kMemoizedDp, which never touches the network substrate).  With
  // Options::cold_faults set, this carries the faulty run's full fault
  // block (drops, retransmissions, recovery rounds, replayed repairs).
  const RunStats& cold_net_stats() const { return cold_net_; }

  // Whether an unrecoverable Options::cold_faults scenario forced the
  // fallback from the requested distributed engine to the engine-C tables
  // (engine() reports kMemoizedDp from then on).
  bool degraded_to_local() const { return degraded_to_local_; }

  // Per-update accounting (agents_dirty / agents_reused are also mirrored
  // into Options::t_search.stats when set).
  struct UpdateStats {
    std::int64_t agents_dirty = 0;   // |dirty ball| (old + new graph union):
                                     // agents whose s, g± and x were rewritten
    std::int64_t agents_reused = 0;  // n - agents_dirty: entries untouched
    std::int64_t cone_t_recomputed = 0;  // t values re-bisected (the t cone)
    std::int64_t warm_t_reused = 0;  // ball agents whose kept t stood
    std::int64_t evals = 0;          // x entries recomputed
    std::int64_t sums_rewritten = 0;  // objective row sums recomputed
    std::int64_t class_cache_hits = 0;  // always 0; perfbench reads it
    double apply_us = 0.0;   // instance + graph patch
    double flood_us = 0.0;   // dirty-ball and t-cone floods
    double refine_us = 0.0;  // always 0; perfbench reads it
    double eval_us = 0.0;    // t re-bisection, then s, g± and x on the ball
    double broadcast_us = 0.0;  // table commit and objective sums
    // Engines M / S: the replay's scheduler accounting.  fresh_* is the
    // §1.3 headline -- bounded by the dirty ball times the round count,
    // independent of n; replayed_* is what the ball consumed from the
    // cached history.  All zero for kMemoizedDp.
    RunStats net;
  };

  // Applies the batch (lp/delta.hpp semantics: removes, adds, coefficient
  // edits, in that order) and incrementally re-solves; returns the updated
  // solution.
  //
  // Transactional: commit-or-rollback.  A delta that breaks the
  // special-form contract is rejected by the admission dry run
  // (SpecialFormInstance::check_applicable) and throws CheckError BEFORE
  // anything -- instance, graph, tables, x -- is touched.  A `deadline`
  // (kMemoizedDp only; distributed engines CHECK it is null) is probed
  // after admission, after the graph patch, before each t re-bisection and
  // between the ball phases; once it expires, apply throws
  // DeadlineExceeded and rolls the applied mutation back: coefficient-only
  // deltas via the recorded inverse delta, structural deltas via an
  // O(ball) patch of the touched rows (SpecialFormInstance::restore) plus
  // a graph re-splice against the restored instance.  The tables are
  // written only after the last probe, so the solver is left bitwise
  // identical to the state before the call (tests/incremental_test.cpp
  // snapshot-compares every table).
  const std::vector<double>& apply(const InstanceDelta& delta,
                                   const Deadline* deadline = nullptr);

  const UpdateStats& last_update() const { return last_; }

  // Fast-forwards the flood-epoch counter (test hook for the near-wrap
  // renumbering path; `epoch` must not move backwards).
  void set_flood_epoch_for_test(std::uint32_t epoch) {
    LOCMM_CHECK(epoch >= epoch_);
    epoch_ = epoch;
  }

 private:
  // Marks and appends all agents within distance D(R) of `seeds` in `g`.
  // Dedup across the two floods of one update is epoch-stamped, so repeat
  // visits cost nothing and no O(n) clearing happens per update.
  void collect_dirty(const CommGraph& g, const std::vector<NodeId>& seeds,
                     std::vector<AgentId>& dirty);

  // Appends to t_cone_ every agent within comm-graph distance 4r+3 of
  // `seeds` in `g` -- the t-dependency cone: t_u reads coefficients of
  // agents at distance <= 4r+2 and rows at <= 4r+3 (upper_bound.hpp's
  // recursion plus the sibling caps of the bisection bracket), so every t
  // outside the cone is bitwise unaffected by an edit at the seeds.  Uses
  // its own epoch-stamped visited array (t_stamp_), so the pre- and
  // post-edit floods of a structural delta stay independent BFS passes;
  // the caller deduplicates the union.
  void flood_t_cone(const CommGraph& g, const std::vector<NodeId>& seeds);

  // One NodeProgram of the selected distributed engine for `node`.
  std::unique_ptr<NodeProgram> make_program(NodeId node) const;

  // Engine C's cold solve into the tables.  Runs at construction for
  // kMemoizedDp, and again as the degradation target when a faulty
  // distributed cold solve cannot fully recover.
  void cold_solve_tables();

  // The engine-C update path and the distributed one (SyncNetwork replay);
  // apply() dispatches on the engine.
  void apply_tables(const std::vector<NodeId>& seeds,
                    const InstanceDelta& delta, const Deadline* deadline);
  void apply_distributed(const std::vector<NodeId>& seeds,
                         const InstanceDelta& delta);

  // Staged ball values (apply_tables): t, s, g±[d] and x of the agent at
  // position i of rewritten_; entries outside the ball read the tables.
  double staged_t(AgentId u) const;
  double staged_g_plus(std::int32_t d, AgentId u) const;
  double staged_g_minus(std::int32_t d, AgentId u) const;
  std::size_t ball_index(AgentId u) const {
    return static_cast<std::size_t>(ball_pos_[static_cast<std::size_t>(u)]);
  }
  bool in_ball(AgentId u) const {
    return agent_stamp_[static_cast<std::size_t>(u)] == ball_epoch_;
  }

  Options opt_;
  std::int32_t D_ = 0;

  SpecialFormInstance sf_;
  CommGraph g_;
  // Engines M / S: the recorded network (holds the per-node message history
  // the replays splice the clean cone from); null for kMemoizedDp.
  std::unique_ptr<SyncNetwork> net_;
  RunStats cold_net_;
  bool degraded_to_local_ = false;
  std::vector<double> x_;
  MinTree objective_sums_;  // value k: objective k's row sum on x_

  // Engine C's tables (kMemoizedDp): t (with its min index), s and g±[d],
  // d = 0..r, per agent.
  MinTree t_;
  std::vector<double> s_;
  std::vector<std::vector<double>> g_plus_, g_minus_;

  // Flood scratch: per-node visited stamps (two floods per update), and a
  // per-agent stamp deduplicating the union of their agent sets -- which
  // afterwards marks ball membership (in_ball) for the staged reads.
  std::vector<std::uint32_t> node_stamp_;
  std::vector<std::uint32_t> agent_stamp_;
  std::uint32_t epoch_ = 0;
  std::uint32_t ball_epoch_ = 0;
  std::vector<NodeId> bfs_cur_, bfs_next_;
  // The t-cone flood's own stamps and the cone it collects.
  std::vector<std::uint32_t> t_stamp_;
  std::uint32_t t_epoch_ = 0;
  std::vector<AgentId> t_cone_;

  // Ball scratch of apply_tables: each ball agent's position in rewritten_,
  // the staged values (t, s and x per position, g± per depth-major
  // position), and the visited marks of the smoothing walks.
  std::vector<std::int32_t> ball_pos_;
  std::vector<double> t_new_, s_new_, x_new_;
  std::vector<double> g_plus_new_, g_minus_new_;
  std::vector<std::uint8_t> s_seen_;
  std::vector<AgentId> s_walk_;
  std::vector<ObjectiveId> objectives_;

  std::vector<AgentId> rewritten_;
  UpdateStats last_;
};

}  // namespace locmm
