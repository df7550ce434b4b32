// solver_api.hpp -- the end-to-end public entry point of locmm.
//
// solve_local() realises Theorem 1's algorithm on an arbitrary max-min LP:
//   1. reduce to special form with the §4 pipeline (factor delta_I / 2),
//   2. run the §5 local algorithm with shifting parameter R,
//   3. map the solution back through the pipeline.
// The a-priori guarantee carried in the result is
//   ratio <= delta_I (1 - 1/delta_K) (1 + 1/(R-1))
// (paper §6.3); measured ratios against the LP optimum are typically far
// better (bench E1).
//
// LocalResolver is the dynamic entry point (paper §1.3): it holds a solved
// instance and re-solves *incrementally* under batched edits, routing each
// original-instance delta through the §4 pipeline to a special-form delta
// for the radius-D(R) dirty-ball machinery of src/dynamic.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/upper_bound.hpp"
#include "dist/message_passing.hpp"
#include "lp/delta.hpp"
#include "lp/instance.hpp"
#include "support/min_tree.hpp"
#include "transform/transform.hpp"

namespace locmm {

class IncrementalSolver;  // dynamic/incremental_solver.hpp

enum class LocalEngine {
  kCentralized,     // engine C: shared DP on G (fast path; default)
  kLocalViews,      // engine L: per-agent evaluation on explicit local views
  kMessagePassing,  // engine M: gather radius-D views over SyncNetwork, then
                    // simulate (dist/gather.hpp); exponential-size messages
  kStreaming,       // engine S: scalar t/s/g floods after a shallow gather
                    // (dist/streaming.hpp); +2 rounds, small messages
};

struct LocalParams {
  std::int32_t R = 4;  // shifting parameter; horizon and ratio both grow in R
  LocalEngine engine = LocalEngine::kCentralized;
  TSearchOptions t_search = {};
  std::size_t threads = 1;  // 0 = all hardware threads
  // Optional seeded fault-injection scenario (dist/fault.hpp; not owned,
  // must outlive the call).  Engines M / S only: the distributed run (or
  // LocalResolver's distributed cold solve) executes under the scenario
  // with checksum detection, bounded retransmission and per-agent
  // degradation (LocalSolution::degraded).  The simulated engines C / L
  // have no wire to fault: passing a plan with them CHECK-fails.
  const FaultPlan* faults = nullptr;
};

struct LocalSolution {
  // Solution of the *original* instance (feasible by construction).
  std::vector<double> x;
  double omega = 0.0;  // utility of x on the original instance

  // Diagnostics.
  std::vector<double> x_special;    // solution of the special-form instance
  double omega_special = 0.0;       // its utility there
  double t_min_special = 0.0;       // min_v t_v: upper bound on the special
                                    // optimum (Lemmas 2-3); 0 on a
                                    // LocalResolver carried by engine M or
                                    // S, which keep no t table
  double ratio_factor = 1.0;        // pipeline factor (delta_I / 2)
  double guarantee = 0.0;           // a-priori ratio bound (see above)
  InstanceStats special_stats;      // size of the transformed instance
  std::int32_t view_radius = 0;     // local horizon D(R) of engine L / M
  // Scheduler accounting of the distributed engines (M / S): rounds,
  // delivered messages, measured bytes (encoded frame sizes), largest
  // message.  All zero for the simulated engines C / L, which never touch
  // the network substrate.
  RunStats net_stats;

  // Fault-tolerance diagnostics, populated only when LocalParams::faults
  // injected a scenario into a distributed run (empty otherwise).
  // degraded_special[i] == 1 marks a special-form agent inside an
  // unrecoverable fault cone: its x_special entry is the engine-L fallback
  // evaluation, not the in-network value.  degraded[v] == 1 marks the
  // ORIGINAL agents whose mapped-back value reads at least one such
  // special agent (through any §4 back-map, including the max() over
  // split copies), i.e. the coordinates of x that are estimates rather
  // than exact replays.  All-zero vectors mean the run fully recovered.
  std::vector<std::uint8_t> degraded;
  std::vector<std::uint8_t> degraded_special;
  // LocalResolver only: a faulty distributed cold solve that could not be
  // fully recovered dropped the recorded network and carried on over the
  // engine-C tables (see IncrementalSolver::degraded_to_local).
  bool degraded_to_local = false;
};

LocalSolution solve_local(const MaxMinInstance& inst,
                          const LocalParams& params = {});

// Incremental counterpart of solve_local for long-lived, slowly-mutating
// instances (sensor fields with drifting link qualities, allocation
// networks under churn).  Construction performs one cold solve;
// resolve(delta) then applies an edit batch addressed against the ORIGINAL
// instance and re-solves at dirty-ball cost.  Three tiers, tried in order:
//
//   * id-map fast path: the pipeline's persistent old-id -> new-id map
//     (transform.hpp: PipelineIdMap) translates the batch -- membership
//     add/remove AND coefficient edits alike -- straight into a special-form
//     delta whenever every touched id provably leaves the §4 numbering
//     fixed (non-gadget size-2 constraint rows at zero growth,
//     singly-imaged agents with |Kv| preserved, non-singleton objective
//     rows).  Every step is O(ball), none touches all n: the
//     IncrementalSolver (src/dynamic) re-derives the radius-D(R) ball, the
//     resolver patches only the x_special entries of that ball, maps back
//     only their original owners plus the agents whose §4.6 scale gamma
//     changed, recomputes only the original objective rows those touch
//     (omega is the minimum of a min-tree over the row sums), and keeps
//     InstanceStats from per-size row counts (StatsTracker);
//   * re-pipeline + diff: edits outside the fast path re-run the (cheap,
//     deterministic) §4 pipeline on the edited original and diff the
//     special-form outputs (lp/delta.hpp: diff_instances) into a
//     coefficient delta for the same dirty-ball machinery, then refresh the
//     solution in O(n);
//   * re-initialise: when the pipeline's numbering genuinely shifted (the
//     diff fails), the resolver rebuilds its IncrementalSolver cold against
//     the new special form.
//
// LocalParams::engine selects the incremental realisation: kCentralized
// and kLocalViews keep engine C's tables (DynamicEngine::kMemoizedDp;
// engines C and L agree bitwise, so one realisation serves both);
// kMessagePassing / kStreaming hold a recorded SyncNetwork and replay it,
// re-executing only dirty-ball nodes -- solution().net_stats then carries
// the replay's fresh-vs-replayed message split (paper §1.3, distributed end
// to end).  Either way solution() is bitwise solve_local(instance(), params)
// on the edited instance -- x, omega, x_special, omega_special,
// special_stats, guarantee, and t_min_special on the engine-C path
// (tests/incremental_test.cpp, tests/dynamic_dist_test.cpp).
class LocalResolver {
 public:
  explicit LocalResolver(const MaxMinInstance& inst,
                         const LocalParams& params = {});
  ~LocalResolver();
  LocalResolver(LocalResolver&&) noexcept;
  LocalResolver& operator=(LocalResolver&&) noexcept;

  const MaxMinInstance& instance() const { return inst_; }
  const LocalSolution& solution() const { return sol_; }

  // Applies `delta` (original-instance coordinates) and incrementally
  // re-solves; returns the updated solution.  Strong exception guarantee:
  // a delta the admission dry run rejects (InstanceDelta::check_applicable)
  // throws CheckError before anything happens, and a failure deeper in the
  // solve rolls back -- instance, pipeline, solver and solution are left
  // bitwise as before the call either way (tests/solver_api_test.cpp diffs
  // the full state after every rejected-delta shape).
  const LocalSolution& resolve(const InstanceDelta& delta);

  // Whether the last resolve() fed the IncrementalSolver a special-form
  // delta -- the id-map fast path (structural or coefficient edits inside
  // its conditions) or the re-pipeline + diff path -- as opposed to
  // re-initialising against a renumbered pipeline.  Membership edits on
  // id-stable regions report true; only numbering-shifting edits
  // (gadget-adjacent rows, |Kv| changes, splits) fall back to false.
  bool last_resolve_was_delta() const { return last_was_delta_; }

  // Original agents whose x entry the last resolve() mapped back: the
  // owners of the rewritten special ball on the fast path, every original
  // agent otherwise.
  std::int64_t last_mapped_back() const { return last_mapped_back_; }

  // The IncrementalSolver carrying the special form (its last_update()
  // holds the per-edit counters).
  const IncrementalSolver& solver() const;

 private:
  void solve_from_pipeline();  // (re)builds inc_ and sol_ from inst_
  // Rebuilds the whole solution from inc_ (cold solve and the slow tiers).
  void refresh_solution();
  // The fast path's O(ball) solution patch after inc_ applied `mapped`.
  void patch_solution(const MappedDelta& mapped, const InstanceDelta& delta);
  // The summary fields every refresh writes last.
  void finish_summary();

  LocalParams params_;
  MaxMinInstance inst_;
  Pipeline pipeline_;
  std::unique_ptr<IncrementalSolver> inc_;
  LocalSolution sol_;
  bool last_was_delta_ = false;
  // Fast-path bookkeeping: InstanceStats of the original and of the
  // special form, and the original objective row sums behind omega.
  StatsTracker orig_stats_, special_stats_;
  MinTree orig_sums_;
  std::int64_t last_mapped_back_ = 0;
  // Scratch of patch_solution.
  std::vector<AgentId> originals_;
  std::vector<ObjectiveId> rows_;
};

// The a-priori approximation guarantee of Theorem 1's algorithm for an
// instance with the given degree bounds and shifting parameter.
double theorem1_guarantee(std::int32_t delta_i, std::int32_t delta_k,
                          std::int32_t R);

// The special-form guarantee 2 (1 - 1/delta_k) (1 + 1/(R-1)) of §6.
double special_form_guarantee(std::int32_t delta_k, std::int32_t R);

}  // namespace locmm
