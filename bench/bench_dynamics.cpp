// E9 -- dynamic updates: incremental re-solve vs full re-solve.
//
// After a single-coefficient edit, IncrementalSolver (engine C's kept
// tables, src/dynamic/incremental_solver.hpp) re-bisects only the edit's t
// cone and re-derives s, g± and x on the radius-D(R) ball, while the
// baseline pays a whole-instance scratch engine-C solve -- the fastest
// scratch solver.  Every incremental output is compared BIT-for-bit against
// that scratch solve, so the bench doubles as a large-instance correctness
// probe.  Each E9 row carries the per-phase timing split (apply / flood /
// eval / broadcast) and the cone and ball sizes.
//
// The distributed rows (engine M / S) measure the same story in the
// message-passing model: a dynamic SyncNetwork replays its recorded
// history, so a single-coefficient edit re-sends only the dirty ball's
// messages (fresh) and serves everything else from cache (replayed).  Each
// engine runs at TWO instance sizes so the JSON shows the §1.3 claim
// directly: fresh counts identical while n doubles.  Full mode reaches
// R = 4 at 10k agents: the recorded history now stores encoded wire frames
// (13 bytes per view node instead of a 32-byte WireNode, ~2.5x smaller --
// dist/wire.hpp), which brings engine M's resident history at R = 4 / 10k
// down from the ~0.5 GB that used to stop these rows at R = 3.
//
// The E9c rows run LocalResolver end to end on original-instance edits
// (membership churn through the id-map fast path) against a scratch
// solve_local with engine C, at two sizes per workload: the per-edit time,
// the dirty ball and the original agents mapped back must not move while n
// grows -- the finish (map-back, omega, stats) is O(ball) too.
//
// Usage: bench_dynamics [BENCH_dynamics.json] [--smoke]
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/local_solver.hpp"
#include "core/solver_api.hpp"
#include "core/special_form.hpp"
#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "lp/delta.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

#include "bench_util.hpp"

using namespace locmm;

namespace {

struct RunResult {
  std::string generator;
  std::int32_t R = 0;
  std::int64_t agents = 0;
  std::int64_t edits = 0;
  double cold_ms = 0.0;        // initial IncrementalSolver solve
  double inc_ms = 0.0;         // mean per-edit incremental re-solve
  double scratch_ms = 0.0;     // mean per-edit scratch engine-C re-solve
  double speedup = 0.0;        // scratch_ms / inc_ms
  double agents_dirty = 0.0;   // mean dirty-ball size
  double t_recomputed = 0.0;   // mean t re-bisections (the t cone)
  // Mean per-edit phase timings of the incremental path (UpdateStats).
  double apply_us = 0.0;      // instance + derived arrays + graph patch
  double flood_us = 0.0;      // dirty-ball and t-cone BFS
  double eval_us = 0.0;       // t re-bisection, s, g± and x on the ball
  double broadcast_us = 0.0;  // table commit and objective sums
  bool identical = true;       // incremental == scratch, bitwise, every edit
};

RunResult run_workload(const std::string& name, const MaxMinInstance& inst,
                       std::int32_t R, std::int32_t edits,
                       std::uint64_t seed) {
  RunResult res;
  res.generator = name;
  res.R = R;
  res.agents = inst.num_agents();
  res.edits = edits;

  Timer cold_timer;
  IncrementalSolver::Options opt;
  opt.R = R;
  IncrementalSolver inc(inst, opt);
  res.cold_ms = cold_timer.millis();

  MaxMinInstance cur = inst;
  Rng rng(seed);
  for (std::int32_t e = 0; e < edits; ++e) {
    const auto v = static_cast<AgentId>(
        rng.below(static_cast<std::uint64_t>(inst.num_agents())));
    const auto arcs = inc.special().arcs(v);
    const ConstraintArc arc = arcs[rng.below(arcs.size())];
    InstanceDelta delta;
    delta.set_constraint_coeff(arc.id, v, rng.uniform(0.5, 2.0));

    Timer inc_timer;
    inc.apply(delta);
    res.inc_ms += inc_timer.millis();
    const auto& u = inc.last_update();
    res.agents_dirty += static_cast<double>(u.agents_dirty);
    res.t_recomputed += static_cast<double>(u.cone_t_recomputed);
    res.apply_us += u.apply_us;
    res.flood_us += u.flood_us;
    res.eval_us += u.eval_us;
    res.broadcast_us += u.broadcast_us;

    cur.apply(delta);
    Timer scratch_timer;
    const std::vector<double> scratch =
        solve_special_centralized(SpecialFormInstance(cur), R).x;
    res.scratch_ms += scratch_timer.millis();
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      if (std::memcmp(&scratch[i], &inc.x()[i], sizeof(double)) != 0) {
        res.identical = false;
        std::fprintf(stderr,
                     "MISMATCH %s R=%d edit=%d agent=%zu: %.17g vs %.17g\n",
                     name.c_str(), R, e, i, inc.x()[i], scratch[i]);
      }
    }
  }
  const double n = static_cast<double>(edits);
  res.inc_ms /= n;
  res.scratch_ms /= n;
  res.agents_dirty /= n;
  res.t_recomputed /= n;
  res.apply_us /= n;
  res.flood_us /= n;
  res.eval_us /= n;
  res.broadcast_us /= n;
  res.speedup = res.inc_ms > 0.0 ? res.scratch_ms / res.inc_ms : 0.0;
  LOCMM_CHECK_MSG(res.identical, "incremental re-solve diverged from the "
                                 "from-scratch solve on "
                                     << name << " at R = " << R);
  return res;
}

std::string json_row(const RunResult& r) {
  std::string s = "    {";
  s += "\"table\": \"E9\"";
  s += ", \"generator\": \"" + r.generator + "\"";
  s += ", \"engine\": \"C\"";
  s += ", \"R\": " + std::to_string(r.R);
  s += ", \"agents\": " + std::to_string(r.agents);
  s += ", \"edits\": " + std::to_string(r.edits);
  s += ", \"cold_ms\": " + std::to_string(r.cold_ms);
  s += ", \"incremental_ms\": " + std::to_string(r.inc_ms);
  s += ", \"scratch_ms\": " + std::to_string(r.scratch_ms);
  s += ", \"speedup\": " + std::to_string(r.speedup);
  s += ", \"agents_dirty\": " + std::to_string(r.agents_dirty);
  s += ", \"t_recomputed\": " + std::to_string(r.t_recomputed);
  s += ", \"apply_us\": " + std::to_string(r.apply_us);
  s += ", \"flood_us\": " + std::to_string(r.flood_us);
  s += ", \"eval_us\": " + std::to_string(r.eval_us);
  s += ", \"broadcast_us\": " + std::to_string(r.broadcast_us);
  s += ", \"bit_identical\": ";
  s += r.identical ? "true" : "false";
  s += "}";
  return s;
}

// ---------------------------------------------------------------------------
// Distributed dynamic rows: engines M and S over SyncNetwork replay
// ---------------------------------------------------------------------------

struct DistRunResult {
  std::string generator;
  std::string engine;  // "M" or "S"
  std::int32_t R = 0;
  std::int64_t agents = 0;
  std::int64_t edits = 0;
  double cold_ms = 0.0;
  std::int64_t cold_messages = 0;  // full recorded run: all fresh
  double inc_ms = 0.0;             // mean per-edit replay
  double fresh_messages = 0.0;     // mean per edit: the §1.3 headline
  double replayed_messages = 0.0;  // mean per edit: cache-served deliveries
  double fresh_bytes = 0.0;
  double replayed_bytes = 0.0;
  double agents_dirty = 0.0;
  bool identical = true;  // vs the engine's scratch oracle, bitwise
};

DistRunResult run_dist_workload(const std::string& name,
                                const MaxMinInstance& inst, std::int32_t R,
                                DynamicEngine engine, std::int32_t edits,
                                std::uint64_t seed) {
  DistRunResult res;
  res.generator = name;
  res.engine = engine == DynamicEngine::kMessagePassing ? "M" : "S";
  res.R = R;
  res.agents = inst.num_agents();
  res.edits = edits;

  Timer cold_timer;
  IncrementalSolver::Options opt;
  opt.R = R;
  opt.engine = engine;
  IncrementalSolver inc(inst, opt);
  res.cold_ms = cold_timer.millis();
  res.cold_messages = inc.cold_net_stats().messages;

  MaxMinInstance cur = inst;
  Rng rng(seed);
  for (std::int32_t e = 0; e < edits; ++e) {
    const auto v = static_cast<AgentId>(
        rng.below(static_cast<std::uint64_t>(inst.num_agents())));
    const auto arcs = inc.special().arcs(v);
    const ConstraintArc arc = arcs[rng.below(arcs.size())];
    InstanceDelta delta;
    delta.set_constraint_coeff(arc.id, v, rng.uniform(0.5, 2.0));

    Timer inc_timer;
    inc.apply(delta);
    res.inc_ms += inc_timer.millis();
    const auto& u = inc.last_update();
    res.fresh_messages += static_cast<double>(u.net.fresh_messages);
    res.replayed_messages += static_cast<double>(u.net.replayed_messages);
    res.fresh_bytes += static_cast<double>(u.net.fresh_bytes);
    res.replayed_bytes += static_cast<double>(u.net.replayed_bytes);
    res.agents_dirty += static_cast<double>(u.agents_dirty);

    cur.apply(delta);
    // Oracle: scratch engine C, which engines M and S match bitwise
    // (tests/cross_engine_test.cpp).
    const std::vector<double> scratch =
        solve_special_centralized(SpecialFormInstance(cur), R).x;
    for (std::size_t i = 0; i < scratch.size(); ++i) {
      if (std::memcmp(&scratch[i], &inc.x()[i], sizeof(double)) != 0) {
        res.identical = false;
        std::fprintf(stderr,
                     "MISMATCH %s/%s R=%d edit=%d agent=%zu: %.17g vs %.17g\n",
                     name.c_str(), res.engine.c_str(), R, e, i, inc.x()[i],
                     scratch[i]);
      }
    }
  }
  const double n = static_cast<double>(edits);
  res.inc_ms /= n;
  res.fresh_messages /= n;
  res.replayed_messages /= n;
  res.fresh_bytes /= n;
  res.replayed_bytes /= n;
  res.agents_dirty /= n;
  LOCMM_CHECK_MSG(res.identical,
                  "incremental engine-" << res.engine
                                        << " re-solve diverged from scratch "
                                        << "on " << name << " at R = " << R);
  return res;
}

std::string json_dist_row(const DistRunResult& r) {
  std::string s = "    {";
  s += "\"generator\": \"" + r.generator + "\"";
  s += ", \"engine\": \"" + r.engine + "\"";
  s += ", \"R\": " + std::to_string(r.R);
  s += ", \"agents\": " + std::to_string(r.agents);
  s += ", \"edits\": " + std::to_string(r.edits);
  s += ", \"cold_ms\": " + std::to_string(r.cold_ms);
  s += ", \"cold_messages\": " + std::to_string(r.cold_messages);
  s += ", \"incremental_ms\": " + std::to_string(r.inc_ms);
  s += ", \"fresh_messages\": " + std::to_string(r.fresh_messages);
  s += ", \"replayed_messages\": " + std::to_string(r.replayed_messages);
  s += ", \"fresh_bytes\": " + std::to_string(r.fresh_bytes);
  s += ", \"replayed_bytes\": " + std::to_string(r.replayed_bytes);
  s += ", \"agents_dirty\": " + std::to_string(r.agents_dirty);
  s += ", \"bit_identical\": ";
  s += r.identical ? "true" : "false";
  s += "}";
  return s;
}

// ---------------------------------------------------------------------------
// Membership-churn rows: structural edits through the id-map fast path
// ---------------------------------------------------------------------------

struct ChurnResult {
  std::string generator;
  std::int32_t R = 0;
  std::int64_t agents = 0;
  std::int64_t edits = 0;
  double cold_ms = 0.0;
  double fast_ms = 0.0;     // mean per-edit id-map fast-path resolve
  double scratch_ms = 0.0;  // mean per-edit scratch solve_local (engine C)
  double speedup = 0.0;     // scratch_ms / fast_ms
  double agents_dirty = 0.0;
  double mapped_back = 0.0;  // original agents mapped back per edit
  bool identical = true;     // fast path == scratch, bitwise
};

// A single-membership structural edit: remove the FIRST entry of a random
// |Vi| = 2 constraint row and re-add it with a fresh coefficient.  The
// re-add appends at the row end, so the port order changes and the edit is
// genuinely structural.
InstanceDelta churn_edit(const MaxMinInstance& cur, Rng& rng) {
  const auto i = static_cast<ConstraintId>(
      rng.below(static_cast<std::uint64_t>(cur.num_constraints())));
  const AgentId v = cur.constraint_row(i)[0].agent;
  InstanceDelta delta;
  delta.remove_from_constraint(i, v);
  delta.add_to_constraint(i, v, rng.uniform(0.5, 2.0));
  return delta;
}

ChurnResult run_churn_workload(const std::string& name,
                               const MaxMinInstance& inst, std::int32_t R,
                               std::int32_t edits, std::uint64_t seed) {
  ChurnResult res;
  res.generator = name;
  res.R = R;
  res.agents = inst.num_agents();
  res.edits = edits;

  LocalParams params;
  params.R = R;

  Timer cold_timer;
  LocalResolver fast(inst, params);
  res.cold_ms = cold_timer.millis();

  MaxMinInstance cur = inst;
  Rng rng(seed);
  for (std::int32_t e = 0; e < edits; ++e) {
    const InstanceDelta delta = churn_edit(cur, rng);
    cur.apply(delta);

    Timer fast_timer;
    fast.resolve(delta);
    res.fast_ms += fast_timer.millis();
    LOCMM_CHECK_MSG(fast.last_resolve_was_delta(),
                    "membership edit fell off the id-map fast path on "
                        << name << " at R = " << R);
    res.agents_dirty +=
        static_cast<double>(fast.solver().last_update().agents_dirty);
    res.mapped_back += static_cast<double>(fast.last_mapped_back());

    Timer scratch_timer;
    const LocalSolution scratch = solve_local(cur, params);
    res.scratch_ms += scratch_timer.millis();

    const LocalSolution& sol = fast.solution();
    for (std::size_t i = 0; i < scratch.x.size(); ++i) {
      if (std::memcmp(&sol.x[i], &scratch.x[i], sizeof(double)) != 0) {
        res.identical = false;
        std::fprintf(stderr,
                     "MISMATCH churn %s R=%d edit=%d agent=%zu: %.17g vs "
                     "%.17g\n",
                     name.c_str(), R, e, i, sol.x[i], scratch.x[i]);
      }
    }
    if (std::memcmp(&sol.omega, &scratch.omega, sizeof(double)) != 0) {
      res.identical = false;
      std::fprintf(stderr, "MISMATCH churn %s R=%d edit=%d: omega\n",
                   name.c_str(), R, e);
    }
  }
  const double n = static_cast<double>(edits);
  res.fast_ms /= n;
  res.scratch_ms /= n;
  res.agents_dirty /= n;
  res.mapped_back /= n;
  res.speedup = res.fast_ms > 0.0 ? res.scratch_ms / res.fast_ms : 0.0;
  LOCMM_CHECK_MSG(res.identical,
                  "id-map fast path diverged from the scratch engine-C "
                  "solve on "
                      << name << " at R = " << R);
  return res;
}

std::string json_churn_row(const ChurnResult& r) {
  std::string s = "    {";
  s += "\"table\": \"E9c\"";
  s += ", \"generator\": \"" + r.generator + "\"";
  s += ", \"engine\": \"C\"";
  s += ", \"edit\": \"membership\"";
  s += ", \"R\": " + std::to_string(r.R);
  s += ", \"agents\": " + std::to_string(r.agents);
  s += ", \"edits\": " + std::to_string(r.edits);
  s += ", \"cold_ms\": " + std::to_string(r.cold_ms);
  s += ", \"incremental_ms\": " + std::to_string(r.fast_ms);
  s += ", \"scratch_ms\": " + std::to_string(r.scratch_ms);
  s += ", \"speedup\": " + std::to_string(r.speedup);
  s += ", \"agents_dirty\": " + std::to_string(r.agents_dirty);
  s += ", \"mapped_back\": " + std::to_string(r.mapped_back);
  s += ", \"bit_identical\": ";
  s += r.identical ? "true" : "false";
  s += "}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_dynamics.json";
  bool json_path_set = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: bench_dynamics [out.json] [--smoke]\n"
                   "unknown option: %s\n",
                   argv[i]);
      return 2;
    } else if (json_path_set) {
      std::fprintf(stderr,
                   "usage: bench_dynamics [out.json] [--smoke]\n"
                   "unexpected second output path: %s (already have %s)\n",
                   argv[i], json_path.c_str());
      return 2;
    } else {
      json_path = argv[i];
      json_path_set = true;
    }
  }

  // Workload sizes: full mode matches the ISSUE acceptance setup (>= 10k
  // agents at R = 4); smoke keeps CI to seconds.
  const std::int32_t wheel_layers = smoke ? 60 : 5000;  // 2 agents per layer
  const std::int32_t grid_cols = smoke ? 24 : 2500;     // 4 rows
  const std::int32_t circ_objectives = smoke ? 40 : 3334;
  const std::int32_t edits = smoke ? 3 : 5;

  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = wheel_layers, .width = 1, .twist = 0});
  const MaxMinInstance grid =
      special_grid_instance({.rows = 4, .cols = grid_cols}, 1);
  const MaxMinInstance circulant = circulant_special_instance(
      {.num_objectives = circ_objectives, .delta_k = 3, .stride = 7}, 1);

  struct Workload {
    const char* name;
    const MaxMinInstance* inst;
    std::int32_t top_R;
  };
  const std::vector<Workload> workloads = {
      {"cycle_wheel", &wheel, 4},
      {"paired_torus_grid", &grid, 4},
      {"regular_circulant", &circulant, 4},
  };

  Table table("E9: incremental vs scratch engine-C re-solve after "
              "single-coefficient edits (engine C, 1 thread)");
  table.columns({"generator", "R", "agents", "cold_ms", "inc_ms",
                 "scratch_ms", "speedup", "dirty", "t_cone", "eval_us",
                 "identical"});
  std::vector<RunResult> runs;
  for (const Workload& w : workloads) {
    for (std::int32_t R = 2; R <= w.top_R; ++R) {
      std::fprintf(stderr, "running %s R=%d (%d agents)...\n", w.name, R,
                   w.inst->num_agents());
      Timer row_timer;
      const RunResult r = run_workload(w.name, *w.inst, R, edits,
                                       1000 + static_cast<std::uint64_t>(R));
      std::fprintf(stderr, "  done in %.1f s: %.2f ms vs %.1f ms (%.0fx)\n",
                   row_timer.seconds(), r.inc_ms, r.scratch_ms, r.speedup);
      table.row({Table::cell(r.generator), Table::cell(r.R),
                 Table::cell(r.agents), Table::cell(r.cold_ms, 1),
                 Table::cell(r.inc_ms, 2), Table::cell(r.scratch_ms, 1),
                 Table::cell(r.speedup, 1), Table::cell(r.agents_dirty, 0),
                 Table::cell(r.t_recomputed, 0), Table::cell(r.eval_us, 0),
                 Table::cell(r.identical ? "yes" : "NO")});
      runs.push_back(r);
    }
  }
  table.note("every incremental solution is compared bit-for-bit with the "
             "scratch engine-C solve (the bench aborts on mismatch)");
  table.note("dirty = the radius-D(R) ball whose s, g and x are re-derived; "
             "t_cone = t values re-bisected (radius 4r+3)");
  table.print();

  // Distributed dynamic rows: the same single-coefficient edits carried by
  // SyncNetwork replay.  Each engine runs at TWO sizes; the fresh columns
  // must coincide while cold_messages doubles -- fresh traffic is
  // ball-sized, independent of n.  Even the smoke sizes must exceed the
  // replay ball's diameter (~37 layers at R = 3 for engine S), or the ball
  // wraps the whole wheel and the two sizes stop being comparable.
  const MaxMinInstance dist_small = layered_instance(
      {.delta_k = 2, .layers = smoke ? 60 : 2500, .width = 1, .twist = 0});
  const MaxMinInstance dist_large = layered_instance(
      {.delta_k = 2, .layers = smoke ? 120 : 5000, .width = 1, .twist = 0});
  Table dist_table(
      "E9b: distributed dynamic re-solves (engines M and S over SyncNetwork "
      "replay, wheel, 1 thread)");
  dist_table.columns({"engine", "R", "agents", "cold_ms", "cold_msgs",
                      "inc_ms", "fresh", "replayed", "fresh_B", "dirty",
                      "identical"});
  std::vector<DistRunResult> dist_runs;
  // Smoke stops at R = 3 (CI seconds); full mode carries the encoded-history
  // headline to R = 4 at 10k agents.
  const std::int32_t dist_top_R = smoke ? 3 : 4;
  for (const DynamicEngine engine :
       {DynamicEngine::kMessagePassing, DynamicEngine::kStreaming}) {
    for (std::int32_t R = 2; R <= dist_top_R; ++R) {
      for (const MaxMinInstance* inst : {&dist_small, &dist_large}) {
        std::fprintf(stderr, "running dist %s R=%d (%d agents)...\n",
                     engine == DynamicEngine::kMessagePassing ? "M" : "S", R,
                     inst->num_agents());
        const DistRunResult r = run_dist_workload(
            "cycle_wheel", *inst, R, engine, edits,
            2000 + static_cast<std::uint64_t>(R));
        dist_table.row(
            {Table::cell(r.engine), Table::cell(r.R), Table::cell(r.agents),
             Table::cell(r.cold_ms, 1), Table::cell(r.cold_messages),
             Table::cell(r.inc_ms, 2), Table::cell(r.fresh_messages, 0),
             Table::cell(r.replayed_messages, 0),
             Table::cell(r.fresh_bytes, 0), Table::cell(r.agents_dirty, 0),
             Table::cell(r.identical ? "yes" : "NO")});
        dist_runs.push_back(r);
      }
    }
  }
  dist_table.note("fresh = messages actually re-sent per edit (dirty ball "
                  "only); replayed = deliveries served from the recorded "
                  "history");
  dist_table.note("ISSUE target: fresh counts equal across the two sizes of "
                  "each (engine, R) pair -- ball-sized, independent of n");
  dist_table.print();
  for (std::size_t i = 0; i + 1 < dist_runs.size(); i += 2) {
    LOCMM_CHECK_MSG(
        dist_runs[i].fresh_messages == dist_runs[i + 1].fresh_messages,
        "fresh messages scaled with n: "
            << dist_runs[i].fresh_messages << " at "
            << dist_runs[i].agents << " agents vs "
            << dist_runs[i + 1].fresh_messages << " at "
            << dist_runs[i + 1].agents);
  }

  // Membership-churn rows: single-membership structural edits resolved
  // end to end through LocalResolver's id-map fast path against a scratch
  // solve_local (engine C).  TWO sizes per workload: the per-edit dirty
  // ball and the originals mapped back must not move while n grows -- the
  // structural edits and the finish are O(ball), independent of n.  The
  // torus pair is the edit_stream shape (R = 4, up to 100k agents).
  struct ChurnWorkload {
    const char* name;
    MaxMinInstance small, large;
    std::int32_t R;
  };
  std::vector<ChurnWorkload> churn_workloads;
  for (const std::int32_t R : {2, 3}) {
    churn_workloads.push_back(
        {"cycle_wheel",
         layered_instance({.delta_k = 2, .layers = smoke ? 60 : 2500,
                           .width = 1, .twist = 0}),
         layered_instance({.delta_k = 2, .layers = smoke ? 120 : 5000,
                           .width = 1, .twist = 0}),
         R});
  }
  churn_workloads.push_back(
      {"paired_torus_grid",
       special_grid_instance({.rows = 4, .cols = smoke ? 60 : 2500}, 1),
       special_grid_instance({.rows = 4, .cols = smoke ? 120 : 25000}, 1),
       4});
  Table churn_table(
      "E9c: membership churn -- LocalResolver id-map fast path vs scratch "
      "solve_local (engine C, 1 thread)");
  churn_table.columns({"generator", "R", "agents", "cold_ms", "fast_ms",
                       "scratch_ms", "speedup", "dirty", "mapped",
                       "identical"});
  std::vector<ChurnResult> churn_runs;
  for (const ChurnWorkload& w : churn_workloads) {
    for (const MaxMinInstance* inst : {&w.small, &w.large}) {
      std::fprintf(stderr, "running churn %s R=%d (%d agents)...\n", w.name,
                   w.R, inst->num_agents());
      const ChurnResult r =
          run_churn_workload(w.name, *inst, w.R, edits,
                             3000 + static_cast<std::uint64_t>(w.R));
      churn_table.row({Table::cell(r.generator), Table::cell(r.R),
                       Table::cell(r.agents), Table::cell(r.cold_ms, 1),
                       Table::cell(r.fast_ms, 3), Table::cell(r.scratch_ms, 1),
                       Table::cell(r.speedup, 1),
                       Table::cell(r.agents_dirty, 0),
                       Table::cell(r.mapped_back, 0),
                       Table::cell(r.identical ? "yes" : "NO")});
      churn_runs.push_back(r);
    }
  }
  churn_table.note("fast = resolve through PipelineIdMap::map_delta (no "
                   "pipeline re-run, O(ball) splice, map-back and omega); "
                   "scratch = pipeline + engine C + map-back");
  churn_table.note("dirty-ball size and originals mapped back must be equal "
                   "across the two sizes of each row pair");
  churn_table.print();
  for (std::size_t i = 0; i + 1 < churn_runs.size(); i += 2) {
    LOCMM_CHECK_MSG(
        churn_runs[i].agents_dirty == churn_runs[i + 1].agents_dirty &&
            churn_runs[i].mapped_back == churn_runs[i + 1].mapped_back,
        "per-edit work scaled with n: "
            << churn_runs[i].agents_dirty << " dirty / "
            << churn_runs[i].mapped_back << " mapped at "
            << churn_runs[i].agents << " agents vs "
            << churn_runs[i + 1].agents_dirty << " / "
            << churn_runs[i + 1].mapped_back << " at "
            << churn_runs[i + 1].agents);
    if (!smoke) {
      LOCMM_CHECK_MSG(churn_runs[i + 1].speedup >= 10.0,
                      "membership-edit speedup "
                          << churn_runs[i + 1].speedup << " < 10 at "
                          << churn_runs[i + 1].agents << " agents, R = "
                          << churn_runs[i + 1].R);
    }
  }

  std::string json = "{\n  \"bench\": \"dynamics\",\n  \"mode\": \"";
  json += smoke ? "smoke" : "full";
  json += "\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json += json_row(runs[i]);
    json += ",\n";
  }
  for (std::size_t i = 0; i < dist_runs.size(); ++i) {
    json += json_dist_row(dist_runs[i]);
    json += ",\n";
  }
  for (std::size_t i = 0; i < churn_runs.size(); ++i) {
    json += json_churn_row(churn_runs[i]);
    json += i + 1 < churn_runs.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  LOCMM_CHECK_MSG(f != nullptr, "cannot write " << json_path);
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
