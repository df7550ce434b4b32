// E11 -- the memoized DP view engine vs the naive recursive oracle.
//
// Three measurements, printed as tables and written to BENCH_dp_engine.json
// (path overridable via argv[1]) so future PRs can track the trajectory:
//
//   (a) speedup: per-agent evaluation time of engine L under both
//       implementations on a 3-regular configuration-model instance
//       (delta_K = 3, two degree-2 constraints per agent), R in {2, 3, 4}.
//       View construction is timed separately -- both engines read the same
//       gathered view, the engines differ in evaluation only.  Target of
//       the ISSUE: >= 50x at R = 4.
//   (b) scaling in n: full-instance DP solves on growing wheels at fixed R;
//       us/agent should be near-constant (linear total).
//   (c) scaling in r: f-state evaluations per agent for both engines --
//       the naive curve grows exponentially in r (it re-expands the
//       recursion over the Delta^D view copies); each DP t search evaluates
//       its O(distinct origins * r) cone twice, then only the live states
//       of each probe.
#include <cstdio>
#include <string>
#include <vector>

#include "core/view_solver.hpp"
#include "graph/comm_graph.hpp"
#include "graph/view_tree.hpp"

#include "bench_util.hpp"

using namespace locmm;

namespace {

struct EngineRun {
  double build_ms_per_agent = 0.0;
  double eval_ms_per_agent = 0.0;
  std::int64_t f_evals = 0;
  std::int64_t view_nodes = 0;
};

// Evaluates agents [0, agents) of `inst` with the given engine; view
// construction and evaluation are timed separately.
EngineRun run_engine(const MaxMinInstance& inst, std::int32_t R,
                     ViewEngine engine, std::int32_t agents) {
  const CommGraph g(inst);
  const std::int32_t D = view_radius(R);
  TSearchStats stats;
  TSearchOptions opt;
  opt.engine = engine;
  opt.stats = &stats;
  ViewEvalScratch scratch;
  ViewTree view;
  EngineRun run;
  for (std::int32_t v = 0; v < agents; ++v) {
    Timer build_timer;
    ViewTree::build_into(g, g.agent_node(v), D, view);
    run.build_ms_per_agent += build_timer.millis();
    Timer eval_timer;
    solve_agent_from_view(view, R, opt, &scratch);
    run.eval_ms_per_agent += eval_timer.millis();
  }
  run.build_ms_per_agent /= static_cast<double>(agents);
  run.eval_ms_per_agent /= static_cast<double>(agents);
  run.f_evals = stats.f_evals.load() / agents;
  run.view_nodes = stats.view_nodes.load() / agents;
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_dp_engine.json";
  std::string json = "{\n  \"bench\": \"dp_engine\",\n";

  const MaxMinInstance regular = regular_special_instance(
      {.num_objectives = 6, .delta_k = 3, .constraints_per_agent = 2,
       .coeff_lo = 0.5, .coeff_hi = 2.0},
      1);

  {
    Table table("E11a: DP vs naive per-agent eval time (3-regular, 18 agents)");
    table.columns({"R", "view_nodes", "build_ms", "naive_ms", "dp_ms",
                   "speedup", "naive_f_evals", "dp_f_evals"});
    json += "  \"speedup\": [\n";
    for (std::int32_t R : {2, 3, 4}) {
      // The naive engine's cost explodes with R; measure it on fewer agents
      // as R grows so the bench stays runnable, the DP engine on more.
      const std::int32_t naive_agents = R <= 2 ? 18 : (R == 3 ? 6 : 2);
      const std::int32_t dp_agents = R <= 3 ? 18 : 6;
      const EngineRun naive =
          run_engine(regular, R, ViewEngine::kNaive, naive_agents);
      const EngineRun dp =
          run_engine(regular, R, ViewEngine::kMemoizedDp, dp_agents);
      const double speedup = naive.eval_ms_per_agent / dp.eval_ms_per_agent;
      table.row({Table::cell(R), Table::cell(dp.view_nodes),
                 Table::cell(dp.build_ms_per_agent, 2),
                 Table::cell(naive.eval_ms_per_agent, 3),
                 Table::cell(dp.eval_ms_per_agent, 3),
                 Table::cell(speedup, 1), Table::cell(naive.f_evals),
                 Table::cell(dp.f_evals)});
      json += "    {\"R\": " + std::to_string(R) +
              ", \"view_nodes\": " + std::to_string(dp.view_nodes) +
              ", \"build_ms_per_agent\": " +
              std::to_string(dp.build_ms_per_agent) +
              ", \"naive_eval_ms_per_agent\": " +
              std::to_string(naive.eval_ms_per_agent) +
              ", \"dp_eval_ms_per_agent\": " +
              std::to_string(dp.eval_ms_per_agent) +
              ", \"speedup\": " + std::to_string(speedup) +
              ", \"naive_f_evals\": " + std::to_string(naive.f_evals) +
              ", \"dp_f_evals\": " + std::to_string(dp.f_evals) + "}";
      json += R < 4 ? ",\n" : "\n";
    }
    json += "  ],\n";
    table.note("ISSUE target: speedup >= 50 at R = 4");
    table.print();
  }

  {
    Table table("E11b: DP full-instance scaling in n (wheel, R = 4)");
    table.columns({"agents", "ms_total", "us_per_agent"});
    json += "  \"scaling_n\": [\n";
    const std::vector<std::int32_t> layer_counts{16, 32, 64, 128};
    for (std::size_t i = 0; i < layer_counts.size(); ++i) {
      const MaxMinInstance inst = layered_instance(
          {.delta_k = 2, .layers = layer_counts[i], .width = 1, .twist = 0});
      Timer timer;
      const std::vector<double> x = solve_special_local_views(inst, 4);
      const double ms = timer.millis();
      LOCMM_CHECK(static_cast<std::int32_t>(x.size()) == inst.num_agents());
      table.row({Table::cell(inst.num_agents()), Table::cell(ms, 1),
                 Table::cell(1000.0 * ms / inst.num_agents(), 2)});
      json += "    {\"agents\": " + std::to_string(inst.num_agents()) +
              ", \"ms_total\": " + std::to_string(ms) + "}";
      json += i + 1 < layer_counts.size() ? ",\n" : "\n";
    }
    json += "  ],\n";
    table.note("near-constant us/agent = linear scaling in instance size");
    table.print();
  }

  {
    Table table("E11c: f-state evaluations per agent vs r (3-regular)");
    table.columns({"r", "R", "view_nodes", "naive_f_evals", "dp_f_evals",
                   "ratio"});
    json += "  \"scaling_r\": [\n";
    for (std::int32_t R : {2, 3, 4}) {
      const std::int32_t naive_agents = R <= 2 ? 18 : (R == 3 ? 6 : 1);
      const EngineRun naive =
          run_engine(regular, R, ViewEngine::kNaive, naive_agents);
      const EngineRun dp =
          run_engine(regular, R, ViewEngine::kMemoizedDp, naive_agents);
      const double ratio = static_cast<double>(naive.f_evals) /
                           static_cast<double>(std::max<std::int64_t>(
                               1, dp.f_evals));
      table.row({Table::cell(R - 2), Table::cell(R),
                 Table::cell(dp.view_nodes), Table::cell(naive.f_evals),
                 Table::cell(dp.f_evals), Table::cell(ratio, 1)});
      json += "    {\"r\": " + std::to_string(R - 2) +
              ", \"naive_f_evals\": " + std::to_string(naive.f_evals) +
              ", \"dp_f_evals\": " + std::to_string(dp.f_evals) + "}";
      json += R < 4 ? ",\n" : "\n";
    }
    json += "  ]\n}\n";
    table.note(
        "naive grows exponentially in r; a DP t search evaluates its "
        "O(origins * r) cone twice, then only each probe's live states");
    table.print();
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  LOCMM_CHECK_MSG(f != nullptr, "cannot write " << json_path);
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
