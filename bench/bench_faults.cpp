// E11 -- fault tolerance: recovery overhead of engines M and S under seeded
// fault injection (dist/fault.hpp).
//
// Sweeps the drop rate over {0, 0.01, 0.02, 0.05, 0.10} for each engine at
// R in {2, 3} on the wheel workload, plus a combined chaos row (drops +
// corruption + duplication + reordering + a mid-schedule crash that
// restarts) and a degradation row (a permanent crash with the same budget).
// Every recoverable row is checked BIT-for-bit against the fault-free run
// of the same engine -- the bench aborts on mismatch, so it doubles as a
// correctness probe at bench scale.  Reported overhead is wall-clock
// faulty+recovery time over the fault-free run, next to the recovery's own
// accounting (retransmitted / recovered messages, extra sub-rounds, the
// replayed repair traffic).
//
// Usage: bench_faults [BENCH_faults.json] [--smoke]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/view_solver.hpp"
#include "dist/fault.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "gen/generators.hpp"
#include "graph/comm_graph.hpp"
#include "support/timer.hpp"

#include "bench_util.hpp"

using namespace locmm;

namespace {

struct RunResult {
  std::string engine;    // "M" or "S"
  std::string scenario;  // "drop", "chaos_crash", "crash_permanent"
  std::int32_t R = 0;
  double drop_rate = 0.0;
  std::int64_t agents = 0;
  double clean_ms = 0.0;   // fault-free run of the same engine
  double faulty_ms = 0.0;  // faulty run + recovery replay + degradation
  double overhead = 0.0;   // faulty_ms / clean_ms
  std::int64_t dropped = 0;
  std::int64_t corrupted = 0;
  std::int64_t retransmitted = 0;
  std::int64_t recovered = 0;
  std::int32_t recovery_rounds = 0;
  std::int64_t replayed_repair = 0;  // recovery replay's fresh re-sends
  std::int64_t degraded = 0;
  bool identical = true;  // vs fault-free, over non-degraded agents
};

RunResult run_row(const MaxMinInstance& inst, bool streaming, std::int32_t R,
                  const FaultSpec& spec, const std::string& scenario) {
  RunResult res;
  res.engine = streaming ? "S" : "M";
  res.scenario = scenario;
  res.R = R;
  res.drop_rate = spec.drop_rate;
  res.agents = inst.num_agents();

  std::vector<double> clean_x;
  std::int64_t clean_messages = 0;
  {
    Timer t;
    if (streaming) {
      MessageRunResult clean = solve_special_streaming(inst, R);
      clean_x = std::move(clean.x);
      clean_messages = clean.stats.messages;
    } else {
      MessageRunResult clean = solve_special_message_passing(inst, R);
      clean_x = std::move(clean.x);
      clean_messages = clean.stats.messages;
    }
    res.clean_ms = t.millis();
  }

  const FaultPlan plan(spec);
  std::vector<double> x;
  std::vector<std::uint8_t> degraded;
  RunStats st;
  {
    Timer t;
    if (streaming) {
      MessageRunResult run =
          solve_special_streaming(inst, R, {}, 1, &plan);
      x = std::move(run.x);
      degraded = std::move(run.degraded);
      st = run.stats;
    } else {
      MessageRunResult run =
          solve_special_message_passing(inst, R, {}, 1, &plan);
      x = std::move(run.x);
      degraded = std::move(run.degraded);
      st = run.stats;
    }
    res.faulty_ms = t.millis();
  }
  res.overhead = res.clean_ms > 0.0 ? res.faulty_ms / res.clean_ms : 0.0;
  res.dropped = st.dropped_messages;
  res.corrupted = st.corrupted_messages;
  res.retransmitted = st.retransmitted_messages;
  res.recovered = st.recovered_messages;
  res.recovery_rounds = st.recovery_rounds;
  // Fresh traffic beyond one clean schedule = retransmits + what the
  // recovery replay re-sent to repair the frozen region's history.
  res.replayed_repair =
      st.fresh_messages - clean_messages - st.retransmitted_messages;
  for (const std::uint8_t f : degraded) res.degraded += f;

  for (std::size_t v = 0; v < x.size(); ++v) {
    if (!degraded.empty() && degraded[v] != 0) continue;  // fallback values
    res.identical &= std::memcmp(&x[v], &clean_x[v], sizeof(double)) == 0;
  }
  LOCMM_CHECK_MSG(res.identical,
                  "engine " << res.engine << " R=" << R << " " << scenario
                            << " diverged from the fault-free run on an "
                            << "un-degraded agent");
  LOCMM_CHECK_MSG(res.degraded == 0 || scenario == "crash_permanent",
                  "recoverable scenario degraded " << res.degraded
                                                   << " agents");
  return res;
}

std::string json_row(const RunResult& r) {
  std::string s = "    {";
  s += "\"engine\": \"" + r.engine + "\"";
  s += ", \"scenario\": \"" + r.scenario + "\"";
  s += ", \"R\": " + std::to_string(r.R);
  s += ", \"drop_rate\": " + std::to_string(r.drop_rate);
  s += ", \"agents\": " + std::to_string(r.agents);
  s += ", \"clean_ms\": " + std::to_string(r.clean_ms);
  s += ", \"faulty_ms\": " + std::to_string(r.faulty_ms);
  s += ", \"overhead\": " + std::to_string(r.overhead);
  s += ", \"dropped\": " + std::to_string(r.dropped);
  s += ", \"corrupted\": " + std::to_string(r.corrupted);
  s += ", \"retransmitted\": " + std::to_string(r.retransmitted);
  s += ", \"recovered\": " + std::to_string(r.recovered);
  s += ", \"recovery_rounds\": " + std::to_string(r.recovery_rounds);
  s += ", \"repair_messages\": " + std::to_string(r.replayed_repair);
  s += ", \"degraded_agents\": " + std::to_string(r.degraded);
  s += ", \"bit_identical\": ";
  s += r.identical ? "true" : "false";
  s += "}";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_faults.json";
  bool json_path_set = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: bench_faults [out.json] [--smoke]\n"
                   "unknown option: %s\n",
                   argv[i]);
      return 2;
    } else if (json_path_set) {
      std::fprintf(stderr,
                   "usage: bench_faults [out.json] [--smoke]\n"
                   "unexpected second output path: %s (already have %s)\n",
                   argv[i], json_path.c_str());
      return 2;
    } else {
      json_path = argv[i];
      json_path_set = true;
    }
  }

  const std::int32_t layers = smoke ? 60 : 600;
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = layers, .width = 1, .twist = 0});
  const CommGraph g(wheel);

  Table table("E11: fault-injection recovery overhead (wheel, engines M/S, "
              "1 thread; time vs the fault-free run)");
  table.columns({"engine", "R", "scenario", "drop", "clean_ms", "faulty_ms",
                 "overhead", "retx", "recovered", "rec_rounds", "repair",
                 "degraded", "identical"});
  std::vector<RunResult> runs;
  for (const bool streaming : {false, true}) {
    for (std::int32_t R = 2; R <= 3; ++R) {
      for (const double drop : {0.0, 0.01, 0.02, 0.05, 0.10}) {
        FaultSpec fs;
        fs.seed = 1100 + static_cast<std::uint64_t>(R);
        fs.drop_rate = drop;
        fs.max_retransmits = 16;
        runs.push_back(run_row(wheel, streaming, R, fs, "drop"));
      }
      {
        // Combined chaos with a restarting crash: the headline scenario of
        // the chaos tests, at bench scale.
        FaultSpec fs;
        fs.seed = 1200 + static_cast<std::uint64_t>(R);
        fs.drop_rate = 0.05;
        fs.corrupt_rate = 0.02;
        fs.duplicate_rate = 0.02;
        fs.reorder_rate = 0.05;
        fs.max_retransmits = 16;
        fs.crashes.push_back(
            {.node = g.num_nodes() / 3, .round = 2, .restart_round = 3});
        runs.push_back(run_row(wheel, streaming, R, fs, "chaos_crash"));
      }
      {
        // A permanent crash: bounded degradation instead of recovery.
        FaultSpec fs;
        fs.seed = 1300 + static_cast<std::uint64_t>(R);
        fs.max_retransmits = 16;
        fs.crashes.push_back(
            {.node = g.num_nodes() / 2, .round = 2, .restart_round = -1});
        runs.push_back(run_row(wheel, streaming, R, fs, "crash_permanent"));
      }
      for (std::size_t i = runs.size() - 7; i < runs.size(); ++i) {
        const RunResult& r = runs[i];
        table.row({Table::cell(r.engine), Table::cell(r.R),
                   Table::cell(r.scenario), Table::cell(r.drop_rate, 2),
                   Table::cell(r.clean_ms, 1), Table::cell(r.faulty_ms, 1),
                   Table::cell(r.overhead, 2), Table::cell(r.retransmitted),
                   Table::cell(r.recovered), Table::cell(r.recovery_rounds),
                   Table::cell(r.replayed_repair), Table::cell(r.degraded),
                   Table::cell(r.identical ? "yes" : "NO")});
      }
    }
  }
  table.note("every recoverable row is compared bit-for-bit against the "
             "fault-free run (the bench aborts on mismatch); degraded "
             "agents carry the engine-L fallback");
  table.note("repair = fresh messages the recovery replay re-sent beyond "
             "one clean schedule plus retransmits");
  table.print();

  std::string json = "{\n  \"bench\": \"faults\",\n  \"mode\": \"";
  json += smoke ? "smoke" : "full";
  json += "\",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json += json_row(runs[i]);
    json += i + 1 < runs.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  LOCMM_CHECK_MSG(f != nullptr, "cannot write " << json_path);
  std::fputs(json.c_str(), f);
  std::fclose(f);
  std::printf("wrote %s\n", json_path.c_str());
  return 0;
}
