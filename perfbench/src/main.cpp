// perfbench -- the locmm benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <spans.csv>]
//
// Runs one workload (cold_general, edit_stream, serve_mixed, dist_gather)
// and prints one JSON object {"correct", "attempted", "failed", "metrics"}
// with the metrics the workload measured: the end-to-end ones with
// --trace 0 (tracing off), the per-layer ones of a traced run with
// --trace 1.  perfbench/run.py checks the names against BENCHMARK.json,
// the one list of metrics, and fills in 0 for a layer a workload never
// calls.  Exit code 0 means a result was printed (correct or not);
// anything else means no result.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {

double peak_rss_mb(bool children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (children) {
    rusage kids{};
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kb += static_cast<double>(kids.ru_maxrss);
  }
  return kb / 1024.0;
}

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <cold_general|edit_stream|"
               "serve_mixed|dist_gather> --seed <n> --seconds <s> "
               "--trace <0|1> [--tiny] [--trace-out <spans.csv>]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--trace-out") {
        opt.trace_path = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);

  Outcome out;
  try {
    if (opt.workload == "cold_general") {
      out = run_cold_general(opt);
    } else if (opt.workload == "edit_stream") {
      out = run_edit_stream(opt);
    } else if (opt.workload == "serve_mixed") {
      out = run_serve_mixed(opt);
    } else if (opt.workload == "dist_gather") {
      out = run_dist_gather(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (out.attempted < 1) {
    std::fprintf(stderr, "perfbench: no operation attempted\n");
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
