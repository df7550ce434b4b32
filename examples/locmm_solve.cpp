// locmm_solve -- command-line solver for max-min LP instance files.
//
//   ./examples/locmm_solve <file.mmlp> [--R k] [--engine c|l] [--safe]
//                          [--exact] [--threads n] [--dump-x]
//
// Reads the plain-text format of lp/io.hpp (see README) and runs the
// requested solvers, printing utilities, ratios and diagnostics.  With no
// file argument, prints the format specification and a worked example.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/safe_baseline.hpp"
#include "core/solver_api.hpp"
#include "lp/io.hpp"
#include "lp/maxmin_solver.hpp"

using namespace locmm;

namespace {

void usage() {
  std::printf(
      "usage: locmm_solve <file.mmlp> [options]\n"
      "  --R k        shifting parameter (default 4; larger = better ratio,\n"
      "               wider local horizon)\n"
      "  --engine c|l engine: c = centralized simulation (default),\n"
      "               l = each agent on its own local view (same output)\n"
      "  --threads n  worker threads (0 = all cores; default 0)\n"
      "  --safe       also run the safe baseline (factor delta_I)\n"
      "  --exact      also compute the LP optimum (bundled simplex)\n"
      "  --dump-x     print the full solution vector\n"
      "\n"
      "file format (one row per line; '#' comments):\n"
      "  maxminlp 1\n"
      "  agents <n>\n"
      "  constraint <agent> <coeff> [<agent> <coeff> ...]   # sum <= 1\n"
      "  objective  <agent> <coeff> [<agent> <coeff> ...]   # sum >= omega\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  std::string path;
  LocalParams params;
  params.R = 4;
  params.threads = 0;
  bool run_safe = false, run_exact = false, dump_x = false;

  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    if (arg == "--R" && a + 1 < argc) {
      params.R = std::atoi(argv[++a]);
    } else if (arg == "--engine" && a + 1 < argc) {
      const std::string e = argv[++a];
      params.engine = (e == "l") ? LocalEngine::kLocalViews
                                 : LocalEngine::kCentralized;
    } else if (arg == "--threads" && a + 1 < argc) {
      params.threads = static_cast<std::size_t>(std::atoll(argv[++a]));
    } else if (arg == "--safe") {
      run_safe = true;
    } else if (arg == "--exact") {
      run_exact = true;
    } else if (arg == "--dump-x") {
      dump_x = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage();
      return 1;
    }
  }
  if (path.empty()) {
    usage();
    return 1;
  }

  try {
    const MaxMinInstance inst = load_instance(path);
    std::printf("instance: %s\n", describe(inst).c_str());

    const LocalSolution sol = solve_local(inst, params);
    std::printf("local (R=%d, engine %s): omega = %.8f  guarantee = %.4f  "
                "horizon D = %d\n",
                params.R,
                params.engine == LocalEngine::kCentralized ? "C" : "L",
                sol.omega, sol.guarantee, sol.view_radius);
    std::printf("  special form: %lld agents, %lld constraints "
                "(factor %.2f from §4.3)\n",
                static_cast<long long>(sol.special_stats.agents),
                static_cast<long long>(sol.special_stats.constraints),
                sol.ratio_factor);

    double omega_star = -1.0;
    if (run_exact) {
      const MaxMinLpResult opt = solve_lp_optimum(inst);
      if (opt.status != LpStatus::kOptimal) {
        std::printf("exact LP: %s\n", to_string(opt.status));
      } else {
        omega_star = opt.omega;
        const bool certified = check_certificate(inst, opt).ok();
        std::printf("exact LP: omega* = %.8f  (certified: %s)\n", omega_star,
                    certified ? "yes" : "NO");
        std::printf("  measured ratio: %.4f (guarantee %.4f)\n",
                    omega_star / sol.omega, sol.guarantee);
      }
    }
    if (run_safe) {
      const std::vector<double> safe = solve_safe(inst);
      const double omega_safe = inst.utility(safe);
      std::printf("safe baseline: omega = %.8f", omega_safe);
      if (omega_star > 0.0)
        std::printf("  (ratio %.4f)", omega_star / omega_safe);
      std::printf("\n");
    }
    if (dump_x) {
      std::printf("x =");
      for (double v : sol.x) std::printf(" %.8f", v);
      std::printf("\n");
    }
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  return 0;
}
