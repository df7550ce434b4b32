// bench_util.hpp -- shared helpers for the experiment harness.
//
// Every bench binary regenerates one experiment (E1, E2, ...) as a
// fixed-width table (support/table.hpp).  Helpers here keep the measurement
// conventions uniform:
//   * ratios are always omega* / omega(x) with omega* certified by the dual
//     certificate (a bench aborts loudly if certification fails);
//   * aggregation over seeds reports mean and max (worst case).
#pragma once

#include <string>

#include "core/safe_baseline.hpp"
#include "core/solver_api.hpp"
#include "gen/generators.hpp"
#include "lp/maxmin_solver.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace locmm::bench {

// Certified LP optimum; throws if the simplex or its certificate fails.
inline double certified_optimum(const MaxMinInstance& inst) {
  const MaxMinLpResult res = solve_lp_optimum(inst);
  LOCMM_CHECK_MSG(res.status == LpStatus::kOptimal,
                  "ground-truth LP not optimal: " << to_string(res.status));
  const CertificateReport rep = check_certificate(inst, res);
  LOCMM_CHECK_MSG(rep.ok(1e-6), "LP certificate failed: gap=" << rep.gap);
  return res.omega;
}

// omega* / omega(x), with care around zero optima.
inline double ratio_of(double omega_star, double omega_x) {
  if (omega_star <= 1e-12) return 1.0;  // degenerate: everything is optimal
  LOCMM_CHECK_MSG(omega_x > 0.0, "algorithm returned zero utility against "
                                     << omega_star);
  return omega_star / omega_x;
}

}  // namespace locmm::bench
