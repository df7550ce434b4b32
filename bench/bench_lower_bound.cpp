// E5 -- tightness probe: how close does the algorithm get to the
// inapproximability threshold delta_I (1 - 1/delta_K)?
//
// Two probes (the paper's exact lower-bound instances of [7] are not
// reproduced in this paper's text, so these stand in for them):
//   (a) the layered wheel: up/down role structure closed into a cycle; the
//       shifting strategy's loss appears as a function of R;
//   (b) adversarial random search: worst measured ratio over many random
//       instances per (delta_I, delta_K) -- an empirical floor showing how
//       much of the guarantee is real on non-pathological inputs.
//
// Expected shape (Theorem 1): no measured ratio exceeds the bound
// delta_I (1-1/delta_K)(1+1/(R-1)); wheel ratios decrease in R.
#include "core/local_solver.hpp"

#include "bench_util.hpp"

using namespace locmm;

int main() {
  {
    Table table("E5a: layered wheel (special form, delta_I = 2)");
    table.columns({"dK", "layers", "R", "omega*", "omega_local", "ratio",
                   "threshold", "bound"});
    for (std::int32_t dk : {2, 3, 4}) {
      for (std::int32_t layers : {6, 12}) {
        const MaxMinInstance inst = layered_instance(
            {.delta_k = dk, .layers = layers, .width = 3, .twist = 1});
        const double omega_star = bench::certified_optimum(inst);
        for (std::int32_t R : {2, 3, 4, 6}) {
          const SpecialFormInstance sf(inst);
          const SpecialRunResult run = solve_special_centralized(sf, R);
          const double omega = inst.utility(run.x);
          table.row(
              {Table::cell(dk), Table::cell(layers), Table::cell(R),
               Table::cell(omega_star, 4), Table::cell(omega, 4),
               Table::cell(bench::ratio_of(omega_star, omega), 4),
               Table::cell(2.0 * (1.0 - 1.0 / dk), 4),
               Table::cell(special_form_guarantee(dk, R), 4)});
        }
      }
    }
    table.note("threshold = delta_I (1-1/delta_K) with delta_I = 2: no local "
               "algorithm can guarantee below it (paper Thm 1)");
    table.print();
  }
  {
    Table table("E5b: adversarial search, worst ratio over 64 seeds (R=4)");
    table.columns({"dI", "dK", "worst_ratio", "threshold", "bound",
                   "within_bound"});
    for (std::int32_t di : {2, 3, 4}) {
      for (std::int32_t dk : {2, 3, 4}) {
        double worst = 1.0;
        bool within = true;
        for (std::uint64_t seed = 0; seed < 64; ++seed) {
          RandomGeneralParams p;
          p.num_agents = 24;
          p.delta_i = di;
          p.delta_k = dk;
          p.unit_coefficients = (seed % 2 == 0);  // include {0,1} instances
          const MaxMinInstance inst =
              random_general(p, 90000 + 1000 * di + 100 * dk + seed);
          const double omega_star = bench::certified_optimum(inst);
          const LocalSolution sol = solve_local(inst, {.R = 4});
          const double r = bench::ratio_of(omega_star, sol.omega);
          worst = std::max(worst, r);
          if (r > sol.guarantee + 1e-7) within = false;
        }
        table.row({Table::cell(di), Table::cell(dk), Table::cell(worst, 4),
                   Table::cell(di * (1.0 - 1.0 / dk), 4),
                   Table::cell(theorem1_guarantee(di, dk, 4), 4),
                   Table::cell(within ? "yes" : "NO")});
      }
    }
    table.note("worst_ratio <= bound everywhere; gap to threshold reflects "
               "that random instances are not worst-case");
    table.print();
  }
  {
    // Fully regular instances (configuration model): every agent locally
    // indistinguishable up to port numbering -- the regime of the paper's
    // lower-bound construction.
    Table table("E5c: regular special-form instances, worst ratio over 32 "
                "seeds");
    table.columns({"dK", "|Iv|", "R", "worst_ratio", "threshold_dI2",
                   "bound"});
    for (std::int32_t dk : {2, 3, 4}) {
      for (std::int32_t cpa : {2, 3}) {
        for (std::int32_t R : {2, 4}) {
          double worst = 1.0;
          for (std::uint64_t seed = 0; seed < 32; ++seed) {
            RegularSpecialParams p;
            p.num_objectives = 12;
            p.delta_k = dk;
            p.constraints_per_agent = cpa;
            // Unit coefficients make the uniform solution optimal and the
            // ratio exactly 1 (symmetry); randomise half the seeds to probe
            // regular topology with heterogeneous loads.
            p.coeff_lo = (seed % 2 == 0) ? 1.0 : 0.5;
            p.coeff_hi = (seed % 2 == 0) ? 1.0 : 2.0;
            const MaxMinInstance inst = regular_special_instance(
                p, 70000 + 100 * dk + 10 * cpa + seed);
            const double omega_star = bench::certified_optimum(inst);
            const SpecialFormInstance sf(inst);
            const double omega =
                inst.utility(solve_special_centralized(sf, R).x);
            worst = std::max(worst, bench::ratio_of(omega_star, omega));
          }
          table.row({Table::cell(dk), Table::cell(cpa), Table::cell(R),
                     Table::cell(worst, 4),
                     Table::cell(2.0 * (1.0 - 1.0 / dk), 4),
                     Table::cell(special_form_guarantee(dk, R), 4)});
        }
      }
    }
    table.note("special form has delta_I = 2: the relevant threshold is "
               "2 (1 - 1/delta_K)");
    table.print();
  }
  return 0;
}
