// incremental_updates -- serving a drifting instance with the dynamic
// subsystem (paper §1.3): coefficients change one edit at a time, and each
// re-solve touches only the radius-D(R) dirty ball instead of the whole
// instance.
//
//   ./examples/incremental_updates [cols] [R] [edits]
//
// A paired-torus grid (2 x cols agents per row pair; natively in §5 special
// form) is solved once, cold.  Then a stream of single-coefficient edits --
// a link quality drifting up and down, as in the sensor deployments that
// motivated the earlier max-min LP work (arXiv:0710.1499) -- is applied
// through IncrementalSolver::apply, and every update is compared against
// what a from-scratch re-solve would have cost.  The outputs are
// bit-identical (the property tests assert it; here we spot-check), but the
// incremental path pays for the dirty ball only: it re-bisects the t values
// of the edit's radius-(4r+3) cone and re-derives s, g and x on the
// radius-D(R) ball, keeping engine C's tables everywhere else.
#include <cstdio>
#include <cstdlib>

#include "core/local_solver.hpp"
#include "core/view_solver.hpp"
#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "lp/delta.hpp"
#include "support/prng.hpp"
#include "support/timer.hpp"

using namespace locmm;

int main(int argc, char** argv) {
  std::int32_t cols = 500;
  std::int32_t R = 3;
  std::int32_t edits = 20;
  if (argc > 1) cols = std::atoi(argv[1]);
  if (argc > 2) R = std::atoi(argv[2]);
  if (argc > 3) edits = std::atoi(argv[3]);

  const MaxMinInstance grid =
      special_grid_instance({.rows = 4, .cols = cols}, 1);
  std::printf("paired torus: %d agents, R=%d (local horizon D=%d)\n",
              grid.num_agents(), R, view_radius(R));

  Timer cold_timer;
  IncrementalSolver::Options opt;
  opt.R = R;
  IncrementalSolver inc(grid, opt);
  std::printf("cold solve: %.1f ms\n\n", cold_timer.millis());

  // One from-scratch re-solve, for the comparison column.
  MaxMinInstance cur = grid;
  Timer scratch_timer;
  std::vector<double> scratch =
      solve_special_centralized(SpecialFormInstance(cur), R).x;
  const double scratch_ms = scratch_timer.millis();

  std::printf("%5s %10s %10s %8s %8s %8s\n", "edit", "inc_ms", "scratch_ms",
              "dirty", "reused", "t_cone");
  Rng rng(99);
  double total_inc = 0.0;
  for (std::int32_t e = 0; e < edits; ++e) {
    // Drift one random link: pick an agent, bump one of its constraints.
    const auto v = static_cast<AgentId>(
        rng.below(static_cast<std::uint64_t>(grid.num_agents())));
    const auto arcs = inc.special().arcs(v);
    const ConstraintArc arc = arcs[rng.below(arcs.size())];
    InstanceDelta delta;
    delta.set_constraint_coeff(arc.id, v, rng.uniform(0.5, 2.0));

    Timer inc_timer;
    inc.apply(delta);
    const double inc_ms = inc_timer.millis();
    total_inc += inc_ms;
    cur.apply(delta);

    const auto& u = inc.last_update();
    std::printf("%5d %10.3f %10.1f %8lld %8lld %8lld\n", e, inc_ms,
                scratch_ms, static_cast<long long>(u.agents_dirty),
                static_cast<long long>(u.agents_reused),
                static_cast<long long>(u.cone_t_recomputed));
  }

  // Spot-check the final state against a from-scratch solve.
  scratch = solve_special_centralized(SpecialFormInstance(cur), R).x;
  double max_diff = 0.0;
  for (std::size_t v = 0; v < scratch.size(); ++v) {
    const double d = inc.x()[v] - scratch[v];
    max_diff = d > max_diff ? d : (-d > max_diff ? -d : max_diff);
  }
  std::printf("\nafter %d edits: max |incremental - scratch| = %.3g "
              "(bit-identical expected)\n",
              edits, max_diff);
  std::printf("mean incremental update: %.2f ms vs %.1f ms from scratch "
              "(%.0fx)\n",
              total_inc / edits, scratch_ms,
              scratch_ms / (total_inc / edits));
  return 0;
}
