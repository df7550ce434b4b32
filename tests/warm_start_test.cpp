// Tests for the fat-view regime of the incremental engine: randomized edit
// scripts on the fat-view generators (paired torus and circulant at
// R = 3 and 4, coefficient and structural edits) where every apply()
// re-bisects only the edit's t cone and re-derives s, g± and x on the
// radius-D(R) ball -- and the kept tables must stay BIT-identical to a
// scratch engine-C solve after every step.  Warm-starting from the kept t
// table is pure acceleration: t is position-independent (PAPER §5,
// Example 2) and the bisection deterministic, so every t outside the cone
// already holds the exact bits a re-bisection would produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "lp/delta.hpp"
#include "scratch_oracle.hpp"
#include "support/prng.hpp"

namespace locmm {
namespace {

using testing::expect_tables_match_scratch;

// One random special-form-preserving delta: a coefficient bump, or (with
// probability ~1/3) the always-legal structural refresh (remove-then-re-add
// of one constraint membership with a new coefficient), which exercises the
// structural pre+post cone floods.
InstanceDelta random_delta(const SpecialFormInstance& sf, Rng& rng,
                           bool allow_structural) {
  const MaxMinInstance& inst = sf.instance();
  InstanceDelta delta;
  if (allow_structural && rng.below(3) == 0) {
    const auto i = static_cast<ConstraintId>(
        rng.below(static_cast<std::uint64_t>(inst.num_constraints())));
    const AgentId v = inst.constraint_row(i)[rng.below(2)].agent;
    delta.remove_from_constraint(i, v);
    delta.add_to_constraint(i, v, rng.uniform(0.5, 2.0));
    return delta;
  }
  const auto v = static_cast<AgentId>(
      rng.below(static_cast<std::uint64_t>(inst.num_agents())));
  const auto arcs = sf.arcs(v);
  const auto& arc = arcs[rng.below(arcs.size())];
  delta.set_constraint_coeff(arc.id, v, rng.uniform(0.25, 4.0));
  return delta;
}

// The headline harness: incremental tables vs scratch engine C, bitwise,
// after the cold solve and after every step.  Returns the largest ball an
// edit rewrote.
std::int64_t run_fat_view_script(const MaxMinInstance& special,
                                 std::int32_t R, std::uint64_t seed, int steps,
                                 bool allow_structural) {
  Rng rng(seed);
  IncrementalSolver::Options opt;
  opt.R = R;
  IncrementalSolver inc(special, opt);
  MaxMinInstance cur = special;
  expect_tables_match_scratch(inc, cur, "cold");

  std::int64_t largest_ball = 0;
  for (int step = 0; step < steps; ++step) {
    const InstanceDelta delta =
        random_delta(inc.special(), rng, allow_structural);
    inc.apply(delta);
    cur.apply(delta);
    expect_tables_match_scratch(inc, cur, "step " + std::to_string(step));

    const auto& u = inc.last_update();
    EXPECT_GT(u.cone_t_recomputed, 0);
    EXPECT_EQ(u.warm_t_reused + u.cone_t_recomputed, u.agents_dirty);
    EXPECT_EQ(u.evals, u.agents_dirty);
    EXPECT_EQ(u.class_cache_hits, 0);
    EXPECT_EQ(u.refine_us, 0.0);
    largest_ball = std::max(largest_ball, u.agents_dirty);
  }
  return largest_ball;
}

TEST(WarmStart, PairedTorusScriptsBitIdentical) {
  const MaxMinInstance grid =
      special_grid_instance({.rows = 4, .cols = 24}, 2);
  run_fat_view_script(grid, 3, 1301, 5, /*allow_structural=*/true);
  const MaxMinInstance wide =
      special_grid_instance({.rows = 4, .cols = 40}, 2);
  EXPECT_LT(run_fat_view_script(wide, 4, 1302, 3, /*allow_structural=*/true),
            wide.num_agents())
      << "the ball must stay local";
}

TEST(WarmStart, CirculantScriptsBitIdentical) {
  const MaxMinInstance circ = circulant_special_instance(
      {.num_objectives = 24, .delta_k = 3, .stride = 7}, 1);
  run_fat_view_script(circ, 3, 1402, 5, /*allow_structural=*/true);
  const MaxMinInstance wide = circulant_special_instance(
      {.num_objectives = 400, .delta_k = 3, .stride = 7}, 1);
  EXPECT_LT(run_fat_view_script(wide, 4, 1403, 3, /*allow_structural=*/true),
            wide.num_agents())
      << "the ball must stay local";
}

// Long fat-view scripts at R = 4 (D = 29, t-cone radius 11), behind the
// `slow` ctest label.
TEST(WarmStartSlow, DISABLED_LongFatViewScripts) {
  const MaxMinInstance grid =
      special_grid_instance({.rows = 4, .cols = 48}, 2);
  run_fat_view_script(grid, 4, 2301, 40, /*allow_structural=*/true);
  const MaxMinInstance circ = circulant_special_instance(
      {.num_objectives = 64, .delta_k = 3, .stride = 7}, 1);
  run_fat_view_script(circ, 4, 2402, 40, /*allow_structural=*/true);
}

// ---------------------------------------------------------------------------
// The t cone on structural deltas
// ---------------------------------------------------------------------------

TEST(WarmStart, StructuralDeltaInvalidatesTheCone) {
  const MaxMinInstance grid =
      special_grid_instance({.rows = 4, .cols = 32}, 3);
  IncrementalSolver::Options opt;
  opt.R = 3;

  // The same spot edited twice: once by a coefficient bump (one flood, on
  // the unchanged topology), once by a membership refresh (structural:
  // flooded on the pre- AND post-edit graphs).
  IncrementalSolver coeff(grid, opt);
  const ConstraintId i0 = coeff.special().arcs(5)[0].id;
  InstanceDelta bump;
  bump.set_constraint_coeff(i0, 5, 1.375);
  coeff.apply(bump);

  IncrementalSolver inc(grid, opt);
  InstanceDelta delta;
  delta.remove_from_constraint(i0, 5);
  delta.add_to_constraint(i0, 5, 1.375);
  inc.apply(delta);

  const auto& u = inc.last_update();
  EXPECT_GE(u.cone_t_recomputed, coeff.last_update().cone_t_recomputed)
      << "the structural cone covers both graphs";
  EXPECT_LT(u.cone_t_recomputed, grid.num_agents())
      << "the 4r+3 cone must stay local on a torus this long";

  // Bitwise against scratch, the whole point.
  MaxMinInstance cur = grid;
  cur.apply(delta);
  expect_tables_match_scratch(inc, cur, "structural");
  MaxMinInstance bumped = grid;
  bumped.apply(bump);
  expect_tables_match_scratch(coeff, bumped, "coefficient");
}

// ---------------------------------------------------------------------------
// Counters: TSearchStats plumbing
// ---------------------------------------------------------------------------

TEST(WarmStart, CountersFlowIntoTSearchStats) {
  const MaxMinInstance grid =
      special_grid_instance({.rows = 4, .cols = 24}, 2);
  TSearchStats stats;
  IncrementalSolver::Options opt;
  opt.R = 3;
  opt.t_search.stats = &stats;
  IncrementalSolver inc(grid, opt);

  stats.reset();
  Rng rng(99);
  std::int64_t dirty = 0, reused = 0, recomputed = 0;
  for (int step = 0; step < 3; ++step) {
    inc.apply(random_delta(inc.special(), rng, /*allow_structural=*/true));
    dirty += inc.last_update().agents_dirty;
    reused += inc.last_update().agents_reused;
    recomputed += inc.last_update().cone_t_recomputed;
  }
  EXPECT_EQ(stats.agents_dirty.load(), dirty);
  EXPECT_EQ(stats.agents_reused.load(), reused);
  EXPECT_EQ(stats.t_searches.load(), recomputed)
      << "one bisection per cone agent, none elsewhere";
  EXPECT_EQ(stats.g_evals.load(), 2 * dirty * (opt.R - 1));
  EXPECT_GT(recomputed, 0);
}

}  // namespace
}  // namespace locmm
