// Tests for engine L: the per-agent local-view evaluation must reproduce
// engine C exactly (position-independence of t/s/g), and the view radius
// must be exactly sufficient (CHECK-guarded frontier).
#include <gtest/gtest.h>

#include <cstring>

#include "core/local_solver.hpp"
#include "core/solver_api.hpp"
#include "core/view_solver.hpp"
#include "gen/generators.hpp"
#include "transform/transform.hpp"

namespace locmm {
namespace {

void expect_engines_agree(const MaxMinInstance& special, std::int32_t R) {
  const SpecialFormInstance sf(special);
  const SpecialRunResult c = solve_special_centralized(sf, R);
  const std::vector<double> l = solve_special_local_views(special, R);
  ASSERT_EQ(c.x.size(), l.size());
  for (std::size_t v = 0; v < l.size(); ++v) {
    EXPECT_EQ(std::memcmp(&c.x[v], &l[v], sizeof(double)), 0)
        << "agent " << v << " R=" << R << ": " << c.x[v] << " vs " << l[v];
  }
}

TEST(ViewRadius, Formula) {
  EXPECT_EQ(view_radius(2), 5);    // r = 0
  EXPECT_EQ(view_radius(3), 17);   // r = 1
  EXPECT_EQ(view_radius(4), 29);   // r = 2
}

TEST(ViewSolver, PairInstance) {
  InstanceBuilder b(2);
  b.add_constraint({{0, 1.0}, {1, 1.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  const MaxMinInstance inst = b.build();
  expect_engines_agree(inst, 2);
  expect_engines_agree(inst, 3);
  expect_engines_agree(inst, 4);
}

TEST(ViewSolver, RandomSpecialSmallR2) {
  RandomSpecialParams p;
  p.num_agents = 14;
  p.delta_k = 3;
  for (std::uint64_t seed : {1, 2, 3, 4, 5}) {
    expect_engines_agree(random_special_form(p, seed), 2);
  }
}

TEST(ViewSolver, RandomSpecialSmallR3) {
  RandomSpecialParams p;
  p.num_agents = 10;
  p.delta_k = 2;
  p.extra_constraints = 0.3;
  for (std::uint64_t seed : {7, 8}) {
    expect_engines_agree(random_special_form(p, seed), 3);
  }
}

TEST(ViewSolver, LayeredWheel) {
  // Width-1, delta_k = 2 wheels are 4L-cycles: views stay linear in D.
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = 6, .width = 1, .twist = 0});
  expect_engines_agree(inst, 2);
  expect_engines_agree(inst, 3);
  expect_engines_agree(inst, 4);
}

TEST(ViewSolver, LayeredWiderWheel) {
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 3, .layers = 4, .width = 2, .twist = 1});
  expect_engines_agree(inst, 2);
}

TEST(ViewSolver, SymmetricAgentsGetEqualValues) {
  // On a unit-coefficient special-form cycle every agent's view is
  // isomorphic, so a port-numbering algorithm must output equal values.
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = 5, .width = 1, .twist = 0});
  const std::vector<double> x = solve_special_local_views(inst, 3);
  for (std::size_t v = 1; v < x.size(); ++v) EXPECT_NEAR(x[0], x[v], 1e-12);
}

TEST(ViewSolver, UndersizedViewFailsLoudly) {
  // view_radius() is a worst-case bound, so a view one hop short can still
  // suffice on favourable instances; a view at half the radius cannot --
  // the smoothing BFS alone needs t values whose recursions overrun it.
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = 6, .width = 1, .twist = 0});
  const CommGraph g(inst);
  const ViewTree view =
      ViewTree::build(g, g.agent_node(0), view_radius(3) / 2);
  EXPECT_THROW(solve_agent_from_view(view, 3), CheckError);
}

// Engine L must give the same bits at 1, 4 and all hardware threads.
void expect_thread_count_invariant(const MaxMinInstance& inst,
                                   std::int32_t R) {
  const std::vector<double> serial = solve_special_local_views(inst, R, {}, 1);
  for (const std::size_t threads : {4, 0}) {
    const std::vector<double> threaded =
        solve_special_local_views(inst, R, {}, threads);
    ASSERT_EQ(threaded.size(), serial.size());
    for (std::size_t v = 0; v < serial.size(); ++v) {
      EXPECT_EQ(std::memcmp(&serial[v], &threaded[v], sizeof(double)), 0)
          << "threads " << threads << " agent " << v;
    }
  }
}

TEST(ViewSolver, ThreadedMatchesSerial) {
  // Where every agent's view differs (random special form) and where agents
  // share views (the wheel).
  RandomSpecialParams p;
  p.num_agents = 12;
  expect_thread_count_invariant(random_special_form(p, 9), 2);
  expect_thread_count_invariant(
      layered_instance({.delta_k = 2, .layers = 16, .width = 1, .twist = 0}),
      2);
}

TEST(ViewCache, ThreadCountDoesNotChangeResults) {
  // The randomized torus, where agents' views repeat only in structure and
  // not in coefficients.  (The suite name is that of the deleted view-class
  // cache, whose shared-cache half of this test went with it.)
  expect_thread_count_invariant(
      special_grid_instance(
          {.rows = 6, .cols = 5, .coeff_lo = 0.5, .coeff_hi = 2.0}, 17),
      2);
}

TEST(ViewSolver, SolvesPastTheViewNodeBudget) {
  // Radius-17 views of this instance's 46 special agents run past
  // ViewTree's 64M-node budget.  Engine L reads the neighbourhoods off the
  // graph instead, so it must solve it, bitwise equal to engine C.
  const MaxMinInstance inst = random_general({.num_agents = 16}, 2);
  LocalParams params;
  params.R = 3;
  const LocalSolution c = solve_local(inst, params);
  params.engine = LocalEngine::kLocalViews;
  const LocalSolution l = solve_local(inst, params);
  ASSERT_EQ(l.x_special.size(), 46u);
  ASSERT_EQ(l.x_special.size(), c.x_special.size());
  for (std::size_t v = 0; v < l.x_special.size(); ++v) {
    EXPECT_EQ(std::memcmp(&l.x_special[v], &c.x_special[v], sizeof(double)),
              0)
        << "special agent " << v;
  }
  ASSERT_EQ(l.x.size(), c.x.size());
  for (std::size_t v = 0; v < l.x.size(); ++v) {
    EXPECT_EQ(std::memcmp(&l.x[v], &c.x[v], sizeof(double)), 0)
        << "agent " << v;
  }
}

}  // namespace
}  // namespace locmm
