// Tests for the §4 transformations: per-step structural postconditions,
// optimum preservation (or the §4.3 accounting), back-map feasibility, and
// the composed pipeline contract.
#include <gtest/gtest.h>

#include <cstring>

#include "gen/generators.hpp"
#include "lp/maxmin_solver.hpp"
#include "transform/transform.hpp"

namespace locmm {
namespace {

double optimum(const MaxMinInstance& inst) {
  const MaxMinLpResult res = solve_lp_optimum(inst);
  EXPECT_EQ(res.status, LpStatus::kOptimal);
  EXPECT_TRUE(check_certificate(inst, res).ok());
  return res.omega;
}

MaxMinInstance with_singleton_constraint() {
  InstanceBuilder b(2);
  b.add_constraint({{0, 2.0}});            // singleton: x0 <= 1/2
  b.add_constraint({{0, 1.0}, {1, 1.0}});  // x0 + x1 <= 1
  b.add_objective({{0, 1.0}, {1, 1.0}});
  return b.build();
}

TEST(AugmentConstraints, MakesAllConstraintsDegreeTwoPlus) {
  const MaxMinInstance in = with_singleton_constraint();
  const TransformStep step = augment_singleton_constraints(in);
  for (ConstraintId i = 0; i < step.instance.num_constraints(); ++i)
    EXPECT_GE(step.instance.constraint_row(i).size(), 2u);
  // Gadget: 3 new agents, 1 new constraint, 2 new objectives.
  EXPECT_EQ(step.instance.num_agents(), in.num_agents() + 3);
  EXPECT_EQ(step.instance.num_constraints(), in.num_constraints() + 1);
  EXPECT_EQ(step.instance.num_objectives(), in.num_objectives() + 2);
  EXPECT_DOUBLE_EQ(step.ratio_factor, 1.0);
}

TEST(AugmentConstraints, PreservesOptimum) {
  const MaxMinInstance in = with_singleton_constraint();
  const TransformStep step = augment_singleton_constraints(in);
  EXPECT_NEAR(optimum(in), optimum(step.instance), 1e-8);
}

TEST(AugmentConstraints, BackMapRestrictsToOriginals) {
  const MaxMinInstance in = with_singleton_constraint();
  const TransformStep step = augment_singleton_constraints(in);
  const MaxMinLpResult res = solve_lp_optimum(step.instance);
  const std::vector<double> x = step.back(res.x);
  ASSERT_EQ(static_cast<std::int32_t>(x.size()), in.num_agents());
  EXPECT_TRUE(in.is_feasible(x, 1e-9));
  EXPECT_GE(in.utility(x), res.omega - 1e-9);
}

TEST(AugmentConstraints, NoOpWithoutSingletons) {
  const MaxMinInstance in = cycle_instance({.num_agents = 6}, 1);
  const TransformStep step = augment_singleton_constraints(in);
  EXPECT_EQ(step.instance.num_agents(), in.num_agents());
  EXPECT_EQ(step.instance.num_constraints(), in.num_constraints());
}

TEST(ReduceDegree, PairwiseRowsAndFactor) {
  InstanceBuilder b(4);
  b.add_constraint({{0, 1.0}, {1, 2.0}, {2, 3.0}, {3, 4.0}});
  b.add_constraint({{0, 1.0}, {1, 1.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  b.add_objective({{2, 1.0}, {3, 1.0}});
  const MaxMinInstance in = b.build();
  const TransformStep step = reduce_constraint_degree(in);
  // C(4,2) = 6 pairs + 1 untouched row.
  EXPECT_EQ(step.instance.num_constraints(), 7);
  for (ConstraintId i = 0; i < step.instance.num_constraints(); ++i)
    EXPECT_EQ(step.instance.constraint_row(i).size(), 2u);
  EXPECT_DOUBLE_EQ(step.ratio_factor, 2.0);  // delta_I / 2
}

TEST(ReduceDegree, TransformedOptimumAtLeastOriginal) {
  const MaxMinInstance in = random_general({.num_agents = 16, .delta_i = 4},
                                           31);
  const TransformStep pre = augment_singleton_constraints(in);
  const TransformStep step = reduce_constraint_degree(pre.instance);
  // The original optimum embeds feasibly (pairwise sums of a feasible row
  // are feasible), so the transformed optimum can only grow.
  EXPECT_GE(optimum(step.instance), optimum(pre.instance) - 1e-8);
}

TEST(ReduceDegree, BackMapFeasibleWithRatioAccounting) {
  const MaxMinInstance in = random_general({.num_agents = 14, .delta_i = 5},
                                           32);
  const TransformStep pre = augment_singleton_constraints(in);
  const TransformStep step = reduce_constraint_degree(pre.instance);
  const MaxMinLpResult res = solve_lp_optimum(step.instance);
  const std::vector<double> x = step.back(res.x);
  EXPECT_TRUE(pre.instance.is_feasible(x, 1e-9));
  // omega(x) >= (2 / delta_I) * omega'(x') = omega'(x') / ratio_factor.
  EXPECT_GE(pre.instance.utility(x),
            res.omega / step.ratio_factor - 1e-9);
}

TEST(SplitAgents, UniqueObjectivePerAgent) {
  const MaxMinInstance in = cycle_instance({.num_agents = 6}, 1);  // |Kv| = 2
  const TransformStep pre = reduce_constraint_degree(
      augment_singleton_constraints(in).instance);
  const TransformStep step = split_agents_per_objective(pre.instance);
  for (AgentId v = 0; v < step.instance.num_agents(); ++v)
    EXPECT_EQ(step.instance.agent_objectives(v).size(), 1u);
  // Every agent of the cycle doubles.
  EXPECT_EQ(step.instance.num_agents(), 12);
}

TEST(SplitAgents, PreservesOptimum) {
  const MaxMinInstance in = cycle_instance({.num_agents = 6}, 9);
  const TransformStep step = split_agents_per_objective(in);
  EXPECT_NEAR(optimum(in), optimum(step.instance), 1e-8);
}

TEST(SplitAgents, BackMapTakesMaxOverCopies) {
  const MaxMinInstance in = cycle_instance({.num_agents = 5}, 9);
  const TransformStep step = split_agents_per_objective(in);
  const MaxMinLpResult res = solve_lp_optimum(step.instance);
  const std::vector<double> x = step.back(res.x);
  EXPECT_TRUE(in.is_feasible(x, 1e-9));
  EXPECT_GE(in.utility(x), res.omega - 1e-9);
}

TEST(AugmentObjectives, SplitsSingletonAgents) {
  const MaxMinInstance in = path_instance(6);
  const TransformStep pre = split_agents_per_objective(
      reduce_constraint_degree(
          augment_singleton_constraints(in).instance).instance);
  const TransformStep step = augment_singleton_objectives(pre.instance);
  for (ObjectiveId k = 0; k < step.instance.num_objectives(); ++k)
    EXPECT_GE(step.instance.objective_row(k).size(), 2u);
  EXPECT_NEAR(optimum(pre.instance), optimum(step.instance), 1e-8);
}

TEST(AugmentObjectives, BackMapFeasible) {
  const MaxMinInstance in = path_instance(6);
  const TransformStep pre = split_agents_per_objective(
      reduce_constraint_degree(
          augment_singleton_constraints(in).instance).instance);
  const TransformStep step = augment_singleton_objectives(pre.instance);
  const MaxMinLpResult res = solve_lp_optimum(step.instance);
  const std::vector<double> x = step.back(res.x);
  EXPECT_TRUE(pre.instance.is_feasible(x, 1e-9));
  EXPECT_GE(pre.instance.utility(x), res.omega - 1e-9);
}

TEST(Normalize, UnitObjectiveCoefficients) {
  RandomSpecialParams p;
  p.num_agents = 12;
  MaxMinInstance in = random_special_form(p, 3);
  // Scale some objective coefficients away from 1 by rebuilding.
  InstanceBuilder b(in.num_agents());
  for (ConstraintId i = 0; i < in.num_constraints(); ++i) {
    auto row = in.constraint_row(i);
    b.add_constraint(std::vector<Entry>(row.begin(), row.end()));
  }
  for (ObjectiveId k = 0; k < in.num_objectives(); ++k) {
    std::vector<Entry> row;
    for (const Entry& e : in.objective_row(k))
      row.push_back({e.agent, 1.0 + 0.5 * (e.agent % 3)});
    b.add_objective(std::move(row));
  }
  const MaxMinInstance scaled = b.build();
  const TransformStep step = normalize_objective_coeffs(scaled);
  for (ObjectiveId k = 0; k < step.instance.num_objectives(); ++k)
    for (const Entry& e : step.instance.objective_row(k))
      EXPECT_DOUBLE_EQ(e.coeff, 1.0);
  EXPECT_NEAR(optimum(scaled), optimum(step.instance), 1e-8);
  const MaxMinLpResult res = solve_lp_optimum(step.instance);
  const std::vector<double> x = step.back(res.x);
  EXPECT_TRUE(scaled.is_feasible(x, 1e-9));
  EXPECT_NEAR(scaled.utility(x), res.omega, 1e-8);
}

class PipelineOnFamilies : public ::testing::TestWithParam<int> {};

MaxMinInstance family_instance(int which) {
  switch (which) {
    case 0: return random_general({.num_agents = 14, .delta_i = 3}, 51);
    case 1: return cycle_instance({.num_agents = 8}, 52);
    case 2: return path_instance(8);
    case 3: return sensor_instance({.num_sensors = 10, .num_sinks = 4}, 53);
    case 4: return bandwidth_instance({.num_routers = 8, .num_customers = 4},
                                      54);
    case 5: return tree_instance({.max_agents = 16}, 55);
    default: return grid_instance({.rows = 3, .cols = 3}, 56);
  }
}

TEST_P(PipelineOnFamilies, ProducesSpecialFormWithSoundBackMap) {
  const MaxMinInstance in = family_instance(GetParam());
  const Pipeline p = to_special_form(in);
  EXPECT_TRUE(is_special_form(p.special));
  const std::vector<TransformStep> steps = pipeline_steps(in);
  ASSERT_EQ(steps.size(), 5u);

  // ratio_factor = delta_I(after §4.2) / 2.
  const double d = static_cast<double>(
      std::max<std::int32_t>(2, steps[0].instance.stats().delta_i));
  EXPECT_DOUBLE_EQ(p.ratio_factor, d / 2.0);

  // Solve the special instance exactly and map back: feasibility plus the
  // pipeline's utility accounting omega(x) >= omega'(x') / ratio_factor.
  const MaxMinLpResult res = solve_lp_optimum(p.special);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  const std::vector<double> x = p.map_back(res.x);
  EXPECT_TRUE(in.is_feasible(x, 1e-8));

  // The id map's closed form is bitwise the step closures folded in
  // reverse.
  std::vector<double> folded = res.x;
  for (auto s = steps.rbegin(); s != steps.rend(); ++s) {
    folded = s->back(folded);
  }
  ASSERT_EQ(folded.size(), x.size());
  for (std::size_t v = 0; v < x.size(); ++v) {
    EXPECT_EQ(std::memcmp(&folded[v], &x[v], sizeof(double)), 0)
        << "agent " << v;
  }
  EXPECT_GE(in.utility(x), res.omega / p.ratio_factor - 1e-8);

  // The special optimum dominates the original (every step's "optimal
  // solutions embed" direction).
  EXPECT_GE(res.omega, optimum(in) - 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Families, PipelineOnFamilies,
                         ::testing::Range(0, 7));

TEST(Pipeline, SpecialFormInputPassesAlmostUntouched) {
  RandomSpecialParams p;
  p.num_agents = 16;
  const MaxMinInstance in = random_special_form(p, 77);
  const Pipeline pipe = to_special_form(in);
  // Already special form: same sizes everywhere.
  EXPECT_EQ(pipe.special.num_agents(), in.num_agents());
  EXPECT_EQ(pipe.special.num_constraints(), in.num_constraints());
  EXPECT_EQ(pipe.special.num_objectives(), in.num_objectives());
  EXPECT_DOUBLE_EQ(pipe.ratio_factor, 1.0);
}

TEST(CheckSpecialForm, RejectsEachViolation) {
  // |Vi| != 2.
  {
    InstanceBuilder b(3);
    b.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}});
    b.add_objective({{0, 1.0}, {1, 1.0}});
    b.add_objective({{2, 1.0}, {0, 1.0}});
    EXPECT_THROW(check_special_form(b.build(false)), CheckError);
  }
  // c != 1.
  {
    InstanceBuilder b(2);
    b.add_constraint({{0, 1.0}, {1, 1.0}});
    b.add_objective({{0, 2.0}, {1, 1.0}});
    EXPECT_THROW(check_special_form(b.build()), CheckError);
  }
  // |Kv| != 1.
  {
    const MaxMinInstance cyc = cycle_instance({.num_agents = 4}, 1);
    EXPECT_THROW(check_special_form(cyc), CheckError);
  }
}

}  // namespace
}  // namespace locmm
