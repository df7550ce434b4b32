// Tests for the MaxMinInstance problem object: construction, port-order
// preservation, utilities, feasibility, validation failures, relabelling.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "lp/instance.hpp"

namespace locmm {
namespace {

// The running example: 3 agents, 2 constraints, 2 objectives.
//   c0: 1*x0 + 2*x1 <= 1        k0: x0 + x1 >= w
//   c1: 1*x1 + 1*x2 <= 1        k1: 3*x2 >= w
MaxMinInstance tiny() {
  InstanceBuilder b(3);
  b.add_constraint({{0, 1.0}, {1, 2.0}});
  b.add_constraint({{1, 1.0}, {2, 1.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  b.add_objective({{2, 3.0}});
  return b.build();
}

TEST(Instance, CountsAndStats) {
  const MaxMinInstance inst = tiny();
  EXPECT_EQ(inst.num_agents(), 3);
  EXPECT_EQ(inst.num_constraints(), 2);
  EXPECT_EQ(inst.num_objectives(), 2);
  const InstanceStats s = inst.stats();
  EXPECT_EQ(s.nnz_a, 4);
  EXPECT_EQ(s.nnz_c, 3);
  EXPECT_EQ(s.delta_i, 2);
  EXPECT_EQ(s.delta_k, 2);
  EXPECT_EQ(s.max_iv, 2);  // agent 1 sits in both constraints
  EXPECT_EQ(s.max_kv, 1);
}

TEST(Instance, RowsPreservePortOrder) {
  const MaxMinInstance inst = tiny();
  const auto row = inst.constraint_row(0);
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[0].agent, 0);
  EXPECT_DOUBLE_EQ(row[0].coeff, 1.0);
  EXPECT_EQ(row[1].agent, 1);
  EXPECT_DOUBLE_EQ(row[1].coeff, 2.0);
}

TEST(Instance, AgentIncidenceInInsertionOrder) {
  const MaxMinInstance inst = tiny();
  const auto inc = inst.agent_constraints(1);
  ASSERT_EQ(inc.size(), 2u);
  EXPECT_EQ(inc[0].row, 0);
  EXPECT_DOUBLE_EQ(inc[0].coeff, 2.0);
  EXPECT_EQ(inc[1].row, 1);
  EXPECT_DOUBLE_EQ(inc[1].coeff, 1.0);
  const auto kinc = inst.agent_objectives(2);
  ASSERT_EQ(kinc.size(), 1u);
  EXPECT_EQ(kinc[0].row, 1);
  EXPECT_DOUBLE_EQ(kinc[0].coeff, 3.0);
}

TEST(Instance, UtilityIsMinOverObjectives) {
  const MaxMinInstance inst = tiny();
  const std::vector<double> x{0.2, 0.3, 0.1};
  EXPECT_DOUBLE_EQ(inst.utility(x), std::min(0.5, 0.3));
  const auto vals = inst.objective_values(x);
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_DOUBLE_EQ(vals[0], 0.5);
  EXPECT_NEAR(vals[1], 0.3, 1e-15);
}

TEST(Instance, ViolationMeasuresWorstRow) {
  const MaxMinInstance inst = tiny();
  EXPECT_LE(inst.violation(std::vector<double>{0.0, 0.0, 0.0}), 0.0);
  // c0: 0.5 + 2*0.5 = 1.5 -> violation 0.5.
  EXPECT_NEAR(inst.violation(std::vector<double>{0.5, 0.5, 0.0}), 0.5, 1e-15);
  // Negative coordinates are infeasible too.
  EXPECT_NEAR(inst.violation(std::vector<double>{-0.25, 0.0, 0.0}), 0.25,
              1e-15);
  EXPECT_TRUE(inst.is_feasible(std::vector<double>{0.1, 0.1, 0.1}));
  EXPECT_FALSE(inst.is_feasible(std::vector<double>{1.0, 1.0, 1.0}));
}

TEST(InstanceBuilder, GrowsAgentsImplicitly) {
  InstanceBuilder b;
  b.add_constraint({{4, 1.0}});
  EXPECT_EQ(b.num_agents(), 5);
}

TEST(InstanceValidate, RejectsEmptyRow) {
  InstanceBuilder b(1);
  b.add_constraint({{0, 1.0}});
  b.add_objective({{0, 1.0}});
  b.add_constraint({});
  EXPECT_THROW(b.build(), CheckError);
}

TEST(InstanceValidate, RejectsNonPositiveCoefficient) {
  InstanceBuilder b(1);
  b.add_constraint({{0, 0.0}});
  b.add_objective({{0, 1.0}});
  EXPECT_THROW(b.build(), CheckError);
}

TEST(InstanceValidate, RejectsNonFiniteCoefficient) {
  // An infinite coefficient breaks the monotonicity of the §5 recursions in
  // omega (inf * 0 is NaN), so it is rejected like a non-positive one.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    InstanceBuilder constraint(2);
    constraint.add_constraint({{0, 1.0}, {1, bad}});
    constraint.add_objective({{0, 1.0}, {1, 1.0}});
    EXPECT_THROW(constraint.build(), CheckError) << bad;

    InstanceBuilder objective(2);
    objective.add_constraint({{0, 1.0}, {1, 1.0}});
    objective.add_objective({{0, bad}, {1, 1.0}});
    EXPECT_THROW(objective.build(), CheckError) << bad;
  }
}

TEST(InstanceValidate, RejectsDuplicateAgentInRow) {
  InstanceBuilder b(2);
  b.add_constraint({{0, 1.0}, {0, 2.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  b.add_constraint({{1, 1.0}});
  EXPECT_THROW(b.build(), CheckError);
}

TEST(InstanceValidate, RejectsUnconstrainedAgent) {
  InstanceBuilder b(2);
  b.add_constraint({{0, 1.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  EXPECT_THROW(b.build(), CheckError);  // agent 1 has no constraint
}

TEST(InstanceValidate, RejectsNonContributingAgent) {
  InstanceBuilder b(2);
  b.add_constraint({{0, 1.0}, {1, 1.0}});
  b.add_objective({{0, 1.0}});
  EXPECT_THROW(b.build(), CheckError);  // agent 1 has no objective
}

TEST(Instance, ConnectedDetectsComponents) {
  InstanceBuilder b(4);
  b.add_constraint({{0, 1.0}, {1, 1.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  b.add_constraint({{2, 1.0}, {3, 1.0}});
  b.add_objective({{2, 1.0}, {3, 1.0}});
  const MaxMinInstance inst = b.build();
  EXPECT_FALSE(inst.connected());
  EXPECT_TRUE(tiny().connected());
}

TEST(Instance, RelabelPreservesSemantics) {
  const MaxMinInstance inst = tiny();
  const std::vector<AgentId> perm{2, 0, 1};  // new id of agent v is perm[v]
  const MaxMinInstance rel = relabel_agents(inst, perm);
  const std::vector<double> x{0.2, 0.3, 0.1};
  std::vector<double> xr(3);
  for (int v = 0; v < 3; ++v) xr[perm[v]] = x[v];
  EXPECT_DOUBLE_EQ(inst.utility(x), rel.utility(xr));
  EXPECT_DOUBLE_EQ(inst.violation(x), rel.violation(xr));
}

TEST(Instance, DescribeMentionsAllCounts) {
  const std::string d = describe(tiny());
  EXPECT_NE(d.find("V=3"), std::string::npos);
  EXPECT_NE(d.find("I=2"), std::string::npos);
  EXPECT_NE(d.find("K=2"), std::string::npos);
}

}  // namespace
}  // namespace locmm
