// Tests for the end-to-end public API: Theorem 1's contract on arbitrary
// instances, diagnostics consistency, guarantee formulas, engine choice.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "core/solver_api.hpp"
#include "core/view_solver.hpp"
#include "dist/streaming.hpp"
#include "gen/generators.hpp"
#include "lp/delta.hpp"
#include "lp/maxmin_solver.hpp"
#include "support/prng.hpp"

namespace locmm {
namespace {

TEST(Guarantees, Formulas) {
  EXPECT_DOUBLE_EQ(special_form_guarantee(2, 2), 2.0);      // 2*(1/2)*2
  EXPECT_DOUBLE_EQ(special_form_guarantee(3, 3), 2.0);      // 2*(2/3)*(3/2)
  EXPECT_DOUBLE_EQ(theorem1_guarantee(2, 2, 2), 2.0);
  EXPECT_DOUBLE_EQ(theorem1_guarantee(3, 3, 3), 3.0);
  EXPECT_NEAR(theorem1_guarantee(3, 3, 101), 3.0 * (2.0 / 3.0) * 1.01, 1e-12);
  // As R grows the guarantee approaches the threshold delta_I (1 - 1/delta_K).
  EXPECT_GT(theorem1_guarantee(4, 3, 4), theorem1_guarantee(4, 3, 16));
  EXPECT_GT(theorem1_guarantee(4, 3, 1000), 4.0 * (2.0 / 3.0));
}

void expect_theorem1_contract(const MaxMinInstance& inst,
                              const LocalParams& params) {
  const LocalSolution sol = solve_local(inst, params);
  EXPECT_TRUE(inst.is_feasible(sol.x, 1e-8))
      << "violation " << inst.violation(sol.x);
  EXPECT_NEAR(sol.omega, inst.utility(sol.x), 1e-12);

  const MaxMinLpResult opt = solve_lp_optimum(inst);
  ASSERT_EQ(opt.status, LpStatus::kOptimal);
  EXPECT_GE(sol.omega * sol.guarantee, opt.omega - 1e-7)
      << "measured ratio " << opt.omega / sol.omega << " > guarantee "
      << sol.guarantee;
  // t_min upper-bounds the special-form optimum, which dominates the
  // original optimum.
  EXPECT_GE(sol.t_min_special, opt.omega - 1e-7);
  // Diagnostics.
  EXPECT_GE(sol.ratio_factor, 1.0);
  EXPECT_EQ(sol.view_radius, 12 * (params.R - 2) + 5);
}

class ApiOnFamilies : public ::testing::TestWithParam<int> {};

TEST_P(ApiOnFamilies, Theorem1Contract) {
  LocalParams params;
  params.R = 3;
  switch (GetParam()) {
    case 0:
      expect_theorem1_contract(random_general({.num_agents = 16}, 5), params);
      break;
    case 1:
      expect_theorem1_contract(cycle_instance({.num_agents = 8}, 7), params);
      break;
    case 2:
      expect_theorem1_contract(path_instance(8), params);
      break;
    case 3:
      expect_theorem1_contract(
          sensor_instance({.num_sensors = 8, .num_sinks = 4}, 8), params);
      break;
    case 4:
      expect_theorem1_contract(
          bandwidth_instance({.num_routers = 8, .num_customers = 4}, 9),
          params);
      break;
    default:
      expect_theorem1_contract(tree_instance({.max_agents = 14}, 10), params);
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ApiOnFamilies, ::testing::Range(0, 6));

TEST(Api, OutputSizesMatchOriginal) {
  const MaxMinInstance inst = path_instance(8);
  const LocalSolution sol = solve_local(inst, {.R = 2});
  EXPECT_EQ(static_cast<std::int32_t>(sol.x.size()), inst.num_agents());
  // The special instance is larger (gadgets + copies).
  EXPECT_GT(sol.special_stats.agents, inst.num_agents());
}

TEST(Api, LocalViewEngineMatchesCentralized) {
  const MaxMinInstance inst = random_general({.num_agents = 10,
                                              .delta_i = 2,
                                              .delta_k = 2},
                                             21);
  LocalParams c{.R = 2, .engine = LocalEngine::kCentralized};
  LocalParams l{.R = 2, .engine = LocalEngine::kLocalViews};
  const LocalSolution sc = solve_local(inst, c);
  const LocalSolution sl = solve_local(inst, l);
  ASSERT_EQ(sc.x.size(), sl.x.size());
  for (std::size_t v = 0; v < sc.x.size(); ++v)
    EXPECT_NEAR(sc.x[v], sl.x[v], 1e-12);
}

TEST(Api, DistributedEnginesMatchCentralized) {
  const MaxMinInstance inst = random_general({.num_agents = 10,
                                              .delta_i = 2,
                                              .delta_k = 2},
                                             22);
  const LocalSolution sc =
      solve_local(inst, {.R = 2, .engine = LocalEngine::kCentralized});
  const LocalSolution sm =
      solve_local(inst, {.R = 2, .engine = LocalEngine::kMessagePassing});
  const LocalSolution ss =
      solve_local(inst, {.R = 2, .engine = LocalEngine::kStreaming});
  ASSERT_EQ(sm.x.size(), sc.x.size());
  ASSERT_EQ(ss.x.size(), sc.x.size());
  for (std::size_t v = 0; v < sc.x.size(); ++v) {
    EXPECT_NEAR(sm.x[v], sc.x[v], 1e-12) << "engine M, agent " << v;
    EXPECT_NEAR(ss.x[v], sc.x[v], 1e-12) << "engine S, agent " << v;
  }
  EXPECT_NEAR(sm.t_min_special, sc.t_min_special, 1e-12);
  EXPECT_NEAR(ss.t_min_special, sc.t_min_special, 1e-12);
}

TEST(Api, DistributedEnginesReportSchedulerStats) {
  const MaxMinInstance inst = path_instance(8);
  const LocalSolution sc =
      solve_local(inst, {.R = 2, .engine = LocalEngine::kCentralized});
  const LocalSolution sm =
      solve_local(inst, {.R = 2, .engine = LocalEngine::kMessagePassing});
  const LocalSolution ss =
      solve_local(inst, {.R = 2, .engine = LocalEngine::kStreaming});
  // Engine M gathers for the full local horizon; engine S pays two extra
  // rounds for exponentially smaller messages.
  EXPECT_EQ(sm.net_stats.rounds, view_radius(2));
  EXPECT_EQ(ss.net_stats.rounds, streaming_rounds(2));
  EXPECT_EQ(ss.net_stats.rounds, sm.net_stats.rounds + 2);
  EXPECT_GT(sm.net_stats.messages, 0);
  EXPECT_GT(ss.net_stats.messages, 0);
  EXPECT_GT(sm.net_stats.bytes, 0);
  EXPECT_GT(sm.net_stats.max_message_bytes, 0);
  EXPECT_LE(ss.net_stats.max_message_bytes, sm.net_stats.max_message_bytes);
  // The simulated engines never touch the network substrate.
  EXPECT_EQ(sc.net_stats.rounds, 0);
  EXPECT_EQ(sc.net_stats.messages, 0);
}

TEST(Api, ResolverCarriesDistributedEnginesWithNetStats) {
  // LocalResolver honours LocalParams::engine: the distributed engines
  // re-solve by SyncNetwork replay and report the fresh-vs-replayed message
  // split of the dynamic path (§1.3) through LocalSolution::net_stats.
  const MaxMinInstance inst = path_instance(10);
  for (const LocalEngine engine :
       {LocalEngine::kMessagePassing, LocalEngine::kStreaming}) {
    LocalParams params;
    params.R = 2;
    params.engine = engine;
    LocalResolver resolver(inst, params);
    // Cold: a full recorded run, all fresh.
    const RunStats cold = resolver.solution().net_stats;
    EXPECT_EQ(cold.rounds, engine == LocalEngine::kMessagePassing
                               ? view_radius(2)
                               : streaming_rounds(2));
    EXPECT_GT(cold.fresh_messages, 0);
    EXPECT_EQ(cold.replayed_messages, 0);

    // A coefficient edit takes the delta fast path: ball-sized fresh
    // traffic, the rest replayed from the recorded history.
    const Entry hit = inst.constraint_row(2)[0];
    InstanceDelta delta;
    delta.set_constraint_coeff(2, hit.agent, hit.coeff * 1.5);
    resolver.resolve(delta);
    EXPECT_TRUE(resolver.last_resolve_was_delta());
    const RunStats warm = resolver.solution().net_stats;
    EXPECT_GT(warm.fresh_messages, 0);
    EXPECT_GT(warm.replayed_messages, 0);
    EXPECT_LT(warm.fresh_messages, cold.fresh_messages);

    // And the solution matches a from-scratch solve_local with the same
    // engine on the edited instance.
    MaxMinInstance cur = inst;
    cur.apply(delta);
    const LocalSolution oracle = solve_local(cur, params);
    ASSERT_EQ(resolver.solution().x.size(), oracle.x.size());
    for (std::size_t v = 0; v < oracle.x.size(); ++v) {
      EXPECT_EQ(std::memcmp(&resolver.solution().x[v], &oracle.x[v],
                            sizeof(double)),
                0)
          << (engine == LocalEngine::kMessagePassing ? "engine M" : "engine S")
          << ", agent " << v;
    }
  }
}

TEST(Api, LargerRNeverHurtsMuch) {
  const MaxMinInstance inst = random_general({.num_agents = 20}, 31);
  const LocalSolution r2 = solve_local(inst, {.R = 2});
  const LocalSolution r5 = solve_local(inst, {.R = 5});
  // The guarantee tightens with R...
  EXPECT_LT(r5.guarantee, r2.guarantee);
  // ...and both satisfy it (checked in the families test); additionally the
  // R = 5 output should not collapse versus R = 2.
  EXPECT_GT(r5.omega, 0.0);
  EXPECT_GT(r2.omega, 0.0);
}

TEST(Api, RejectsInvalidR) {
  const MaxMinInstance inst = path_instance(4);
  EXPECT_THROW(solve_local(inst, {.R = 1}), CheckError);
}

// --- LocalResolver strong exception safety --------------------------------
//
// resolve() promises that a rejected delta leaves the resolver bitwise
// untouched: instance, solution, diagnostics and the delta-fast-path flag.
// These tests diff the complete observable state against an identically
// constructed control resolver after every rejected-delta shape, then prove
// the resolver is still fully functional by applying a valid edit and
// matching a scratch solve bitwise.

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool vectors_bit_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_bitwise_instance(const MaxMinInstance& a, const MaxMinInstance& b,
                             const char* ctx) {
  ASSERT_EQ(a.num_agents(), b.num_agents()) << ctx;
  ASSERT_EQ(a.num_constraints(), b.num_constraints()) << ctx;
  ASSERT_EQ(a.num_objectives(), b.num_objectives()) << ctx;
  auto rows_equal = [&](auto ra, auto rb) {
    if (ra.size() != rb.size()) return false;
    for (std::size_t j = 0; j < ra.size(); ++j) {
      if (ra[j].agent != rb[j].agent || !bits_equal(ra[j].coeff, rb[j].coeff))
        return false;
    }
    return true;
  };
  for (ConstraintId i = 0; i < a.num_constraints(); ++i) {
    EXPECT_TRUE(rows_equal(a.constraint_row(i), b.constraint_row(i)))
        << ctx << ": constraint " << i;
  }
  for (ObjectiveId k = 0; k < a.num_objectives(); ++k) {
    EXPECT_TRUE(rows_equal(a.objective_row(k), b.objective_row(k)))
        << ctx << ": objective " << k;
  }
}

void expect_bitwise_resolver_state(const LocalResolver& a,
                                   const LocalResolver& b, const char* ctx) {
  expect_bitwise_instance(a.instance(), b.instance(), ctx);
  const LocalSolution& sa = a.solution();
  const LocalSolution& sb = b.solution();
  EXPECT_TRUE(vectors_bit_equal(sa.x, sb.x)) << ctx;
  EXPECT_TRUE(vectors_bit_equal(sa.x_special, sb.x_special)) << ctx;
  EXPECT_TRUE(bits_equal(sa.omega, sb.omega)) << ctx;
  EXPECT_TRUE(bits_equal(sa.omega_special, sb.omega_special)) << ctx;
  EXPECT_TRUE(bits_equal(sa.t_min_special, sb.t_min_special)) << ctx;
  EXPECT_TRUE(bits_equal(sa.ratio_factor, sb.ratio_factor)) << ctx;
  EXPECT_TRUE(bits_equal(sa.guarantee, sb.guarantee)) << ctx;
  EXPECT_EQ(sa.view_radius, sb.view_radius) << ctx;
  EXPECT_EQ(a.last_resolve_was_delta(), b.last_resolve_was_delta()) << ctx;
}

TEST(LocalResolverTransactional, RejectedDeltasLeaveStateUntouched) {
  const MaxMinInstance inst = grid_instance({.rows = 3, .cols = 4}, 6);
  const LocalParams params{.R = 2, .engine = LocalEngine::kLocalViews};
  LocalResolver resolver(inst, params);
  const LocalResolver control(inst, params);

  const AgentId a0 = inst.constraint_row(0)[0].agent;
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();

  // An agent absent from constraint 0, for the absent-edit shapes.
  AgentId absent = -1;
  for (AgentId v = 0; v < inst.num_agents(); ++v) {
    bool in_row = false;
    for (const Entry& e : inst.constraint_row(0)) in_row |= (e.agent == v);
    if (!in_row) {
      absent = v;
      break;
    }
  }
  ASSERT_GE(absent, 0);

  struct Shape {
    const char* name;
    InstanceDelta delta;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"constraint row out of range",
                    InstanceDelta{}.set_constraint_coeff(
                        inst.num_constraints() + 3, a0, 1.0)});
  shapes.push_back({"objective row out of range",
                    InstanceDelta{}.set_objective_coeff(
                        inst.num_objectives(), a0, 1.0)});
  shapes.push_back(
      {"agent out of range",
       InstanceDelta{}.set_constraint_coeff(0, inst.num_agents() + 1, 1.0)});
  shapes.push_back({"negative agent id",
                    InstanceDelta{}.set_objective_coeff(0, -1, 1.0)});
  shapes.push_back({"negative coefficient",
                    InstanceDelta{}.set_constraint_coeff(0, a0, -1.0)});
  shapes.push_back(
      {"nan coefficient", InstanceDelta{}.set_constraint_coeff(0, a0, kNan)});
  shapes.push_back({"infinite coefficient on add",
                    InstanceDelta{}.add_to_constraint(0, absent, kInf)});
  shapes.push_back({"coefficient edit on absent entry",
                    InstanceDelta{}.set_constraint_coeff(0, absent, 1.0)});
  shapes.push_back({"remove of absent entry",
                    InstanceDelta{}.remove_from_constraint(0, absent)});
  shapes.push_back({"duplicate add",
                    InstanceDelta{}.add_to_constraint(0, a0, 1.0)});
  {
    // Emptying a row entirely: every member of constraint 0 removed.
    InstanceDelta d;
    for (const Entry& e : inst.constraint_row(0)) {
      d.remove_from_constraint(0, e.agent);
    }
    shapes.push_back({"row emptied", d});
  }
  shapes.push_back(
      {"valid edit plus bad edit rejects the whole batch",
       InstanceDelta{}
           .set_constraint_coeff(0, a0, 1.25)
           .set_constraint_coeff(inst.num_constraints(), a0, 1.0)});

  for (const Shape& s : shapes) {
    EXPECT_THROW(resolver.resolve(s.delta), CheckError) << s.name;
    expect_bitwise_resolver_state(resolver, control, s.name);
  }

  // The resolver is still fully functional: a valid coefficient edit takes
  // the delta fast path and lands bitwise on the scratch solve of the
  // edited instance.
  InstanceDelta good;
  good.set_constraint_coeff(0, a0, 1.375);
  const LocalSolution& sol = resolver.resolve(good);
  EXPECT_TRUE(resolver.last_resolve_was_delta());
  const LocalSolution scratch = solve_local(resolver.instance(), params);
  EXPECT_TRUE(vectors_bit_equal(sol.x, scratch.x));
  EXPECT_TRUE(bits_equal(sol.omega, scratch.omega));
}

TEST(LocalResolverTransactional, RejectionsAreStateless) {
  // A rejection must not leak into subsequent resolves: interleave rejected
  // and valid edits and check the survivor sequence alone determines the
  // final state, by replaying it on a fresh resolver.
  const MaxMinInstance inst = random_general({.num_agents = 10}, 17);
  const LocalParams params{.R = 2, .engine = LocalEngine::kLocalViews};
  LocalResolver noisy(inst, params);
  LocalResolver clean(inst, params);

  const AgentId a0 = inst.constraint_row(0)[0].agent;
  for (int step = 0; step < 4; ++step) {
    InstanceDelta bad;
    bad.set_constraint_coeff(inst.num_constraints() + step, a0, 1.0);
    EXPECT_THROW(noisy.resolve(bad), CheckError);

    InstanceDelta good;
    good.set_constraint_coeff(0, a0, 1.0 + 0.125 * (step + 1));
    noisy.resolve(good);
    clean.resolve(good);
    expect_bitwise_resolver_state(noisy, clean, "after step");
  }
}

// A structural churn batch against a natively-special instance: half
// remove-then-re-add coefficient refreshes, half |Vi| = 2 rewires.
InstanceDelta structural_churn(const MaxMinInstance& inst, Rng& rng) {
  InstanceDelta delta;
  if (!rng.bernoulli(0.5)) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      const auto i = static_cast<ConstraintId>(
          rng.below(static_cast<std::uint64_t>(inst.num_constraints())));
      const auto r = inst.constraint_row(i);
      const AgentId lose = r[rng.below(2)].agent;
      if (inst.agent_constraints(lose).size() < 2) continue;
      const auto gain = static_cast<AgentId>(
          rng.below(static_cast<std::uint64_t>(inst.num_agents())));
      if (gain == r[0].agent || gain == r[1].agent) continue;
      delta.remove_from_constraint(i, lose);
      delta.add_to_constraint(i, gain, rng.uniform(0.5, 2.0));
      return delta;
    }
  }
  const auto i = static_cast<ConstraintId>(
      rng.below(static_cast<std::uint64_t>(inst.num_constraints())));
  // Refresh the FIRST of the two entries: the re-add appends at the row
  // end, so the agent sequence provably changes and the edit is genuinely
  // structural, not a coefficient diff.  (Refreshing the last entry is
  // structurally a no-op.)
  const AgentId v = inst.constraint_row(i)[0].agent;
  delta.remove_from_constraint(i, v);
  delta.add_to_constraint(i, v, rng.uniform(0.5, 2.0));
  return delta;
}

// The differential oracle of the resolver: its solution after an edit is
// bitwise a from-scratch solve_local of the edited instance.
void expect_resolver_matches_solve_local(const LocalResolver& r,
                                         const MaxMinInstance& cur,
                                         const LocalParams& params,
                                         int step) {
  expect_bitwise_instance(r.instance(), cur, "resolver vs edit script");
  const LocalSolution& sa = r.solution();
  const LocalSolution sb = solve_local(cur, params);
  EXPECT_TRUE(vectors_bit_equal(sa.x, sb.x)) << "step " << step;
  EXPECT_TRUE(vectors_bit_equal(sa.x_special, sb.x_special))
      << "step " << step;
  EXPECT_TRUE(bits_equal(sa.omega, sb.omega)) << "step " << step;
  EXPECT_TRUE(bits_equal(sa.omega_special, sb.omega_special))
      << "step " << step;
  EXPECT_TRUE(bits_equal(sa.guarantee, sb.guarantee)) << "step " << step;
}

TEST(LocalResolver, StructuralFastPathMatchesDifferentialOracle) {
  // A churn script of structural edits that all stay on the id-map fast
  // path: after every step the resolver must agree bitwise with solve_local
  // on the edited instance.
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 6}, 2);
  LocalParams params;
  params.R = 2;
  params.engine = LocalEngine::kLocalViews;

  LocalResolver a(grid, params);
  MaxMinInstance cur = grid;
  Rng rng(4242);
  for (int step = 0; step < 4; ++step) {
    const InstanceDelta d = structural_churn(cur, rng);
    a.resolve(d);
    cur.apply(d);
    EXPECT_TRUE(a.last_resolve_was_delta()) << "step " << step;
    expect_resolver_matches_solve_local(a, cur, params, step);
  }
}

TEST(LocalResolver, KvGrowthReinitialisesBitwise) {
  // Growing an agent's |Kv| from 2 to 3 changes how §4.4 splits it, so the
  // special form is renumbered: neither the id map nor the diff can carry
  // the edit, and the resolver re-initialises -- still bitwise solve_local.
  const MaxMinInstance grid = grid_instance({.rows = 3, .cols = 4}, 6);
  LocalParams params;
  params.R = 2;
  LocalResolver r(grid, params);

  const AgentId v = 0;
  ASSERT_EQ(grid.agent_objectives(v).size(), 2u);
  ObjectiveId k = 0;
  const auto serves = [&](ObjectiveId row) {
    for (const Entry& e : grid.objective_row(row))
      if (e.agent == v) return true;
    return false;
  };
  while (serves(k)) ++k;
  InstanceDelta d;
  d.add_to_objective(k, v, 1.0);
  r.resolve(d);
  MaxMinInstance cur = grid;
  cur.apply(d);
  ASSERT_EQ(cur.agent_objectives(v).size(), 3u);
  EXPECT_FALSE(r.last_resolve_was_delta());
  expect_resolver_matches_solve_local(r, cur, params, 0);
}

TEST(Api, ZeroOptimumInstanceHandled) {
  // An objective whose agent is capped at 0 utility cannot happen with
  // positive coefficients, but a *tiny* optimum is fine: scale constraints
  // hard against one objective.
  InstanceBuilder b(2);
  b.add_constraint({{0, 1e6}, {1, 1.0}});
  b.add_objective({{0, 1.0}});
  b.add_objective({{1, 1.0}});
  const MaxMinInstance inst = b.build();
  const LocalSolution sol = solve_local(inst, {.R = 3});
  EXPECT_TRUE(inst.is_feasible(sol.x, 1e-9));
  const MaxMinLpResult opt = solve_lp_optimum(inst);
  EXPECT_GE(sol.omega * sol.guarantee, opt.omega - 1e-9);
}

}  // namespace
}  // namespace locmm
