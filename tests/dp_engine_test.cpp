// Tests for the memoized bottom-up DP view engine (ViewEngine::kMemoizedDp):
//
//   * differential equivalence -- on cycle, grid, regular and random
//     instances the DP engine must reproduce the naive recursive oracle
//     (ViewEngine::kNaive, the literal transcription of recursions (5)-(14))
//     and engine C (solve_special_centralized) bitwise;
//   * complexity -- the instrumentation hook (TSearchOptions::stats) must
//     certify that the DP engine visits O(view_size * r) states per omega
//     sweep, i.e. the exponential re-expansion of the naive recursion is
//     actually gone, not just faster by a constant.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/local_solver.hpp"
#include "core/view_solver.hpp"
#include "gen/generators.hpp"
#include "graph/comm_graph.hpp"
#include "graph/view_tree.hpp"
#include "support/thread_pool.hpp"
#include "transform/transform.hpp"

namespace locmm {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// The naive oracle over a whole instance: every agent builds its
// radius-D(R) view and evaluates it with the literal recursion.  Agents
// run in parallel, each writing its own slot.
std::vector<double> naive_local_views(const MaxMinInstance& special,
                                      std::int32_t R) {
  const CommGraph g(special);
  const std::int32_t D = view_radius(R);
  TSearchOptions opt;
  opt.engine = ViewEngine::kNaive;
  std::vector<double> x(static_cast<std::size_t>(special.num_agents()));
  parallel_for(x.size(), 0, [&](std::size_t v) {
    const ViewTree view =
        ViewTree::build(g, g.agent_node(static_cast<AgentId>(v)), D);
    x[v] = solve_agent_from_view(view, R, opt);
  });
  return x;
}

// Runs all three evaluators on a special-form instance and checks pairwise
// bitwise agreement (the naive and DP engines follow bit-identical probe
// sequences, and all engines share one reduction order).
void expect_dp_matches(const MaxMinInstance& special, std::int32_t R) {
  ASSERT_TRUE(is_special_form(special));
  const SpecialFormInstance sf(special);
  const SpecialRunResult c = solve_special_centralized(sf, R);
  const std::vector<double> naive = naive_local_views(special, R);
  const std::vector<double> dp = solve_special_local_views(special, R);

  ASSERT_EQ(dp.size(), naive.size());
  ASSERT_EQ(dp.size(), c.x.size());
  for (std::size_t v = 0; v < dp.size(); ++v) {
    EXPECT_TRUE(same_bits(dp[v], naive[v])) << "agent " << v << " R=" << R;
    EXPECT_TRUE(same_bits(dp[v], c.x[v])) << "agent " << v << " R=" << R;
  }
}

// General instances go through the §4 pipeline first.
void expect_dp_matches_general(const MaxMinInstance& inst, std::int32_t R) {
  expect_dp_matches(to_special_form(inst).special, R);
}

TEST(DpEngine, CycleR2R3) {
  // The §4 pipeline raises the comm-graph degree of a cycle enough that the
  // R = 4 view (depth 29) blows past the ViewTree node budget; R = 4 is
  // covered on natively special-form instances (WheelR4) instead.
  for (std::uint64_t seed : {1, 2}) {
    const MaxMinInstance inst = cycle_instance(
        {.num_agents = 9, .coeff_lo = 0.5, .coeff_hi = 2.0}, seed);
    for (std::int32_t R : {2, 3}) expect_dp_matches_general(inst, R);
  }
}

TEST(DpEngine, GridR2R3) {
  const MaxMinInstance inst = grid_instance(
      {.rows = 4, .cols = 4, .coeff_lo = 0.5, .coeff_hi = 2.0}, 3);
  for (std::int32_t R : {2, 3}) expect_dp_matches_general(inst, R);
}

TEST(DpEngine, RegularR2R3) {
  // 3-regular configuration-model instances: every objective has exactly
  // three agents, every agent exactly two degree-2 constraints -- the
  // branching regime where the naive engine's cost explodes.
  for (std::uint64_t seed : {5, 6}) {
    const MaxMinInstance inst = regular_special_instance(
        {.num_objectives = 4, .delta_k = 3, .constraints_per_agent = 2,
         .coeff_lo = 0.5, .coeff_hi = 2.0},
        seed);
    expect_dp_matches(inst, 2);
    expect_dp_matches(inst, 3);
  }
}

TEST(DpEngine, RandomSpecialR2R3) {
  RandomSpecialParams p;
  p.num_agents = 12;
  p.delta_k = 3;
  for (std::uint64_t seed : {11, 12, 13}) {
    expect_dp_matches(random_special_form(p, seed), 2);
  }
  p.num_agents = 10;
  p.delta_k = 2;
  p.extra_constraints = 0.3;
  expect_dp_matches(random_special_form(p, 14), 3);
}

TEST(DpEngine, RandomGeneralViaPipelineR2) {
  for (std::uint64_t seed : {21, 22}) {
    const MaxMinInstance inst = random_general(
        {.num_agents = 10, .delta_i = 3, .delta_k = 3}, seed);
    expect_dp_matches_general(inst, 2);
  }
}

TEST(DpEngine, WheelR4) {
  // Width-1 wheels keep views linear in D, so R = 4 stays cheap for the
  // naive oracle too.
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = 8, .width = 1, .twist = 0});
  expect_dp_matches(inst, 4);
}

TEST(DpEngine, TRootMatchesNaive) {
  const MaxMinInstance inst = regular_special_instance(
      {.num_objectives = 4, .delta_k = 3, .constraints_per_agent = 2,
       .coeff_lo = 0.5, .coeff_hi = 2.0},
      7);
  const CommGraph g(inst);
  for (std::int32_t r : {0, 1, 2}) {
    const std::int32_t D = 4 * r + 3;
    for (AgentId v = 0; v < inst.num_agents(); ++v) {
      const ViewTree view = ViewTree::build(g, g.agent_node(v), D);
      TSearchOptions naive_opt;
      naive_opt.engine = ViewEngine::kNaive;
      const double tn = t_root_from_view(view, r, naive_opt);
      const double td = t_root_from_view(view, r, {});
      EXPECT_TRUE(same_bits(td, tn)) << "agent " << v << " r=" << r;
    }
  }
}

TEST(DpEngine, ScratchReuseAcrossHeterogeneousViews) {
  // One scratch object across views of different instances and radii: the
  // reset path must fully clear per-evaluation state.
  ViewEvalScratch scratch;
  for (std::uint64_t seed : {31, 32, 33}) {
    const MaxMinInstance inst = regular_special_instance(
        {.num_objectives = 3, .delta_k = 3, .constraints_per_agent = 2,
         .coeff_lo = 0.5, .coeff_hi = 2.0},
        seed);
    const CommGraph g(inst);
    for (std::int32_t R : {2, 3}) {
      const std::int32_t D = view_radius(R);
      for (AgentId v = 0; v < inst.num_agents(); v += 5) {
        const ViewTree view = ViewTree::build(g, g.agent_node(v), D);
        TSearchOptions naive_opt;
        naive_opt.engine = ViewEngine::kNaive;
        const double xn = solve_agent_from_view(view, R, naive_opt);
        const double xd = solve_agent_from_view(view, R, {}, &scratch);
        EXPECT_TRUE(same_bits(xd, xn)) << "agent " << v << " R=" << R;
      }
    }
  }
}

TEST(DpEngine, VisitedStatesLinearInViewSizeTimesR) {
  // The complexity certificate: per omega sweep the DP engine evaluates
  // each (agent-node, depth, +/-) state at most once, so across a whole
  // evaluation   f_evals <= omega_sweeps * 2 * view_size * (r+1)
  // and          g_evals <= 2 * view_size * (r+1).
  // The naive engine violates the per-evaluation bound by orders of
  // magnitude on branching instances (asserted below), which is exactly
  // the exponential-vs-polynomial separation this PR removes.
  const MaxMinInstance inst = regular_special_instance(
      {.num_objectives = 4, .delta_k = 3, .constraints_per_agent = 2,
       .coeff_lo = 0.5, .coeff_hi = 2.0},
      42);
  const std::int32_t R = 3;
  const std::int32_t r = R - 2;
  const CommGraph g(inst);
  const ViewTree view = ViewTree::build(g, g.agent_node(0), view_radius(R));
  const auto view_size = static_cast<std::int64_t>(view.size());

  TSearchStats dp_stats;
  TSearchOptions dp_opt;
  dp_opt.stats = &dp_stats;
  const double xd = solve_agent_from_view(view, R, dp_opt);

  const std::int64_t sweeps = dp_stats.omega_sweeps.load();
  ASSERT_GT(sweeps, 0);
  // Each sweep is one bottom-up pass over (a subset of) the marked cone.
  EXPECT_LE(dp_stats.f_evals.load(), sweeps * 2 * view_size * (r + 1));
  EXPECT_LE(dp_stats.g_evals.load(), 2 * view_size * (r + 1));
  // Batching: searches whose next probe coincides share one sweep, so a
  // whole evaluation runs far fewer sweeps than condition checks.
  EXPECT_LT(sweeps, dp_stats.t_checks.load());

  TSearchStats naive_stats;
  TSearchOptions naive_opt;
  naive_opt.engine = ViewEngine::kNaive;
  naive_opt.stats = &naive_stats;
  const double xn = solve_agent_from_view(view, R, naive_opt);
  EXPECT_NEAR(xd, xn, 1e-9);
  // The oracle re-expands the recursion per probe and per agent: it must
  // do strictly more state evaluations than the memoized engine.
  EXPECT_GT(naive_stats.f_evals.load(), 4 * dp_stats.f_evals.load());
}

}  // namespace
}  // namespace locmm
