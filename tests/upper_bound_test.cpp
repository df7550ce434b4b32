// Tests for the t_u machinery (§5.1-§5.2): hand-computed values, the
// upper-bound property t_u >= omega* (Lemmas 2-3), exact monotonicity of the
// f recursion in omega, and bitwise agreement between the production cone
// search and an independent test-side reimplementation driven by the global
// f tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <set>
#include <tuple>
#include <vector>

#include "core/special_form.hpp"
#include "core/upper_bound.hpp"
#include "gen/generators.hpp"
#include "lp/maxmin_solver.hpp"
#include "transform/transform.hpp"

namespace locmm {
namespace {

// Two agents sharing one objective and one unit constraint.
MaxMinInstance pair_instance() {
  InstanceBuilder b(2);
  b.add_constraint({{0, 1.0}, {1, 1.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  return b.build();
}

TEST(UpperBound, HandComputedPair) {
  // r = 0: t_0 = max{w : f-_{0,0}(w) = max(0, w - invcap(1)) <= invcap(0)}
  //       = invcap(0) + invcap(1) = 2.
  const MaxMinInstance inst = pair_instance();
  const SpecialFormInstance sf(inst);
  EXPECT_NEAR(compute_t_single(sf, 0, 0), 2.0, 1e-9);
  EXPECT_NEAR(compute_t_single(sf, 1, 0), 2.0, 1e-9);
}

TEST(UpperBound, HandComputedPairScaledCoefficients) {
  // Constraint 2 x0 + 4 x1 <= 1: invcap(0) = 1/2, invcap(1) = 1/4.
  InstanceBuilder b(2);
  b.add_constraint({{0, 2.0}, {1, 4.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  const SpecialFormInstance sf(b.build());
  EXPECT_NEAR(compute_t_single(sf, 0, 0), 0.75, 1e-9);
}

TEST(UpperBound, DeeperTreeTightensTheBound) {
  // Larger r sees more constraints, so t can only get more accurate
  // (non-increasing) on instances where the extra context binds.
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 3, .layers = 6, .width = 2, .twist = 1});
  const SpecialFormInstance sf(inst);
  double prev = std::numeric_limits<double>::infinity();
  for (std::int32_t r = 0; r <= 3; ++r) {
    const double t = compute_t_single(sf, 0, r);
    EXPECT_LE(t, prev + 1e-9) << "r=" << r;
    prev = t;
  }
}

// The live-set bisection of compute_t_single treats a state whose values at
// both bracket ends are bitwise equal as constant inside the bracket, which
// is sound only if f+ is non-increasing and f- non-decreasing in omega with
// no tolerance at all.  Checked exactly over a ladder of omega values that
// includes adjacent doubles and the t values the bisection converges to.
TEST(UpperBound, FMonotoneInOmega) {
  RandomSpecialParams p;
  p.num_agents = 20;
  RandomGeneralParams g;
  g.num_agents = 16;
  const std::int32_t r = 2;
  for (const MaxMinInstance& inst : {random_special_form(p, 5),
                                     to_special_form(random_general(g, 7))
                                         .special}) {
    const SpecialFormInstance sf(inst);
    std::vector<double> ladder{0.0, std::numeric_limits<double>::denorm_min(),
                               1e-300, 0.4, 1.0, 1.7, 3.0, 1e3, 1e300};
    for (AgentId u = 0; u < inst.num_agents(); u += 4) {
      ladder.push_back(compute_t_single(sf, u, r));
      ladder.push_back(sf.t_search_upper(u));
    }
    for (std::size_t k = 0, n = ladder.size(); k < n; ++k) {
      ladder.push_back(std::nextafter(ladder[k], 0.0));
      ladder.push_back(std::nextafter(ladder[k], 2.0 * ladder[k] + 1.0));
    }
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());

    FTables prev = evaluate_f_global(sf, r, ladder[0]);
    for (std::size_t k = 1; k < ladder.size(); ++k) {
      FTables cur = evaluate_f_global(sf, r, ladder[k]);
      for (std::int32_t d = 0; d <= r; ++d) {
        for (AgentId v = 0; v < inst.num_agents(); ++v) {
          // f+ non-increasing, f- non-decreasing in omega, exactly.
          EXPECT_GE(prev.plus[d][v], cur.plus[d][v])
              << "omega " << ladder[k - 1] << " -> " << ladder[k];
          EXPECT_LE(prev.minus[d][v], cur.minus[d][v])
              << "omega " << ladder[k - 1] << " -> " << ladder[k];
        }
      }
      prev = std::move(cur);
    }
  }
}

TEST(UpperBound, FPlusMonotoneInDepth) {
  // The analogue of Lemma 6 for f: deeper recursion can only lower f+.
  RandomSpecialParams p;
  p.num_agents = 24;
  const MaxMinInstance inst = random_special_form(p, 6);
  const SpecialFormInstance sf(inst);
  const FTables ft = evaluate_f_global(sf, 3, 0.8);
  for (std::int32_t d = 1; d <= 3; ++d) {
    for (AgentId v = 0; v < inst.num_agents(); ++v) {
      EXPECT_LE(ft.plus[d][v], ft.plus[d - 1][v] + 1e-12);
      if (d >= 2) {
        EXPECT_GE(ft.minus[d][v], ft.minus[d - 1][v] - 1e-12);
      }
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Independent reimplementation: alternating-walk state reachability plus
// bisection over the *global* f tables, with production's stop rule (eps
// fixed from the initial hi).  Cross-checks the production cone's
// dedup/order and its live-set shortcut: every probe here evaluates every
// reachable state, and counts the ones whose values at lo and hi differ --
// the states a live-set search re-evaluates.
struct TReferenceResult {
  double t = 0.0;
  std::int64_t checks = 0;  // condition (8)-(9) probes, 0 and hi included
  std::int64_t evals = 0;   // state evaluations of a live-set search
};

TReferenceResult t_reference(const SpecialFormInstance& sf, AgentId u,
                             std::int32_t r, double tol = 1e-12) {
  // Reach set: states (v, d, plus?) from the root (u, r, minus).
  using State = std::tuple<AgentId, std::int32_t, bool>;
  std::set<State> reach;
  std::vector<State> stack{{u, r, false}};
  while (!stack.empty()) {
    auto [v, d, plus] = stack.back();
    stack.pop_back();
    if (!reach.insert({v, d, plus}).second) continue;
    if (plus) {
      if (d > 0)
        for (const ConstraintArc& arc : sf.arcs(v))
          stack.push_back({arc.partner, d - 1, false});
    } else {
      for (AgentId w : sf.siblings(v)) stack.push_back({w, d, true});
    }
  }
  auto value = [](const FTables& ft, const State& st) {
    const auto& [v, d, plus] = st;
    return plus ? ft.plus[d][v] : ft.minus[d][v];
  };
  TReferenceResult res;
  auto probe = [&](double omega, FTables& ft) {
    ++res.checks;
    ft = evaluate_f_global(sf, r, omega);
    for (const auto& [v, d, plus] : reach) {
      if (plus && !(ft.plus[d][v] >= 0.0)) return false;
    }
    return ft.minus[r][u] <= sf.inv_cap(u);
  };
  double lo = 0.0, hi = sf.t_search_upper(u);
  FTables lo_ft, hi_ft;
  EXPECT_TRUE(probe(lo, lo_ft));
  res.evals = 2 * static_cast<std::int64_t>(reach.size());
  if (probe(hi, hi_ft)) {
    res.t = hi;
    return res;
  }
  const double eps = tol * std::max(1.0, hi);
  while (hi - lo > eps) {
    for (const State& st : reach)
      res.evals += bits(value(lo_ft, st)) != bits(value(hi_ft, st));
    const double mid = 0.5 * (lo + hi);
    FTables mid_ft;
    if (probe(mid, mid_ft)) {
      lo = mid;
      lo_ft = std::move(mid_ft);
    } else {
      hi = mid;
      hi_ft = std::move(mid_ft);
    }
  }
  res.t = lo;
  return res;
}

// Production against the reference on every agent: t bitwise, the same
// probes, and exactly the live-set state evaluations.
void expect_matches_reference(const MaxMinInstance& inst, std::int32_t r) {
  const SpecialFormInstance sf(inst);
  for (AgentId u = 0; u < inst.num_agents(); ++u) {
    TSearchStats stats;
    TSearchOptions opt;
    opt.stats = &stats;
    const double t = compute_t_single(sf, u, r, opt);
    const TReferenceResult ref = t_reference(sf, u, r);
    EXPECT_EQ(bits(t), bits(ref.t))
        << "u=" << u << " r=" << r << ": " << t << " vs " << ref.t;
    EXPECT_EQ(stats.t_checks.load(), ref.checks) << "u=" << u << " r=" << r;
    EXPECT_EQ(stats.f_evals.load(), ref.evals) << "u=" << u << " r=" << r;
  }
}

class TReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TReference, ConeMatchesGlobalTableEvaluation) {
  RandomSpecialParams p;
  p.num_agents = 14;
  p.delta_k = 3;
  const MaxMinInstance inst = random_special_form(p, GetParam());
  for (std::int32_t r : {0, 1, 2}) expect_matches_reference(inst, r);
}

// The §4 pipeline's output (gadget rows, big-M coefficients, split agents)
// is what engine C solves in production.
TEST_P(TReference, PipelineOutputMatchesGlobalTableEvaluation) {
  RandomGeneralParams p;
  p.num_agents = 30;
  p.delta_i = 3;
  p.delta_k = 3;
  const Pipeline pipeline = to_special_form(random_general(p, GetParam()));
  expect_matches_reference(pipeline.special, 2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TReference,
                         ::testing::Values(101, 102, 103, 104));

class TUpperBoundsOptimum : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TUpperBoundsOptimum, EveryTuDominatesOmegaStar) {
  RandomSpecialParams p;
  p.num_agents = 20;
  const MaxMinInstance inst = random_special_form(p, GetParam());
  const SpecialFormInstance sf(inst);
  const MaxMinLpResult res = solve_lp_optimum(inst);
  ASSERT_EQ(res.status, LpStatus::kOptimal);
  for (std::int32_t r : {0, 1, 2, 3}) {
    const std::vector<double> t = compute_t_all(sf, r);
    for (AgentId u = 0; u < inst.num_agents(); ++u) {
      EXPECT_GE(t[u], res.omega - 1e-7)
          << "u=" << u << " r=" << r << " (Lemmas 2-3 violated)";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TUpperBoundsOptimum,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

TEST(UpperBound, ParallelMatchesSerial) {
  RandomSpecialParams p;
  p.num_agents = 40;
  const MaxMinInstance inst = random_special_form(p, 33);
  const SpecialFormInstance sf(inst);
  const std::vector<double> serial = compute_t_all(sf, 2, {}, 1);
  const std::vector<double> parallel = compute_t_all(sf, 2, {}, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t v = 0; v < serial.size(); ++v)
    EXPECT_EQ(bits(serial[v]), bits(parallel[v])) << "v=" << v;
}

TEST(UpperBound, ZeroFeasibleAlways) {
  RandomSpecialParams p;
  p.num_agents = 10;
  const MaxMinInstance inst = random_special_form(p, 44);
  const SpecialFormInstance sf(inst);
  for (AgentId u = 0; u < inst.num_agents(); ++u)
    EXPECT_GE(compute_t_single(sf, u, 1), 0.0);
}

}  // namespace
}  // namespace locmm
