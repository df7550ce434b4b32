// Randomized four-way differential property test over the engine quartet:
//
//   C  centralized shared-DP simulation        (core/local_solver.hpp)
//   L  per-agent local-view evaluation         (core/view_solver.hpp)
//   M  message passing with view gathering     (dist/gather.hpp)
//   S  message passing with scalar phases      (dist/streaming.hpp)
//
// All four are realisations of the same §5 algorithm with one reduction
// order, so on every instance they must agree bitwise.  The message engines
// must additionally report
// round counts that depend only on R -- never on the instance size -- which
// is the paper's definition of a local algorithm.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/local_solver.hpp"
#include "core/view_solver.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "gen/generators.hpp"
#include "transform/transform.hpp"

namespace locmm {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_four_way_agreement(const MaxMinInstance& special, std::int32_t R) {
  ASSERT_TRUE(is_special_form(special));
  const SpecialFormInstance sf(special);
  const SpecialRunResult c = solve_special_centralized(sf, R);
  const std::vector<double> l = solve_special_local_views(special, R);
  const MessageRunResult m = solve_special_message_passing(special, R);
  const MessageRunResult s = solve_special_streaming(special, R);

  EXPECT_EQ(m.stats.rounds, view_radius(R));
  EXPECT_EQ(s.stats.rounds, streaming_rounds(R));

  ASSERT_EQ(l.size(), c.x.size());
  ASSERT_EQ(m.x.size(), c.x.size());
  ASSERT_EQ(s.x.size(), c.x.size());
  for (std::size_t v = 0; v < c.x.size(); ++v) {
    EXPECT_TRUE(same_bits(l[v], c.x[v])) << "engine L, agent " << v << " R=" << R;
    EXPECT_TRUE(same_bits(m.x[v], c.x[v])) << "engine M, agent " << v << " R=" << R;
    EXPECT_TRUE(same_bits(s.x[v], c.x[v])) << "engine S, agent " << v << " R=" << R;
  }
}

TEST(DistEngines, FourWayOnRandomSpecial) {
  RandomSpecialParams p;
  p.num_agents = 10;
  p.delta_k = 3;
  for (std::uint64_t seed : {11, 12, 13}) {
    expect_four_way_agreement(random_special_form(p, seed), 2);
  }
  // R = 3 on a sparser family: radius-17 views of denser random instances
  // outgrow what engines L/M can gather (same limit as dp_engine_test).
  p.num_agents = 10;
  p.delta_k = 2;
  p.extra_constraints = 0.3;
  expect_four_way_agreement(random_special_form(p, 14), 3);
}

TEST(DistEngines, FourWayOnCycleViaPipeline) {
  // Cycles have |Kv| = 2, so they reach the engines through the §4 pipeline.
  for (std::uint64_t seed : {1, 2}) {
    const MaxMinInstance inst = cycle_instance(
        {.num_agents = 6, .coeff_lo = 0.5, .coeff_hi = 2.0}, seed);
    const MaxMinInstance special = to_special_form(inst).special;
    expect_four_way_agreement(special, 2);
  }
}

TEST(DistEngines, FourWayOnWheel) {
  expect_four_way_agreement(
      layered_instance({.delta_k = 3, .layers = 4, .width = 2, .twist = 1}),
      2);
  expect_four_way_agreement(
      layered_instance({.delta_k = 2, .layers = 5, .width = 1, .twist = 0}),
      3);
}

TEST(DistEngines, FourWayOnSpecialGrid) {
  for (std::uint64_t seed : {3, 4}) {
    expect_four_way_agreement(
        special_grid_instance(
            {.rows = 4, .cols = 4, .coeff_lo = 0.5, .coeff_hi = 2.0}, seed),
        2);
  }
  expect_four_way_agreement(
      special_grid_instance({.rows = 4, .cols = 5}, 5), 3);
}

TEST(DistEngines, RoundsIndependentOfInstanceSize) {
  // The locality headline, for both message engines: growing the instance
  // grows the message volume but never the round count.
  for (std::int32_t R : {2, 3}) {
    RunStats m_small, m_large, s_small, s_large;
    {
      const MaxMinInstance inst = layered_instance(
          {.delta_k = 2, .layers = 6, .width = 1, .twist = 0});
      m_small = solve_special_message_passing(inst, R).stats;
      s_small = solve_special_streaming(inst, R).stats;
    }
    {
      const MaxMinInstance inst = layered_instance(
          {.delta_k = 2, .layers = 12, .width = 1, .twist = 0});
      m_large = solve_special_message_passing(inst, R).stats;
      s_large = solve_special_streaming(inst, R).stats;
    }
    EXPECT_EQ(m_small.rounds, m_large.rounds) << "R=" << R;
    EXPECT_EQ(s_small.rounds, s_large.rounds) << "R=" << R;
    EXPECT_GT(m_large.messages, m_small.messages) << "R=" << R;
    EXPECT_GT(s_large.messages, s_small.messages) << "R=" << R;
    // The +2-rounds-for-smaller-messages trade (engine S vs engine M).
    EXPECT_EQ(s_large.rounds, m_large.rounds + 2) << "R=" << R;
  }
}

}  // namespace
}  // namespace locmm
