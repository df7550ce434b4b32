// Tests for engine S (streaming): output equality with engine C, the round
// schedule, and the message-size advantage over engine M's view gathering.
#include <gtest/gtest.h>

#include "core/local_solver.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "gen/generators.hpp"
#include "scratch_oracle.hpp"

namespace locmm {
namespace {

void expect_s_equals_c(const MaxMinInstance& special, std::int32_t R) {
  const SpecialFormInstance sf(special);
  const SpecialRunResult c = solve_special_centralized(sf, R);
  const MessageRunResult s = solve_special_streaming(special, R);
  EXPECT_EQ(s.stats.rounds, streaming_rounds(R));
  ASSERT_EQ(s.x.size(), c.x.size());
  for (std::size_t v = 0; v < s.x.size(); ++v) {
    EXPECT_TRUE(testing::same_bits(s.x[v], c.x[v]))
        << "agent " << v << " R=" << R << ": " << s.x[v] << " vs " << c.x[v];
  }
}

TEST(Streaming, RoundSchedule) {
  EXPECT_EQ(streaming_rounds(2), 7);    // 3 + 2 + 2
  EXPECT_EQ(streaming_rounds(3), 19);   // 7 + 6 + 6
  EXPECT_EQ(streaming_rounds(4), 31);
}

TEST(Streaming, MatchesEngineCOnPair) {
  InstanceBuilder b(2);
  b.add_constraint({{0, 1.0}, {1, 1.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  const MaxMinInstance inst = b.build();
  expect_s_equals_c(inst, 2);
  expect_s_equals_c(inst, 3);
  expect_s_equals_c(inst, 4);
}

TEST(Streaming, MatchesEngineCOnRandomSpecial) {
  RandomSpecialParams p;
  p.num_agents = 16;
  p.delta_k = 3;
  for (std::uint64_t seed : {1, 2, 3}) {
    expect_s_equals_c(random_special_form(p, seed), 2);
  }
}

TEST(Streaming, MatchesEngineCOnRandomSpecialR3) {
  RandomSpecialParams p;
  p.num_agents = 12;
  p.delta_k = 2;
  p.extra_constraints = 0.3;
  expect_s_equals_c(random_special_form(p, 7), 3);
}

TEST(Streaming, MatchesEngineCOnWheel) {
  expect_s_equals_c(layered_instance(
                        {.delta_k = 3, .layers = 4, .width = 2, .twist = 1}),
                    2);
  expect_s_equals_c(layered_instance(
                        {.delta_k = 2, .layers = 6, .width = 1, .twist = 0}),
                    4);
}

TEST(Streaming, SmallerMaxMessageThanGather) {
  // Engine S's largest message is a radius-(4r+3) view; engine M ships
  // radius-(12r+4) views.  For R >= 3 the gap is decisive.
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = 12, .width = 1, .twist = 0});
  const MessageRunResult s = solve_special_streaming(inst, 3);
  const MessageRunResult m = solve_special_message_passing(inst, 3);
  EXPECT_LT(s.stats.max_message_bytes, m.stats.max_message_bytes);
  EXPECT_LT(s.stats.bytes, m.stats.bytes);
  // ... at the cost of two extra rounds.
  EXPECT_EQ(s.stats.rounds, m.stats.rounds + 2);
}

TEST(Streaming, ScalarPhasesDominateMessageCount) {
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = 8, .width = 1, .twist = 0});
  const MessageRunResult s = solve_special_streaming(inst, 2);
  // 7 rounds total over 64 directed edges; phases 2-3 send on alternating
  // sides only, so the count is well under rounds * directed_edges.
  EXPECT_GT(s.stats.messages, 0);
  EXPECT_LT(s.stats.messages, 7 * 64);
}

}  // namespace
}  // namespace locmm
