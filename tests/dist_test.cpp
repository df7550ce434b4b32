// Tests for the distributed substrate: scheduler semantics, view gathering
// (engine M) equality with directly-built views, and engine M == engine C
// bitwise on the algorithm's output.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/local_solver.hpp"
#include "core/view_solver.hpp"
#include "dist/fault.hpp"
#include "dist/gather.hpp"
#include "gen/generators.hpp"
#include "support/check.hpp"

namespace locmm {
namespace {

// A minimal program: floods a counter for `rounds` rounds, then halts.
class PingProgram final : public NodeProgram {
 public:
  explicit PingProgram(std::int32_t rounds) : rounds_(rounds) {}

  void init(const LocalInput& input) override { degree_ = input.degree; }

  std::vector<Message> send(std::int32_t round) override {
    std::vector<Message> out(static_cast<std::size_t>(degree_));
    for (auto& m : out) m = Message::make_scalar(static_cast<double>(round));
    return out;
  }

  void receive(std::int32_t round, std::span<const Message> inbox) override {
    for (const Message& m : inbox) {
      EXPECT_EQ(m.kind, Message::Kind::kScalar);
      EXPECT_DOUBLE_EQ(m.scalar, static_cast<double>(round));
    }
    done_ = round >= rounds_;
  }

  bool halted() const override { return done_; }

 private:
  std::int32_t rounds_;
  std::int32_t degree_ = 0;
  bool done_ = false;
};

TEST(Scheduler, CountsRoundsAndMessages) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 6}, 1);
  const CommGraph g(inst);
  SyncNetwork net(g);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    programs.push_back(std::make_unique<PingProgram>(3));
  const RunStats stats = net.run(programs, 3);
  EXPECT_EQ(stats.rounds, 3);
  // Each round: one message per directed edge; cycle instance has
  // 6 agents * 4 ports = 24 directed agent-side edges, so 48 total per
  // round including the far ends... every edge counted twice (both
  // directions): 2 * |E| = 2 * 24 = 48.
  EXPECT_EQ(stats.messages, 3 * 48);
  // A scalar costs a full wire frame now (kind + payload + checksum), not
  // just its 8-byte payload.
  EXPECT_EQ(stats.bytes, 3 * 48 * kScalarFrameBytes);
}

TEST(Scheduler, ProgramsMustHaltWithinTheSchedule) {
  // The schedule length is fixed up front; a program still running after
  // the last round is a broken engine, with or without a fault plan.
  const MaxMinInstance inst = cycle_instance({.num_agents = 4}, 1);
  const CommGraph g(inst);
  const auto pings = [&] {
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      programs.push_back(std::make_unique<PingProgram>(3));
    return programs;
  };
  SyncNetwork net(g);
  auto short_plain = pings();
  EXPECT_THROW(net.run(short_plain, 2), CheckError);
  const FaultPlan no_faults(FaultSpec{});
  FaultOutcome out;
  auto short_faulty = pings();
  EXPECT_THROW(net.run(short_faulty, 2, false, &no_faults, &out), CheckError);
  auto full = pings();
  EXPECT_EQ(net.run(full, 3).rounds, 3);
}

TEST(Scheduler, LocalInputMatchesGraph) {
  const MaxMinInstance inst = random_special_form({.num_agents = 10}, 3);
  const CommGraph g(inst);
  for (AgentId v = 0; v < inst.num_agents(); ++v) {
    const LocalInput in = local_input(g, g.agent_node(v));
    EXPECT_EQ(in.type, NodeType::kAgent);
    EXPECT_EQ(in.degree, g.degree(g.agent_node(v)));
    EXPECT_EQ(in.constraint_degree,
              static_cast<std::int32_t>(inst.agent_constraints(v).size()));
    ASSERT_EQ(static_cast<std::int32_t>(in.coeffs.size()), in.degree);
  }
}

TEST(Gather, ViewsMatchDirectConstruction) {
  const MaxMinInstance inst = random_special_form({.num_agents = 12}, 5);
  const CommGraph g(inst);
  SyncNetwork net(g);
  const std::int32_t D = 5;
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    programs.push_back(std::make_unique<GatherProgram>(D, 2, TSearchOptions{}));
  const RunStats stats = net.run(programs, D);
  EXPECT_EQ(stats.rounds, D);

  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto* prog = static_cast<GatherProgram*>(programs[u].get());
    const ViewTree direct = ViewTree::build(g, u, D);
    EXPECT_TRUE(ViewTree::structurally_equal(prog->view(), direct))
        << "node " << u << ": gathered view differs from direct unfolding";
  }
}

TEST(Gather, ViewMessageBytesGrowWithRound) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 8}, 1);
  const CommGraph g(inst);
  SyncNetwork shallow_net(g), deep_net(g);
  auto mk = [&](std::int32_t D) {
    std::vector<std::unique_ptr<NodeProgram>> programs;
    for (NodeId u = 0; u < g.num_nodes(); ++u)
      programs.push_back(  // gather-only mode: R = 0
          std::make_unique<GatherProgram>(D, 0, TSearchOptions{}));
    return programs;
  };
  auto p1 = mk(2);
  auto p2 = mk(6);
  const RunStats s1 = shallow_net.run(p1, 2);
  const RunStats s2 = deep_net.run(p2, 6);
  EXPECT_GT(s2.bytes, s1.bytes);
  EXPECT_GT(s2.max_message_bytes, s1.max_message_bytes);
}

void expect_m_equals_c(const MaxMinInstance& special, std::int32_t R) {
  const SpecialFormInstance sf(special);
  const SpecialRunResult c = solve_special_centralized(sf, R);
  const MessageRunResult m = solve_special_message_passing(special, R);
  EXPECT_EQ(m.stats.rounds, view_radius(R));
  ASSERT_EQ(m.x.size(), c.x.size());
  for (std::size_t v = 0; v < m.x.size(); ++v)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(m.x[v]),
              std::bit_cast<std::uint64_t>(c.x[v]))
        << "agent " << v;
}

TEST(EngineM, MatchesEngineCOnPair) {
  InstanceBuilder b(2);
  b.add_constraint({{0, 1.0}, {1, 1.0}});
  b.add_objective({{0, 1.0}, {1, 1.0}});
  expect_m_equals_c(b.build(), 2);
  expect_m_equals_c(b.build(), 3);
}

TEST(EngineM, MatchesEngineCOnRandomSpecial) {
  expect_m_equals_c(random_special_form({.num_agents = 10}, 6), 2);
}

TEST(EngineM, MatchesEngineCOnWheel) {
  expect_m_equals_c(layered_instance(
                        {.delta_k = 2, .layers = 5, .width = 1, .twist = 0}),
                    3);
}

TEST(EngineM, RoundsIndependentOfNetworkSize) {
  // The locality headline: doubling the wheel does not change the round
  // count, only the message volume.
  const std::int32_t R = 3;
  MessageRunResult small = solve_special_message_passing(
      layered_instance({.delta_k = 2, .layers = 6, .width = 1, .twist = 0}),
      R);
  MessageRunResult large = solve_special_message_passing(
      layered_instance({.delta_k = 2, .layers = 12, .width = 1, .twist = 0}),
      R);
  EXPECT_EQ(small.stats.rounds, large.stats.rounds);
  EXPECT_GT(large.stats.messages, small.stats.messages);
}

}  // namespace
}  // namespace locmm
