// Tests for the dynamic message-passing mode (paper §1.3, distributed end
// to end): SyncNetwork record/replay semantics at the substrate level, the
// fresh-vs-replayed accounting, and -- the headline -- a cross-engine
// edit-script harness holding the incremental engines M, S and C
// bit-identical to a scratch engine-C solve after every step of randomized
// edit scripts over cycle / grid / 3-regular instances at R in {2, 3}, with
// fresh message counts bounded by the dirty ball times the round count.
// All four engines share one reduction order, so one oracle pins them all
// (tests/cross_engine_test.cpp).
//
// Long variants of the randomized scripts live behind the ctest `slow`
// label (gtest DISABLED_ + the explicit slow_randomized_suites ctest entry
// in CMakeLists.txt; the CI ASan job runs the label in full).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "core/local_solver.hpp"
#include "core/special_form.hpp"
#include "core/view_solver.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "graph/comm_graph.hpp"
#include "lp/delta.hpp"
#include "support/prng.hpp"

namespace locmm {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_same_vector(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what,
                        int step) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_TRUE(same_bits(got[v], want[v]))
        << what << ", step " << step << ", agent " << v << ": " << got[v]
        << " vs " << want[v];
  }
}

// The dirty seeds of a delta, exactly as IncrementalSolver::apply derives
// them: both endpoints of every touched edge.
std::vector<NodeId> seeds_of(const CommGraph& g, const InstanceDelta& delta) {
  std::vector<NodeId> seeds;
  delta.for_each_touched_edge(
      [&](RowKind kind, std::int32_t row, AgentId agent) {
        seeds.push_back(kind == RowKind::kConstraint ? g.constraint_node(row)
                                                     : g.objective_node(row));
        seeds.push_back(g.agent_node(agent));
      });
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());
  return seeds;
}

// Sum of degrees over ball(seeds, depth) in `g`: one round's worth of the
// dirty ball's sending capacity -- the per-round cap on fresh messages.
// Uses the same multi-source flood the replay's activation does.
std::int64_t ball_degree_sum(const CommGraph& g,
                             const std::vector<NodeId>& seeds,
                             std::int32_t depth) {
  const std::vector<std::int32_t> dist =
      g.bfs_distances(std::span<const NodeId>(seeds), depth);
  std::int64_t sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    if (dist[static_cast<std::size_t>(u)] >= 0) sum += g.degree(u);
  return sum;
}

// A random special-form-preserving delta (the incremental_test distribution:
// coefficient bumps, constraint rewires, objective moves).
InstanceDelta random_special_delta(const SpecialFormInstance& sf, Rng& rng,
                                   bool allow_structural) {
  const MaxMinInstance& inst = sf.instance();
  InstanceDelta delta;
  const std::uint64_t kind = rng.below(allow_structural ? 4 : 2);
  if (kind == 2) {
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
  } else if (kind == 3) {
    for (int attempt = 0; attempt < 50; ++attempt) {
      const auto k = static_cast<ObjectiveId>(
          rng.below(static_cast<std::uint64_t>(inst.num_objectives())));
      const auto r = inst.objective_row(k);
      if (r.size() < 3) continue;
      const AgentId v = r[rng.below(r.size())].agent;
      const auto k2 = static_cast<ObjectiveId>(
          rng.below(static_cast<std::uint64_t>(inst.num_objectives())));
      if (k2 == k) continue;
      bool already = false;
      for (const Entry& e : inst.objective_row(k2)) already |= (e.agent == v);
      if (already) continue;
      delta.remove_from_objective(k, v);
      delta.add_to_objective(k2, v, 1.0);
      return delta;
    }
  }
  const int edits = 1 + static_cast<int>(rng.below(3));
  for (int e = 0; e < edits; ++e) {
    const auto v = static_cast<AgentId>(
        rng.below(static_cast<std::uint64_t>(inst.num_agents())));
    const auto arcs = sf.arcs(v);
    const auto& arc = arcs[rng.below(arcs.size())];
    delta.set_constraint_coeff(arc.id, v, rng.uniform(0.25, 4.0));
  }
  return delta;
}

// ---------------------------------------------------------------------------
// SyncNetwork record/replay substrate semantics
// ---------------------------------------------------------------------------

// A replay re-gathers exactly the ball(seeds, T-1) nodes, splices their
// views bit-identically to a direct unfolding of the edited graph, and a
// later far-away edit touches only its own ball (the steady state: the
// history left behind by one replay serves the next).
TEST(ReplaySubstrate, RegathersOnlyTheDirtyBall) {
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = 60, .width = 1, .twist = 0});
  CommGraph g(inst);
  SyncNetwork net(g);
  const std::int32_t D = 5;  // gather-only depth (R = 0 mode)
  const auto factory = [&](NodeId) {
    return std::make_unique<GatherProgram>(D, 0, TSearchOptions{});
  };

  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId u = 0; u < g.num_nodes(); ++u) programs.push_back(factory(u));
  const RunStats cold = net.run(programs, 1 << 20, /*record=*/true);
  ASSERT_EQ(cold.rounds, D);
  EXPECT_EQ(cold.fresh_messages, cold.messages);
  EXPECT_EQ(cold.replayed_messages, 0);
  ASSERT_TRUE(net.has_history());

  auto run_edit = [&](ConstraintId row) {
    const Entry hit = inst.constraint_row(row)[0];
    g.set_edge_coefficient(g.constraint_node(row), g.agent_node(hit.agent),
                           hit.coeff * 1.75);
    const std::vector<NodeId> seeds = {g.agent_node(hit.agent),
                                       g.constraint_node(row)};
    return net.replay(seeds, factory);
  };

  const SyncNetwork::ReplayResult first = run_edit(0);
  EXPECT_EQ(first.stats.rounds, D);
  EXPECT_GT(first.stats.fresh_messages, 0);
  EXPECT_GT(first.stats.replayed_messages, 0);
  EXPECT_EQ(first.stats.messages,
            first.stats.fresh_messages + first.stats.replayed_messages);
  EXPECT_EQ(first.stats.bytes,
            first.stats.fresh_bytes + first.stats.replayed_bytes);
  // Executed is contained in ball(seeds, D-1); the seed agent is adjacent
  // to the seed row, so everything executed is within D of the row node.
  const auto dist = g.bfs_distances(g.constraint_node(0), D);
  for (const NodeId u : first.executed) {
    const std::int32_t du = dist[static_cast<std::size_t>(u)];
    EXPECT_TRUE(du >= 0 && du <= D)
        << "node " << u << " re-executed outside the dirty ball";
  }
  EXPECT_LT(static_cast<NodeId>(first.executed.size()), g.num_nodes());
  // Every re-gathered view equals the direct unfolding of the edited graph.
  for (std::size_t i = 0; i < first.executed.size(); ++i) {
    const auto* prog =
        static_cast<const GatherProgram*>(first.programs[i].get());
    const ViewTree direct = ViewTree::build(g, first.executed[i], D);
    EXPECT_TRUE(ViewTree::structurally_equal(prog->view(), direct))
        << "node " << first.executed[i];
  }

  // Steady state: an edit far from the first touches only its own ball --
  // same fresh volume (the wheel is locally homogeneous), and no overlap
  // with the first ball.
  const auto far_row =
      static_cast<ConstraintId>(inst.num_constraints() / 2);
  const SyncNetwork::ReplayResult second = run_edit(far_row);
  EXPECT_EQ(second.stats.fresh_messages, first.stats.fresh_messages);
  EXPECT_EQ(second.executed.size(), first.executed.size());
  for (const NodeId u : second.executed) {
    EXPECT_TRUE(std::find(first.executed.begin(), first.executed.end(), u) ==
                first.executed.end())
        << "far edit re-executed node " << u << " of the first edit's ball";
  }
  for (std::size_t i = 0; i < second.executed.size(); ++i) {
    const auto* prog =
        static_cast<const GatherProgram*>(second.programs[i].get());
    const ViewTree direct = ViewTree::build(g, second.executed[i], D);
    EXPECT_TRUE(ViewTree::structurally_equal(prog->view(), direct))
        << "node " << second.executed[i];
  }
}

TEST(ReplaySubstrate, EmptySeedsReplayNothing) {
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = 8, .width = 1, .twist = 0});
  const CommGraph g(inst);
  SyncNetwork net(g);
  std::vector<std::unique_ptr<NodeProgram>> programs;
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    programs.push_back(std::make_unique<GatherProgram>(3, 0, TSearchOptions{}));
  net.run(programs, 1 << 20, /*record=*/true);
  const SyncNetwork::ReplayResult rep =
      net.replay({}, [&](NodeId) {
        return std::make_unique<GatherProgram>(3, 0, TSearchOptions{});
      });
  EXPECT_TRUE(rep.executed.empty());
  EXPECT_EQ(rep.stats.messages, 0);
}

// ---------------------------------------------------------------------------
// Cross-engine edit scripts: incremental M == incremental S == incremental L
// == from-scratch solves, bit for bit, after every step
// ---------------------------------------------------------------------------

void run_cross_engine_script(const MaxMinInstance& special, std::int32_t R,
                             std::uint64_t seed, int steps,
                             bool allow_structural) {
  Rng rng(seed);
  IncrementalSolver::Options mo, so, co;
  mo.R = so.R = co.R = R;
  mo.engine = DynamicEngine::kMessagePassing;
  so.engine = DynamicEngine::kStreaming;
  IncrementalSolver inc_m(special, mo);
  IncrementalSolver inc_s(special, so);
  IncrementalSolver inc_c(special, co);
  MaxMinInstance cur = special;

  // Cold solves must already agree.
  {
    const SpecialRunResult oracle_c =
        solve_special_centralized(SpecialFormInstance(cur), R);
    expect_same_vector(inc_c.x(), oracle_c.x, "cold C", -1);
    expect_same_vector(inc_m.x(), oracle_c.x, "cold M", -1);
    expect_same_vector(inc_s.x(), oracle_c.x, "cold S", -1);
  }
  EXPECT_EQ(inc_m.cold_net_stats().rounds, view_radius(R));
  EXPECT_EQ(inc_s.cold_net_stats().rounds, streaming_rounds(R));

  for (int step = 0; step < steps; ++step) {
    const InstanceDelta delta =
        random_special_delta(inc_c.special(), rng, allow_structural);
    // The ball bound needs both graphs for structural deltas (a removed
    // edge's pre-edit ball is part of what may re-send).
    const std::int64_t pre_ball_m = ball_degree_sum(
        inc_m.graph(), seeds_of(inc_m.graph(), delta), view_radius(R) - 1);
    const std::int64_t pre_ball_s =
        ball_degree_sum(inc_s.graph(), seeds_of(inc_s.graph(), delta),
                        streaming_rounds(R) - 1);

    inc_m.apply(delta);
    inc_s.apply(delta);
    inc_c.apply(delta);
    cur.apply(delta);

    const SpecialRunResult oracle_c =
        solve_special_centralized(SpecialFormInstance(cur), R);
    expect_same_vector(inc_c.x(), oracle_c.x, "incremental C vs scratch C",
                       step);
    expect_same_vector(inc_m.x(), oracle_c.x, "incremental M vs scratch C",
                       step);
    expect_same_vector(inc_s.x(), oracle_c.x, "incremental S vs scratch C",
                       step);

    // Fresh messages are bounded by the dirty ball's sending capacity times
    // the round count (pre + post graphs; a node sends at most deg per
    // round, and only ball nodes ever re-send).
    const auto& um = inc_m.last_update();
    const auto& us = inc_s.last_update();
    const std::int64_t post_ball_m = ball_degree_sum(
        inc_m.graph(), seeds_of(inc_m.graph(), delta), view_radius(R) - 1);
    const std::int64_t post_ball_s =
        ball_degree_sum(inc_s.graph(), seeds_of(inc_s.graph(), delta),
                        streaming_rounds(R) - 1);
    EXPECT_LE(um.net.fresh_messages,
              (pre_ball_m + post_ball_m) *
                  static_cast<std::int64_t>(um.net.rounds))
        << "step " << step;
    EXPECT_LE(us.net.fresh_messages,
              (pre_ball_s + post_ball_s) *
                  static_cast<std::int64_t>(us.net.rounds))
        << "step " << step;
    EXPECT_GT(um.net.fresh_messages, 0);
    EXPECT_GT(us.net.fresh_messages, 0);
    EXPECT_EQ(um.net.rounds, view_radius(R));
    EXPECT_EQ(us.net.rounds, streaming_rounds(R));
    EXPECT_EQ(um.agents_dirty + um.agents_reused, cur.num_agents());
    EXPECT_EQ(us.agents_dirty + us.agents_reused, cur.num_agents());
    EXPECT_EQ(um.net.messages,
              um.net.fresh_messages + um.net.replayed_messages);
    EXPECT_EQ(um.net.bytes, um.net.fresh_bytes + um.net.replayed_bytes);
  }
}

TEST(DynamicDist, CycleWheelScripts) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 24, .width = 1, .twist = 0});
  for (const std::int32_t R : {2, 3}) {
    run_cross_engine_script(wheel, R, 511 + static_cast<std::uint64_t>(R), 3,
                            /*allow_structural=*/false);
  }
}

TEST(DynamicDist, GridScripts) {
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  for (const std::int32_t R : {2, 3}) {
    run_cross_engine_script(grid, R, 522 + static_cast<std::uint64_t>(R), 3,
                            /*allow_structural=*/false);
  }
}

TEST(DynamicDist, ThreeRegularScriptsWithStructuralEdits) {
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 12, .delta_k = 3}, 3);
  run_cross_engine_script(circ, 2, 533, 4, /*allow_structural=*/true);
  run_cross_engine_script(circ, 3, 534, 2, /*allow_structural=*/false);
}

// Long scripts: ctest label `slow` (see CMakeLists.txt); the gtest names
// carry DISABLED_ so tier-1's discovered tests skip them, and the explicit
// slow_randomized_suites entry re-enables them for the CI ASan job.
TEST(DynamicDistSlow, DISABLED_LongMixedScripts) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 30, .width = 1, .twist = 0});
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 9}, 2);
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 14, .delta_k = 3}, 3);
  for (const std::int32_t R : {2, 3}) {
    run_cross_engine_script(wheel, R, 611 + static_cast<std::uint64_t>(R), 8,
                            /*allow_structural=*/true);
    run_cross_engine_script(grid, R, 622 + static_cast<std::uint64_t>(R), 8,
                            /*allow_structural=*/true);
    run_cross_engine_script(circ, R, 633 + static_cast<std::uint64_t>(R),
                            R == 2 ? 8 : 4, /*allow_structural=*/R == 2);
  }
}

// ---------------------------------------------------------------------------
// From-scratch same-engine seal: the incremental distributed solvers land
// exactly where their own cold engines land
// ---------------------------------------------------------------------------

TEST(DynamicDist, IncrementalMatchesScratchSameEngine) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 12, .width = 1, .twist = 0});
  const std::int32_t R = 3;
  IncrementalSolver::Options mo, so;
  mo.R = so.R = R;
  mo.engine = DynamicEngine::kMessagePassing;
  so.engine = DynamicEngine::kStreaming;
  IncrementalSolver inc_m(wheel, mo);
  IncrementalSolver inc_s(wheel, so);

  MaxMinInstance cur = wheel;
  InstanceDelta delta;
  const Entry hit = wheel.constraint_row(3)[0];
  delta.set_constraint_coeff(3, hit.agent, hit.coeff * 0.625);
  inc_m.apply(delta);
  inc_s.apply(delta);
  cur.apply(delta);

  const MessageRunResult m = solve_special_message_passing(cur, R);
  const StreamingRunResult s = solve_special_streaming(cur, R);
  expect_same_vector(inc_m.x(), m.x, "incremental M vs scratch M", 0);
  expect_same_vector(inc_s.x(), s.x, "incremental S vs scratch S", 0);
  // A scratch run is all fresh; the incremental one replayed most of it.
  EXPECT_LT(inc_m.last_update().net.fresh_messages, m.stats.messages);
  EXPECT_LT(inc_s.last_update().net.fresh_messages, s.stats.messages);
}

// ---------------------------------------------------------------------------
// Replay cache invalidation on edge removal: nodes that could reach the
// removed edge in the PRE-edit graph hold stale cached messages and must be
// re-executed even when the post-edit graph puts them far from every seed
// (the pre+post-graph flood IncrementalSolver::apply runs for engine C,
// mirrored into replay() via pre_dist).
// ---------------------------------------------------------------------------

// Two path-clusters of agents joined by one bridge constraint; cluster A's
// capacities are 8x tighter, so cluster B's smoothed bounds s_v genuinely
// depend on what crosses the bridge -- removing it changes B's outputs.
MaxMinInstance bridged_clusters() {
  InstanceBuilder b(12);
  for (AgentId v = 0; v < 5; ++v)
    b.add_constraint({{v, 8.0}, {v + 1, 8.0}});  // rows 0..4: cluster A
  for (AgentId v = 6; v < 11; ++v)
    b.add_constraint({{v, 1.0}, {v + 1, 1.0}});  // rows 5..9: cluster B
  b.add_constraint({{5, 8.0}, {6, 1.0}});        // row 10: the bridge
  for (AgentId v = 0; v < 12; v += 2)
    b.add_objective({{v, 1.0}, {v + 1, 1.0}});
  return b.build();
}

TEST(DynamicDist, BridgeRemovalDirtiesThePreGraphBall) {
  const MaxMinInstance base = bridged_clusters();
  const std::int32_t R = 3;

  // The edit must actually matter across the bridge, or this test guards
  // nothing: removing it changes every cluster-B output.
  MaxMinInstance cur = base;
  InstanceDelta delta;
  delta.remove_from_constraint(10, 6);     // cut the bridge at cluster B...
  delta.add_to_constraint(10, 3, 8.0);     // ...rewire it inside cluster A
  cur.apply(delta);
  const SpecialRunResult before =
      solve_special_centralized(SpecialFormInstance(base), R);
  const SpecialRunResult after =
      solve_special_centralized(SpecialFormInstance(cur), R);
  int changed = 0;
  for (AgentId v = 6; v < 12; ++v)
    changed += !same_bits(before.x[static_cast<std::size_t>(v)],
                          after.x[static_cast<std::size_t>(v)]);
  ASSERT_GT(changed, 0) << "test instance lost its cross-bridge dependence";

  for (const DynamicEngine engine :
       {DynamicEngine::kMemoizedDp, DynamicEngine::kMessagePassing,
        DynamicEngine::kStreaming}) {
    IncrementalSolver::Options opt;
    opt.R = R;
    opt.engine = engine;
    IncrementalSolver inc(base, opt);
    inc.apply(delta);
    expect_same_vector(inc.x(), after.x, "bridge removal", 0);
    // The whole far side sits inside the dirty ball here (the instance is
    // tiny); what matters is that it was NOT skipped.
    EXPECT_GE(inc.last_update().agents_dirty, 6);
  }
}

}  // namespace
}  // namespace locmm
