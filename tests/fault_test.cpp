// Tests for the fault-tolerance layer (dist/fault.hpp): the seeded
// FaultPlan decision procedure, the delivery-boundary detectors (the frame
// decoder and wire_view_well_formed), and -- the headline -- chaos
// runs of engines M and S under combined drop / corruption / duplication /
// reordering / crash-with-restart scenarios that must recover bitwise
// identical to the fault-free oracle, plus degradation scenarios (exhausted
// retransmit budget, permanent crash) whose per-agent `degraded` flags must
// be exactly the unrecoverable light cone.
//
// The corruption detector gets an implicit exhaustive workout beyond the
// unit tests here: every chaos run's delivery guard CHECK-fails the whole
// test if any injected corruption of real engine traffic ever evades
// checksum + well-formedness (see SyncNetwork::run under a FaultPlan).
//
// Long variants of the chaos matrix live behind the ctest `slow` label
// (gtest DISABLED_ + the slow_randomized_suites entry in CMakeLists.txt).
#include "dist/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "core/local_solver.hpp"
#include "core/solver_api.hpp"
#include "core/special_form.hpp"
#include "core/view_solver.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "dist/wire.hpp"
#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "graph/comm_graph.hpp"
#include "lp/delta.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
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

// A random special-form-preserving coefficient delta (the incremental_test
// distribution, coefficient edits only: the dynamic fault tests exercise
// the repaired history through the delta fast path).
InstanceDelta random_coeff_delta(const SpecialFormInstance& sf, Rng& rng) {
  const MaxMinInstance& inst = sf.instance();
  InstanceDelta delta;
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
// FaultPlan: validation, determinism, rate calibration
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ValidatesSpec) {
  EXPECT_NO_THROW(FaultPlan(FaultSpec{}));
  EXPECT_FALSE(FaultPlan(FaultSpec{}).any_faults());

  FaultSpec bad;
  bad.drop_rate = 1.5;
  EXPECT_THROW(FaultPlan{bad}, CheckError);
  bad = {};
  bad.corrupt_rate = -0.1;
  EXPECT_THROW(FaultPlan{bad}, CheckError);
  bad = {};
  bad.max_retransmits = -1;
  EXPECT_THROW(FaultPlan{bad}, CheckError);
  bad = {};
  bad.crashes.push_back({.node = 0, .round = 0});
  EXPECT_THROW(FaultPlan{bad}, CheckError);
  bad = {};
  bad.crashes.push_back({.node = 0, .round = 5, .restart_round = 3});
  EXPECT_THROW(FaultPlan{bad}, CheckError);
  bad = {};
  bad.crashes.push_back({.node = 0, .round = 5, .restart_round = 5});
  EXPECT_NO_THROW(FaultPlan{bad});
}

TEST(FaultPlanTest, DeterministicAndSeedSensitive) {
  FaultSpec spec;
  spec.seed = 42;
  spec.drop_rate = 0.3;
  spec.corrupt_rate = 0.3;
  const FaultPlan a(spec);
  const FaultPlan b(spec);
  spec.seed = 43;
  const FaultPlan c(spec);

  int diffs = 0;
  for (std::int32_t round = 1; round <= 10; ++round) {
    for (NodeId node = 0; node < 20; ++node) {
      for (std::int32_t port = 0; port < 3; ++port) {
        for (std::int32_t attempt = 0; attempt < 2; ++attempt) {
          EXPECT_EQ(a.drops(round, node, port, attempt),
                    b.drops(round, node, port, attempt));
          EXPECT_EQ(a.corrupts(round, node, port, attempt),
                    b.corrupts(round, node, port, attempt));
          EXPECT_EQ(a.corruption_bits(round, node, port),
                    b.corruption_bits(round, node, port));
          diffs += a.drops(round, node, port, attempt) !=
                   c.drops(round, node, port, attempt);
        }
      }
    }
  }
  EXPECT_GT(diffs, 0) << "seed change produced identical drop decisions";
}

TEST(FaultPlanTest, RatesAreCalibrated) {
  FaultSpec spec;
  spec.seed = 7;
  spec.drop_rate = 0.1;
  const FaultPlan plan(spec);
  std::int64_t fired = 0, total = 0;
  for (std::int32_t round = 1; round <= 50; ++round) {
    for (NodeId node = 0; node < 100; ++node) {
      for (std::int32_t port = 0; port < 4; ++port) {
        fired += plan.drops(round, node, port, 0);
        ++total;
      }
    }
  }
  const double freq = static_cast<double>(fired) / static_cast<double>(total);
  EXPECT_NEAR(freq, 0.1, 0.01);

  spec.drop_rate = 0.0;
  EXPECT_FALSE(FaultPlan(spec).drops(1, 0, 0, 0));
  spec.drop_rate = 1.0;
  EXPECT_TRUE(FaultPlan(spec).drops(1, 0, 0, 0));
}

// ---------------------------------------------------------------------------
// Delivery-boundary detection: checksum + well-formedness
// ---------------------------------------------------------------------------

// A structurally valid two-level wire blob, shaped like what
// ViewGatherCore::send actually emits (root's parent_port = the port
// leading back to the receiver, non-backtracking children below it).
std::vector<WireNode> valid_blob() {
  WireNode root;
  root.type = NodeType::kAgent;
  root.degree = 3;
  root.constraint_degree = 2;
  root.parent_port = 1;
  root.parent_coeff = 1.25;
  root.num_children = 2;
  WireNode c1;
  c1.type = NodeType::kConstraint;
  c1.degree = 2;
  c1.parent_port = 0;
  c1.parent_coeff = 0.75;
  c1.num_children = 0;
  WireNode c2;
  c2.type = NodeType::kObjective;
  c2.degree = 2;
  c2.parent_port = 1;
  c2.parent_coeff = 1.0;
  c2.num_children = 0;
  return {root, c1, c2};
}

TEST(FaultDetection, ScalarSingleBitFlipsDetectedExhaustively) {
  // Every one of the 17 * 8 frame bits -- kind byte, all 64 payload bits
  // (including the sign bit of 0.0), and the checksum field itself.  Any
  // single flip must make the real decoder reject the frame: every header
  // bit is load-bearing and every payload bit is checksummed.
  for (const double value : {1.7, 0.0, -3.25e-12}) {
    const std::vector<std::uint8_t> clean =
        encode_message(Message::make_scalar(value));
    ASSERT_EQ(static_cast<std::int64_t>(clean.size()), kScalarFrameBytes);
    for (std::uint64_t b = 0; b < 8 * clean.size(); ++b) {
      std::vector<std::uint8_t> frame = clean;
      corrupt_frame(frame, b);
      Message out;
      EXPECT_NE(decode_message_frame(frame, out), WireDecodeStatus::kOk)
          << "bit " << b << " of scalar " << value << " evaded the decoder";
    }
  }
}

TEST(FaultDetection, ViewCorruptionsDetected) {
  const Message clean_msg = Message::make_view(valid_blob());
  const std::vector<std::uint8_t> clean = encode_message(clean_msg);
  ASSERT_EQ(static_cast<std::int64_t>(clean.size()), clean_msg.byte_size());
  // Exhaustively flip every bit of the encoded view frame -- envelope,
  // packed headers, coefficients, checksum -- and sweep 4096 extra
  // pseudo-random selectors through corrupt_frame's modular bit choice.
  // The decoder must reject every single-bit corruption.
  for (std::uint64_t b = 0; b < 8 * clean.size(); ++b) {
    std::vector<std::uint8_t> frame = clean;
    corrupt_frame(frame, b);
    Message out;
    EXPECT_NE(decode_message_frame(frame, out), WireDecodeStatus::kOk)
        << "frame bit " << b << " evaded the decoder";
  }
  for (std::uint64_t t = 0; t < 4096; ++t) {
    std::vector<std::uint8_t> frame = clean;
    corrupt_frame(frame, mix64(t));
    Message out;
    EXPECT_NE(decode_message_frame(frame, out), WireDecodeStatus::kOk)
        << "selector " << t << " evaded the decoder";
  }
}

TEST(FaultDetection, DetectableCorruptionNeverCollides) {
  // corrupt_frame_detectably must hand back a frame the decoder rejects --
  // it regenerates on (astronomically unlikely) checksum collisions and
  // CHECKs if the decoder were ever to accept 64 distinct flips, so a
  // successful return IS the guarantee.  Exercise it across both kinds and
  // many seeds.
  const Message msgs[] = {Message::make_scalar(2.5),
                          Message::make_view(valid_blob())};
  for (const Message& m : msgs) {
    const std::vector<std::uint8_t> clean = encode_message(m);
    for (std::uint64_t seed = 0; seed < 512; ++seed) {
      std::vector<std::uint8_t> frame = clean;
      corrupt_frame_detectably(frame, seed);
      EXPECT_NE(frame, clean);
      Message out;
      EXPECT_NE(decode_message_frame(frame, out), WireDecodeStatus::kOk);
    }
  }
}

TEST(FaultDetection, MalformedBlobsRejected) {
  EXPECT_FALSE(wire_view_well_formed({}));
  EXPECT_TRUE(wire_view_well_formed(valid_blob()));

  auto mutate = [](auto fn) {
    std::vector<WireNode> blob = valid_blob();
    fn(blob);
    return wire_view_well_formed(blob);
  };
  // Field damage.
  EXPECT_FALSE(mutate([](auto& b) { b[1].degree = 0; }));
  EXPECT_FALSE(mutate([](auto& b) { b[0].parent_port = 3; }));
  EXPECT_FALSE(mutate([](auto& b) { b[0].parent_port = -1; }));
  EXPECT_FALSE(mutate([](auto& b) { b[0].num_children = 3; }));
  EXPECT_FALSE(mutate([](auto& b) { b[1].constraint_degree = 1; }));
  EXPECT_FALSE(mutate([](auto& b) { b[0].constraint_degree = 4; }));
  EXPECT_FALSE(
      mutate([](auto& b) { b[0].type = static_cast<NodeType>(7); }));
  // Structural damage: forest instead of one tree, or missing subtrees.
  EXPECT_FALSE(mutate([](auto& b) { b[0].num_children = 1; }));
  EXPECT_FALSE(mutate([](auto& b) { b.pop_back(); }));
}

// ---------------------------------------------------------------------------
// Headline chaos matrix: recoverable scenarios must land bitwise on the
// fault-free oracle with accurate accounting
// ---------------------------------------------------------------------------

FaultPlan chaos_plan(const CommGraph& g, std::uint64_t seed) {
  FaultSpec fs;
  fs.seed = seed;
  fs.drop_rate = 0.08;
  fs.corrupt_rate = 0.04;
  fs.duplicate_rate = 0.05;
  fs.reorder_rate = 0.10;
  fs.max_retransmits = 12;
  // One mid-schedule crash that restarts: recoverable by cone replay.
  fs.crashes.push_back(
      {.node = g.num_nodes() / 3, .round = 2, .restart_round = 3});
  return FaultPlan(fs);
}

void check_recovered_stats(const RunStats& st, std::int32_t rounds,
                           std::int32_t max_retransmits) {
  EXPECT_EQ(st.rounds, rounds);
  EXPECT_EQ(st.messages, st.fresh_messages + st.replayed_messages);
  EXPECT_EQ(st.bytes, st.fresh_bytes + st.replayed_bytes);
  EXPECT_GT(st.dropped_messages, 0);
  EXPECT_GT(st.corrupted_messages, 0);
  EXPECT_GT(st.duplicated_messages, 0);
  EXPECT_GT(st.reordered_messages, 0);
  EXPECT_GT(st.retransmitted_messages, 0);
  EXPECT_GT(st.retransmitted_bytes, 0);
  // Every retransmitted slot traces back to a drop or a rejected
  // corruption, and in a recovered run all of them eventually landed.
  EXPECT_GT(st.recovered_messages, 0);
  EXPECT_LE(st.recovered_messages,
            st.dropped_messages + st.corrupted_messages);
  EXPECT_EQ(st.unrecovered_slots, 0);
  EXPECT_GE(st.recovery_rounds, 1);
  EXPECT_LE(st.recovery_rounds, max_retransmits * rounds);
}

void run_chaos(const MaxMinInstance& special, std::int32_t R,
               std::uint64_t seed) {
  const CommGraph g(special);
  const FaultPlan plan = chaos_plan(g, seed);

  const MessageRunResult oracle_m = solve_special_message_passing(special, R);
  MessageRunResult m =
      solve_special_message_passing(special, R, {}, 1, &plan);
  expect_same_vector(m.x, oracle_m.x, "chaos M vs fault-free M", 0);
  ASSERT_EQ(m.degraded.size(), m.x.size());
  for (std::size_t v = 0; v < m.degraded.size(); ++v)
    EXPECT_EQ(m.degraded[v], 0) << "agent " << v;
  check_recovered_stats(m.stats, view_radius(R), plan.spec().max_retransmits);

  const MessageRunResult oracle_s = solve_special_streaming(special, R);
  MessageRunResult s = solve_special_streaming(special, R, {}, 1, &plan);
  expect_same_vector(s.x, oracle_s.x, "chaos S vs fault-free S", 0);
  ASSERT_EQ(s.degraded.size(), s.x.size());
  for (std::size_t v = 0; v < s.degraded.size(); ++v)
    EXPECT_EQ(s.degraded[v], 0) << "agent " << v;
  check_recovered_stats(s.stats, streaming_rounds(R),
                        plan.spec().max_retransmits);
}

TEST(FaultChaos, WheelRecoversBitwise) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 24, .width = 1, .twist = 0});
  for (const std::int32_t R : {2, 3})
    run_chaos(wheel, R, 811 + static_cast<std::uint64_t>(R));
}

TEST(FaultChaos, GridRecoversBitwise) {
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  run_chaos(grid, 2, 822);
}

TEST(FaultChaos, CirculantRecoversBitwise) {
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 12, .delta_k = 3}, 3);
  run_chaos(circ, 2, 833);
}

// Long chaos matrix: ctest label `slow` (see CMakeLists.txt).
TEST(FaultChaosSlow, DISABLED_FullMatrix) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 30, .width = 1, .twist = 0});
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 9}, 2);
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 14, .delta_k = 3}, 3);
  for (const std::int32_t R : {2, 3}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      run_chaos(wheel, R, 900 + 10 * seed + static_cast<std::uint64_t>(R));
      run_chaos(grid, R, 940 + 10 * seed + static_cast<std::uint64_t>(R));
      run_chaos(circ, R, 980 + 10 * seed + static_cast<std::uint64_t>(R));
    }
  }
}

// ---------------------------------------------------------------------------
// Degradation: exhausted budgets and permanent crashes complete with
// accurate flags instead of aborting
// ---------------------------------------------------------------------------

TEST(FaultDegradation, ExhaustedBudgetDegradesAccurately) {
  // A long wheel and a low drop rate keep the terminal cones (radius up to
  // D - 1 = 4 here) from swallowing the whole ring: the containment
  // assertion below is the point of the test.
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 60, .width = 1, .twist = 0});
  const std::int32_t R = 2;
  FaultSpec fs;
  fs.seed = 17;
  fs.drop_rate = 0.02;
  fs.max_retransmits = 0;  // recovery disabled: every drop is terminal
  const FaultPlan plan(fs);

  // Engine M: the fallback is the same per-view evaluation engine M itself
  // runs, so even degraded agents land bitwise on the oracle -- what the
  // flags add is the honest report of which values the network never
  // actually produced.
  const MessageRunResult oracle_m = solve_special_message_passing(wheel, R);
  const MessageRunResult m =
      solve_special_message_passing(wheel, R, {}, 1, &plan);
  expect_same_vector(m.x, oracle_m.x, "degraded M vs fault-free M", 0);
  std::int64_t flagged = 0;
  for (const std::uint8_t f : m.degraded) flagged += f;
  EXPECT_GT(flagged, 0) << "10% drop with zero budget degraded nothing";
  EXPECT_LT(flagged, static_cast<std::int64_t>(m.degraded.size()))
      << "the whole network degraded: the cone containment failed";
  EXPECT_GT(m.stats.unrecovered_slots, 0);
  EXPECT_EQ(m.stats.recovered_messages, 0);
  EXPECT_EQ(m.stats.recovery_rounds, 0);

  // Engine S: un-degraded agents bitwise, and so are the degraded ones: they
  // carry the engine-L fallback, which shares S's reduction order.
  const MessageRunResult oracle_s = solve_special_streaming(wheel, R);
  const MessageRunResult s =
      solve_special_streaming(wheel, R, {}, 1, &plan);
  ASSERT_EQ(s.x.size(), oracle_s.x.size());
  std::int64_t s_flagged = 0;
  for (std::size_t v = 0; v < s.x.size(); ++v) {
    if (s.degraded[v] != 0) {
      ++s_flagged;
      EXPECT_TRUE(same_bits(s.x[v], oracle_s.x[v])) << "agent " << v;
    } else {
      EXPECT_TRUE(same_bits(s.x[v], oracle_s.x[v]))
          << "un-degraded agent " << v << " not bitwise fault-free: "
          << s.x[v] << " vs " << oracle_s.x[v];
    }
  }
  EXPECT_GT(s_flagged, 0);
}

TEST(FaultDegradation, PermanentCrashDegradesExactlyTheCone) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 24, .width = 1, .twist = 0});
  const std::int32_t R = 2;
  const std::int32_t D = view_radius(R);
  const CommGraph g(wheel);
  const NodeId dead = g.num_nodes() / 2;
  const std::int32_t crash_round = 2;

  FaultSpec fs;
  fs.seed = 5;
  fs.crashes.push_back(
      {.node = dead, .round = crash_round, .restart_round = -1});
  const FaultPlan plan(fs);
  const MessageRunResult m =
      solve_special_message_passing(wheel, R, {}, 1, &plan);

  // Silence spreads at speed 1 from the crash round: a node at distance d
  // freezes during round crash_round + d - 1, so the unrecoverable cone of
  // a schedule of D rounds is exactly ball(dead, D - crash_round + 1).
  const std::vector<std::int32_t> dist = g.bfs_distances(dead, D + 1);
  const std::int32_t reach = D - crash_round + 1;
  ASSERT_EQ(m.degraded.size(), static_cast<std::size_t>(wheel.num_agents()));
  int inside = 0, outside = 0;
  for (AgentId v = 0; v < wheel.num_agents(); ++v) {
    const std::int32_t dv =
        dist[static_cast<std::size_t>(g.agent_node(v))];
    const bool expect_degraded = dv >= 0 && dv <= reach;
    EXPECT_EQ(m.degraded[static_cast<std::size_t>(v)] != 0, expect_degraded)
        << "agent " << v << " at distance " << dv;
    (expect_degraded ? inside : outside) += 1;
  }
  ASSERT_GT(inside, 0) << "crash cone misses every agent: test is vacuous";
  ASSERT_GT(outside, 0) << "crash cone covers the graph: test is vacuous";

  // The outputs still all match the oracle (engine M's fallback is exact);
  // what must differ is the accounting.
  const MessageRunResult oracle = solve_special_message_passing(wheel, R);
  expect_same_vector(m.x, oracle.x, "permanent crash M", 0);
}

// ---------------------------------------------------------------------------
// Dynamic mode: a recovered faulty cold solve is indistinguishable from a
// never-faulted one; an unrecoverable one degrades to the engine-L path
// ---------------------------------------------------------------------------

TEST(FaultDynamic, RecoveredColdSolveReplaysBitIdentical) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 24, .width = 1, .twist = 0});
  const std::int32_t R = 2;
  const CommGraph g(wheel);
  const FaultPlan plan = chaos_plan(g, 271);

  for (const DynamicEngine engine :
       {DynamicEngine::kMessagePassing, DynamicEngine::kStreaming}) {
    IncrementalSolver::Options fo, co;
    fo.R = co.R = R;
    fo.engine = co.engine = engine;
    fo.cold_faults = &plan;
    IncrementalSolver faulty(wheel, fo);
    IncrementalSolver control(wheel, co);
    EXPECT_FALSE(faulty.degraded_to_local());
    expect_same_vector(faulty.x(), control.x(), "faulty cold solve", -1);

    // The repaired history must be bitwise the fault-free recording: every
    // subsequent delta replays to identical outputs AND identical traffic.
    Rng rng(57 + static_cast<std::uint64_t>(engine));
    for (int step = 0; step < 4; ++step) {
      const InstanceDelta delta = random_coeff_delta(faulty.special(), rng);
      faulty.apply(delta);
      control.apply(delta);
      expect_same_vector(faulty.x(), control.x(), "post-fault replay", step);
      EXPECT_EQ(faulty.last_update().net.fresh_messages,
                control.last_update().net.fresh_messages)
          << "step " << step;
      EXPECT_EQ(faulty.last_update().net.replayed_messages,
                control.last_update().net.replayed_messages)
          << "step " << step;
    }
  }
}

TEST(FaultDynamic, UnrecoverableColdSolveDegradesToLocalPath) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 24, .width = 1, .twist = 0});
  const std::int32_t R = 2;
  const CommGraph g(wheel);
  FaultSpec fs;
  fs.seed = 3;
  fs.crashes.push_back(
      {.node = g.num_nodes() / 2, .round = 2, .restart_round = -1});
  const FaultPlan plan(fs);

  IncrementalSolver::Options opt;
  opt.R = R;
  opt.engine = DynamicEngine::kMessagePassing;
  opt.cold_faults = &plan;
  IncrementalSolver inc(wheel, opt);
  EXPECT_TRUE(inc.degraded_to_local());
  EXPECT_EQ(inc.engine(), DynamicEngine::kMemoizedDp);
  expect_same_vector(inc.x(),
                     solve_special_centralized(SpecialFormInstance(wheel), R).x,
                     "degraded cold solve vs scratch C", -1);

  // Updates carry on over the engine-C tables, still exact.
  MaxMinInstance cur = wheel;
  Rng rng(58);
  for (int step = 0; step < 3; ++step) {
    const InstanceDelta delta = random_coeff_delta(inc.special(), rng);
    inc.apply(delta);
    cur.apply(delta);
    expect_same_vector(inc.x(),
                       solve_special_centralized(SpecialFormInstance(cur), R).x,
                       "degraded-path update vs scratch C", step);
    EXPECT_EQ(inc.last_update().net.fresh_messages, 0);
  }
}

TEST(FaultDynamic, ColdFaultsRejectedForMemoizedEngine) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 8, .width = 1, .twist = 0});
  const FaultPlan plan(FaultSpec{.drop_rate = 0.1});
  IncrementalSolver::Options opt;
  opt.engine = DynamicEngine::kMemoizedDp;
  opt.cold_faults = &plan;
  EXPECT_THROW(IncrementalSolver(wheel, opt), CheckError);
}

// ---------------------------------------------------------------------------
// solve_local plumbing: degraded flags map through the §4 pipeline
// ---------------------------------------------------------------------------

TEST(FaultSolverApi, FaultsRejectedForSimulatedEngines) {
  const MaxMinInstance inst = random_general({.num_agents = 12}, 9);
  const FaultPlan plan(FaultSpec{.drop_rate = 0.1});
  LocalParams params;
  params.engine = LocalEngine::kCentralized;
  params.faults = &plan;
  EXPECT_THROW(solve_local(inst, params), CheckError);
  params.engine = LocalEngine::kLocalViews;
  EXPECT_THROW(solve_local(inst, params), CheckError);
  EXPECT_THROW(LocalResolver(inst, params), CheckError);
}

TEST(FaultSolverApi, RecoveredRunReportsNoDegradation) {
  const MaxMinInstance inst = random_general({.num_agents = 16}, 11);
  const std::int32_t R = 2;
  const Pipeline pipeline = to_special_form(inst);
  const CommGraph g(pipeline.special);
  const FaultPlan plan = chaos_plan(g, 137);

  LocalParams clean_params;
  clean_params.R = R;
  clean_params.engine = LocalEngine::kMessagePassing;
  const LocalSolution clean = solve_local(inst, clean_params);
  EXPECT_TRUE(clean.degraded.empty());
  EXPECT_TRUE(clean.degraded_special.empty());

  LocalParams params = clean_params;
  params.faults = &plan;
  const LocalSolution sol = solve_local(inst, params);
  expect_same_vector(sol.x, clean.x, "recovered solve_local", 0);
  ASSERT_EQ(sol.degraded_special.size(),
            static_cast<std::size_t>(pipeline.special.num_agents()));
  ASSERT_EQ(sol.degraded.size(), static_cast<std::size_t>(inst.num_agents()));
  for (const std::uint8_t f : sol.degraded_special) EXPECT_EQ(f, 0);
  for (const std::uint8_t f : sol.degraded) EXPECT_EQ(f, 0);
  EXPECT_FALSE(sol.degraded_to_local);
}

TEST(FaultSolverApi, DegradedFlagsCoverEveryInexactOriginalAgent) {
  // Engine S under a permanent crash: degraded special agents carry the
  // engine-L fallback instead of the in-network value, so the mapped-back
  // flags must cover every original coordinate that reads one -- un-flagged
  // coordinates are bitwise fault-free, which is the guarantee the flags
  // exist to give.
  const MaxMinInstance inst = random_general({.num_agents = 16}, 13);
  const std::int32_t R = 2;
  const Pipeline pipeline = to_special_form(inst);
  const CommGraph g(pipeline.special);
  FaultSpec fs;
  fs.seed = 29;
  fs.crashes.push_back(
      {.node = g.num_nodes() / 2, .round = 2, .restart_round = -1});
  const FaultPlan plan(fs);

  LocalParams clean_params;
  clean_params.R = R;
  clean_params.engine = LocalEngine::kStreaming;
  const LocalSolution clean = solve_local(inst, clean_params);
  LocalParams params = clean_params;
  params.faults = &plan;
  const LocalSolution sol = solve_local(inst, params);

  std::int64_t special_flagged = 0;
  for (const std::uint8_t f : sol.degraded_special) special_flagged += f;
  ASSERT_GT(special_flagged, 0) << "crash degraded nothing: test is vacuous";

  ASSERT_EQ(sol.degraded.size(), clean.x.size());
  std::int64_t flagged = 0;
  for (std::size_t v = 0; v < sol.x.size(); ++v) {
    flagged += sol.degraded[v];
    if (sol.degraded[v] == 0) {
      EXPECT_TRUE(same_bits(sol.x[v], clean.x[v]))
          << "un-flagged original agent " << v << " is not bitwise exact";
    } else {
      EXPECT_TRUE(same_bits(sol.x[v], clean.x[v])) << "agent " << v;
    }
  }
  EXPECT_GT(flagged, 0);
}

// ---------------------------------------------------------------------------
// Parallel replay: bitwise thread-count invariance (satellite 1)
// ---------------------------------------------------------------------------

TEST(ParallelReplay, RecoveryReplayIsThreadCountInvariant) {
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  const std::int32_t R = 2;
  const CommGraph g(grid);
  const FaultPlan plan = chaos_plan(g, 401);
  const auto factory = [&](NodeId) {
    return std::make_unique<GatherProgram>(view_radius(R), R,
                                           TSearchOptions{});
  };

  SyncNetwork serial(g, /*threads=*/1);
  SyncNetwork parallel(g, /*threads=*/0);
  const MessageRunResult a =
      run_fault_tolerant(serial, &plan, factory, view_radius(R), R);
  const MessageRunResult b =
      run_fault_tolerant(parallel, &plan, factory, view_radius(R), R);
  expect_same_vector(a.x, b.x, "threads=1 vs threads=0", 0);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.recovered_nodes, b.recovered_nodes);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.fresh_messages, b.stats.fresh_messages);
  EXPECT_EQ(a.stats.replayed_messages, b.stats.replayed_messages);
  EXPECT_EQ(a.stats.bytes, b.stats.bytes);
  EXPECT_EQ(a.stats.max_message_bytes, b.stats.max_message_bytes);
  EXPECT_EQ(a.stats.recovered_messages, b.stats.recovered_messages);
  EXPECT_EQ(a.stats.recovery_rounds, b.stats.recovery_rounds);
}

TEST(ParallelReplay, DynamicUpdatesAreThreadCountInvariant) {
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  IncrementalSolver::Options so, po;
  so.R = po.R = 2;
  so.engine = po.engine = DynamicEngine::kMessagePassing;
  so.threads = 1;
  po.threads = 0;
  IncrementalSolver serial(grid, so);
  IncrementalSolver parallel(grid, po);
  Rng rng(402);
  for (int step = 0; step < 3; ++step) {
    const InstanceDelta delta = random_coeff_delta(serial.special(), rng);
    serial.apply(delta);
    parallel.apply(delta);
    expect_same_vector(parallel.x(), serial.x(), "parallel replay", step);
    EXPECT_EQ(serial.last_update().net.fresh_messages,
              parallel.last_update().net.fresh_messages);
    EXPECT_EQ(serial.last_update().net.replayed_messages,
              parallel.last_update().net.replayed_messages);
    EXPECT_EQ(serial.last_update().net.max_message_bytes,
              parallel.last_update().net.max_message_bytes);
  }
}

}  // namespace
}  // namespace locmm
