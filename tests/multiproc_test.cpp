// Cross-process conformance for the forked transport (dist/transport.hpp):
// engines M and S running as 1, 2 and 4 OS processes over shared-memory
// rings must land BITWISE on their single-process selves -- and therefore
// on engine C -- on randomized instances of several generator families,
// with RunStats equal to the in-process run's (the byte counters quote the
// same encoder, and every rank counts its own nodes' sends at frame size
// regardless of where the receiver lives).
//
// The slow variant (DISABLED_*Slow*, picked up by the slow_randomized_suites
// ctest entry) drives an edit script: after every delta the dynamic replay
// path (IncrementalSolver over the recorded in-process history) must agree
// bitwise with a fresh 4-rank cross-process solve of the edited instance --
// pinning that replayed dynamics and real multi-process execution describe
// the same network.
//
// Fork-based tests cannot run under TSan (the runtime does not support
// fork-with-threads); they GTEST_SKIP there.  The ASan CI job runs them.
#include "dist/transport.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/local_solver.hpp"
#include "core/special_form.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "lp/delta.hpp"
#include "support/prng.hpp"

#if defined(__SANITIZE_THREAD__)
#define LOCMM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LOCMM_TSAN 1
#endif
#endif

#ifdef LOCMM_TSAN
#define LOCMM_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork-based transports are unsupported under TSan"
#else
#define LOCMM_SKIP_UNDER_TSAN() (void)0
#endif

namespace locmm {
namespace {

void expect_bitwise(const std::vector<double>& got,
                    const std::vector<double>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t v = 0; v < got.size(); ++v) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[v]),
              std::bit_cast<std::uint64_t>(want[v]))
        << what << ", agent " << v;
  }
}

// The full conformance bundle for one (instance, R, ranks) cell.
void expect_conformance(const MaxMinInstance& special, std::int32_t R,
                        std::int32_t ranks,
                        std::int64_t ring_bytes = 4 << 20) {
  const std::string what = "shm x" + std::to_string(ranks);

  const MessageRunResult m1 = solve_special_message_passing(special, R);
  const MessageRunResult s1 = solve_special_streaming(special, R);
  const SpecialRunResult c =
      solve_special_centralized(SpecialFormInstance(special), R);

  DistOptions dist;
  dist.transport = TransportKind::kSharedMemory;
  dist.ranks = ranks;
  dist.ring_bytes = ring_bytes;
  const MessageRunResult m =
      solve_special_message_passing(special, R, {}, 1, nullptr, dist);
  const MessageRunResult s =
      solve_special_streaming(special, R, {}, 1, nullptr, dist);

  // Bitwise against the single-process engines and against engine C.
  expect_bitwise(m.x, m1.x, "engine M " + what);
  expect_bitwise(s.x, s1.x, "engine S " + what);
  expect_bitwise(m.x, c.x, "engine M vs C " + what);
  expect_bitwise(s.x, c.x, "engine S vs C " + what);

  // Stats must be partition-independent: identical to in-process.
  for (const auto& [mp, ip] : {std::pair(m.stats, m1.stats),
                               std::pair(s.stats, s1.stats)}) {
    EXPECT_EQ(mp.rounds, ip.rounds) << what;
    EXPECT_EQ(mp.messages, ip.messages) << what;
    EXPECT_EQ(mp.bytes, ip.bytes) << what;
    EXPECT_EQ(mp.max_message_bytes, ip.max_message_bytes) << what;
    EXPECT_EQ(mp.fresh_messages, ip.fresh_messages) << what;
    EXPECT_EQ(mp.fresh_bytes, ip.fresh_bytes) << what;
  }
}

TEST(Multiprocess, TwoAndFourRanksOnRandomSpecial) {
  LOCMM_SKIP_UNDER_TSAN();
  RandomSpecialParams p;
  p.num_agents = 12;
  p.delta_k = 3;
  for (const std::int32_t ranks : {2, 4}) {
    for (const std::uint64_t seed : {21, 22}) {
      expect_conformance(random_special_form(p, seed), 2, ranks);
    }
  }
}

TEST(Multiprocess, FourRanksAcrossFamilies) {
  LOCMM_SKIP_UNDER_TSAN();
  const MaxMinInstance fams[] = {
      special_grid_instance({.rows = 4, .cols = 4}, 3),
      circulant_special_instance({.num_objectives = 8}, 9),
      regular_special_instance({.num_objectives = 6}, 8),
      layered_instance({.delta_k = 2, .layers = 4, .width = 2, .twist = 1}),
  };
  for (const MaxMinInstance& inst : fams) expect_conformance(inst, 2, 4);
}

TEST(Multiprocess, RadiusThreeOnSparseFamily) {
  LOCMM_SKIP_UNDER_TSAN();
  // R = 3 on the engine-M-tractable sparse family: 31 streaming rounds and
  // radius-17 view blobs crossing real process boundaries.
  const MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = 5, .width = 1, .twist = 0});
  expect_conformance(inst, 3, 2);
}

TEST(Multiprocess, TinyRingForcesWrapAndPartialWrites) {
  LOCMM_SKIP_UNDER_TSAN();
  // The minimum ring capacity: a round of engine-M view traffic is far
  // larger, so every exchange exercises wrap-around, partial write_some and
  // the polling backpressure path.
  RandomSpecialParams p;
  p.num_agents = 12;
  p.delta_k = 3;
  expect_conformance(random_special_form(p, 23), 2, 4, /*ring_bytes=*/1024);
}

TEST(Multiprocess, SingleRankDegenerate) {
  LOCMM_SKIP_UNDER_TSAN();
  // ranks = 1: one forked child, no peers, no exchange -- the degenerate
  // case must still match in-process bitwise.
  RandomSpecialParams p;
  p.num_agents = 8;
  expect_conformance(random_special_form(p, 24), 2, 1);
}

// ---------------------------------------------------------------------------
// Slow: edit script -- dynamic replay vs fresh cross-process solves
// ---------------------------------------------------------------------------

class MultiprocSlow : public ::testing::Test {};

TEST_F(MultiprocSlow, DISABLED_EditScriptReplayMatchesCrossProcess) {
  LOCMM_SKIP_UNDER_TSAN();
  RandomSpecialParams p;
  p.num_agents = 16;
  p.delta_k = 3;
  const MaxMinInstance special = random_special_form(p, 31);
  const std::int32_t R = 2;

  IncrementalSolver::Options mo, so;
  mo.R = so.R = R;
  mo.engine = DynamicEngine::kMessagePassing;
  so.engine = DynamicEngine::kStreaming;
  IncrementalSolver inc_m(special, mo);
  IncrementalSolver inc_s(special, so);
  MaxMinInstance cur = special;

  Rng rng(77);
  for (int step = 0; step < 12; ++step) {
    // Special-form-preserving coefficient bumps on random constraint arcs.
    InstanceDelta delta;
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
      const auto i = static_cast<ConstraintId>(
          rng.below(static_cast<std::uint64_t>(cur.num_constraints())));
      const auto row = cur.constraint_row(i);
      const AgentId v = row[rng.below(row.size())].agent;
      delta.set_constraint_coeff(i, v, rng.uniform(0.25, 4.0));
    }
    inc_m.apply(delta);
    inc_s.apply(delta);
    cur.apply(delta);

    // The replayed dynamic state must equal a fresh 4-rank cross-process
    // solve of the edited instance, bitwise.
    DistOptions dist;
    dist.transport = TransportKind::kSharedMemory;
    dist.ranks = 4;
    const MessageRunResult m =
        solve_special_message_passing(cur, R, {}, 1, nullptr, dist);
    const MessageRunResult s =
        solve_special_streaming(cur, R, {}, 1, nullptr, dist);
    expect_bitwise(inc_m.x(), m.x,
                   "replayed M vs cross-process, step " + std::to_string(step));
    expect_bitwise(inc_s.x(), s.x,
                   "replayed S vs cross-process, step " + std::to_string(step));
  }
}

}  // namespace
}  // namespace locmm
