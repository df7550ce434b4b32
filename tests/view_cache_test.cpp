// Tests for the cross-agent view canonicalization layer:
//
//   * hash soundness -- equal canonical hash implies structurally_equal on
//     views generated from the workload families (randomized);
//   * WL soundness -- agents grouped into one view-equivalence class by
//     colour refinement really have structurally equal views;
//   * differential -- cached/canonicalized solve_special_local_views agrees
//     bit-for-bit with the uncanonicalized per-agent path and with engine C,
//     for both engine-L implementations;
//   * determinism -- results are bitwise identical across threads {1, 4, 0}
//     and across cold/warm ViewClassCache solves;
//   * class collapse -- on vertex-transitive instances TSearchStats proves
//     evaluations-performed == distinct-class count, and the class count is
//     a small constant independent of the instance size.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "core/local_solver.hpp"
#include "core/view_class_cache.hpp"
#include "core/view_solver.hpp"
#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "graph/color_refine.hpp"
#include "graph/comm_graph.hpp"
#include "graph/view_tree.hpp"
#include "lp/delta.hpp"
#include "support/prng.hpp"
#include "transform/transform.hpp"

namespace locmm {
namespace {

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(std::memcmp(&a[v], &b[v], sizeof(double)), 0)
        << what << ": agent " << v << " " << a[v] << " vs " << b[v];
  }
}

TEST(CanonicalHash, EqualHashImpliesStructurallyEqual) {
  // Bucket every agent view of several instances by canonical hash and
  // verify each bucket is structurally uniform.  Mixing instance families
  // and seeds also exercises cross-instance collisions.
  std::map<std::uint64_t, ViewTree> bucket_head;
  std::int64_t verified = 0;
  auto check_instance = [&](const MaxMinInstance& inst, std::int32_t depth) {
    const CommGraph g(inst);
    for (AgentId v = 0; v < inst.num_agents(); ++v) {
      ViewTree view = ViewTree::build(g, g.agent_node(v), depth);
      auto [it, inserted] =
          bucket_head.emplace(view.canonical_hash(), std::move(view));
      if (!inserted) {
        EXPECT_TRUE(ViewTree::structurally_equal(
            it->second, ViewTree::build(g, g.agent_node(v), depth)))
            << "hash " << it->first << " agent " << v;
        ++verified;
      }
    }
  };
  for (std::uint64_t seed : {1, 2, 3}) {
    check_instance(cycle_instance({.num_agents = 10}, seed), 5);
    check_instance(
        cycle_instance({.num_agents = 8, .coeff_lo = 0.5, .coeff_hi = 2.0},
                       seed),
        5);
    check_instance(grid_instance({.rows = 4, .cols = 5}, seed), 5);
    RandomSpecialParams p;
    p.num_agents = 14;
    check_instance(random_special_form(p, seed), 5);
  }
  // The symmetric families must actually produce hash-equal pairs,
  // otherwise this test verifies nothing.
  EXPECT_GT(verified, 0);
}

TEST(CanonicalHash, StructurallyEqualViewsShareHash) {
  // The deterministic direction: symmetric cycle agents (see
  // ViewTree.SameViewForSymmetricRoots) must collide.
  const MaxMinInstance inst = cycle_instance({.num_agents = 10}, 3);
  const CommGraph g(inst);
  const ViewTree a = ViewTree::build(g, g.agent_node(3), 5);
  const ViewTree b = ViewTree::build(g, g.agent_node(7), 5);
  ASSERT_TRUE(ViewTree::structurally_equal(a, b));
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());
  EXPECT_EQ(a.secondary_hash(), b.secondary_hash());
}

TEST(ColorRefine, ClassesAreStructurallyUniform) {
  // Every agent must land in the class of an agent with a structurally
  // equal view -- refinement may only merge true duplicates.
  for (std::uint64_t seed : {1, 7}) {
    const MaxMinInstance inst = cycle_instance({.num_agents = 12}, seed);
    const CommGraph g(inst);
    const std::int32_t depth = 6;
    const ViewClasses classes = refine_view_classes(g, depth);
    ASSERT_EQ(classes.class_of.size(),
              static_cast<std::size_t>(inst.num_agents()));
    for (AgentId v = 0; v < inst.num_agents(); ++v) {
      const AgentId rep =
          classes.representative[static_cast<std::size_t>(
              classes.class_of[static_cast<std::size_t>(v)])];
      const ViewTree a = ViewTree::build(g, g.agent_node(v), depth);
      const ViewTree b = ViewTree::build(g, g.agent_node(rep), depth);
      EXPECT_TRUE(ViewTree::structurally_equal(a, b))
          << "agent " << v << " grouped with " << rep;
    }
  }
}

TEST(ColorRefine, DistinguishesCoefficients) {
  // Random coefficients break the cycle's symmetry: refinement must not
  // collapse agents whose views differ in a coefficient.
  const MaxMinInstance inst = cycle_instance(
      {.num_agents = 8, .coeff_lo = 0.5, .coeff_hi = 2.0}, 11);
  const CommGraph g(inst);
  const ViewClasses classes = refine_view_classes(g, 6);
  EXPECT_GT(classes.num_classes(), 1);
  std::int32_t members = 0;
  for (std::int32_t s : classes.class_size) members += s;
  EXPECT_EQ(members, inst.num_agents());
}

TEST(ColorRefine, StabilizesEarlyOnSymmetricInstances) {
  // Agent 0's wrap-around asymmetry splits one hop further per round, so on
  // a small cycle the partition saturates long before a radius-29 request
  // and the class-count bookkeeping stops there.  The hash streams still run
  // all 29 rounds: the colours must fingerprint the full depth-29 unfolding
  // to be sound as cross-instance cache keys (ViewClassCache::color_key).
  const MaxMinInstance inst = cycle_instance({.num_agents = 12}, 3);
  const CommGraph g(inst);
  const ViewClasses classes = refine_view_classes(g, 29);
  EXPECT_TRUE(classes.stabilized);
  EXPECT_LT(classes.stable_rounds, 29);
  EXPECT_EQ(classes.rounds, 29);
  EXPECT_LE(classes.num_classes(), inst.num_agents());

  // Economy mode (full_depth = false, the cache-less solver path) stops the
  // hash sweeps at stabilization and must produce the identical partition.
  const ViewClasses economy = refine_view_classes(g, 29, false);
  EXPECT_TRUE(economy.stabilized);
  EXPECT_EQ(economy.rounds, economy.stable_rounds);
  EXPECT_EQ(economy.stable_rounds, classes.stable_rounds);
  EXPECT_EQ(economy.class_of, classes.class_of);
  EXPECT_EQ(economy.representative, classes.representative);
}

TEST(ColorRefine, ClassCountIndependentOfInstanceSize) {
  // The wrap-around splits reach at most `depth` hops, so growing a
  // symmetric instance leaves the class inventory unchanged: the property
  // that makes whole-instance solves scale with classes, not agents.
  const std::int32_t depth = 5;  // = view_radius(2)
  std::int32_t counts[2];
  std::size_t i = 0;
  for (std::int32_t objectives : {40, 80}) {
    const MaxMinInstance inst = circulant_special_instance(
        {.num_objectives = objectives, .delta_k = 3, .stride = 5}, 1);
    counts[i++] = refine_view_classes(CommGraph(inst), depth).num_classes();
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_LE(counts[0], 32);
}

// Cycle of `n` agents in §5 special form whose constraint coefficients
// follow `pattern` around the cycle: constraint i_j spans {a_j, a_{j+1}}
// with coefficient pattern[2j mod |pattern|] at a_j and
// pattern[2j+1 mod |pattern|] at a_{j+1}; objectives are unit blocks
// {a_{2k}, a_{2k+1}}.  With 2n % |pattern| == 0 the pattern closes
// seamlessly, so two instances sharing a pattern prefix are locally
// identical around an agent until the patterns diverge -- the raw material
// for cross-instance aliasing regressions.
MaxMinInstance patterned_cycle(std::int32_t n,
                               const std::vector<double>& pattern) {
  const auto m = static_cast<std::int32_t>(pattern.size());
  LOCMM_CHECK(n % 2 == 0 && (2 * n) % m == 0);
  InstanceBuilder b(n);
  for (std::int32_t j = 0; j < n; ++j) {
    b.add_constraint(
        {{j, pattern[static_cast<std::size_t>((2 * j) % m)]},
         {(j + 1) % n, pattern[static_cast<std::size_t>((2 * j + 1) % m)]}});
  }
  for (std::int32_t j = 0; j < n; j += 2) {
    b.add_objective({{j, 1.0}, {j + 1, 1.0}});
  }
  return b.build();
}

TEST(ColorRefine, ColorsFingerprintFullDepthAcrossInstances) {
  // Regression for the colour-keyed cross-solve fast path: the colours are
  // instance-independent cache keys (ViewClassCache::color_key), so they
  // must fingerprint the FULL requested depth even when the partition
  // stabilizes earlier.  Here agent 1 of the 1,2,1,3-patterned cycle and
  // agent 1 of the 1,2,1,3,1,4-patterned cycle see identical depth-2 views
  // (the patterns share a prefix around them) but different depth-D views
  // (the next coefficient out is 3 vs 4), so their full-depth colours must
  // separate regardless of where either instance's bookkeeping stopped.
  const std::int32_t depth = 29;
  const MaxMinInstance a = patterned_cycle(12, {1, 2, 1, 3});
  const MaxMinInstance b = patterned_cycle(12, {1, 2, 1, 3, 1, 4});
  const CommGraph ga(a);
  const CommGraph gb(b);
  // Pin the premise: shallow views coincide, deep views differ.
  EXPECT_TRUE(ViewTree::structurally_equal(
      ViewTree::build(ga, ga.agent_node(1), 2),
      ViewTree::build(gb, gb.agent_node(1), 2)));
  EXPECT_FALSE(ViewTree::structurally_equal(
      ViewTree::build(ga, ga.agent_node(1), depth),
      ViewTree::build(gb, gb.agent_node(1), depth)));
  const ViewClasses ca = refine_view_classes(ga, depth);
  const ViewClasses cb = refine_view_classes(gb, depth);
  // The hash streams never stop early...
  EXPECT_EQ(ca.rounds, depth);
  EXPECT_EQ(cb.rounds, depth);
  // ...even though the class-count bookkeeping does.
  EXPECT_TRUE(ca.stabilized);
  EXPECT_TRUE(cb.stabilized);
  EXPECT_LT(ca.stable_rounds, depth);
  EXPECT_LT(cb.stable_rounds, depth);
  const auto ia = static_cast<std::size_t>(ca.class_of[1]);
  const auto ib = static_cast<std::size_t>(cb.class_of[1]);
  EXPECT_FALSE(ca.color_a[ia] == cb.color_a[ib] &&
               ca.color_b[ia] == cb.color_b[ib])
      << "agents with different depth-" << depth
      << " views share a full-depth colour";
}

TEST(ViewCache, SharedCacheAcrossInstancesStaysExact) {
  // End-to-end version of the colour-key regression: solve instance A, then
  // solve its shallow twin B warm through the same cross-solve cache.  Any
  // colour aliasing would silently hand B outputs evaluated on A's views.
  const MaxMinInstance a = patterned_cycle(24, {1, 2, 1, 3});
  const MaxMinInstance b = patterned_cycle(24, {1, 2, 1, 3, 1, 4});
  TSearchOptions uncached;
  uncached.canonicalize_views = false;
  const std::vector<double> base_a =
      solve_special_local_views(a, 2, uncached);
  const std::vector<double> base_b =
      solve_special_local_views(b, 2, uncached);
  // The premise: the twins genuinely produce different outputs.
  EXPECT_NE(base_a, base_b);

  ViewClassCache cache;
  TSearchOptions cached;
  cached.view_cache = &cache;
  const std::vector<double> xa = solve_special_local_views(a, 2, cached);
  const std::vector<double> xb = solve_special_local_views(b, 2, cached);
  expect_bitwise_equal(base_a, xa, "instance A through the shared cache");
  expect_bitwise_equal(base_b, xb, "instance B warm through the shared cache");
}

TEST(ViewCache, RejectsTruncatedViews) {
  // Two views truncated at the same node budget can be indistinguishable --
  // identical surviving node arrays -- even though the full views differ
  // beyond the cut.  No local identity can separate them, so the cache
  // must refuse truncated views outright.
  const MaxMinInstance a = patterned_cycle(12, {1, 2, 1, 3});
  const MaxMinInstance b = patterned_cycle(12, {1, 2, 1, 3, 1, 4});
  const CommGraph ga(a);
  const CommGraph gb(b);
  // Budget 7 cuts both builds at the depth-2/depth-3 boundary, where the
  // instances are still identical around agent 1.
  ViewTree ta;
  ViewTree tb;
  EXPECT_FALSE(ViewTree::try_build_into(ga, ga.agent_node(1), 5, ta, 7));
  EXPECT_FALSE(ViewTree::try_build_into(gb, gb.agent_node(1), 5, tb, 7));
  ASSERT_TRUE(ta.truncated());
  ASSERT_TRUE(tb.truncated());
  EXPECT_FALSE(ViewTree::structurally_equal(
      ViewTree::build(ga, ga.agent_node(1), 5),
      ViewTree::build(gb, gb.agent_node(1), 5)));
  EXPECT_TRUE(ViewTree::structurally_equal(ta, tb));
  EXPECT_EQ(ta.canonical_hash(), tb.canonical_hash());
  ViewClassCache cache;
  double x = 0.0;
  EXPECT_THROW(cache.lookup(ta, 2, 0, &x), CheckError);
  EXPECT_THROW(cache.insert(ta, 2, 0, 1.0), CheckError);
}

void expect_cached_matches_uncached(const MaxMinInstance& inst,
                                    std::int32_t R, ViewEngine engine) {
  TSearchOptions uncached;
  uncached.engine = engine;
  uncached.canonicalize_views = false;
  const std::vector<double> base =
      solve_special_local_views(inst, R, uncached);

  ViewClassCache cache;
  TSearchOptions cached;
  cached.engine = engine;
  cached.view_cache = &cache;
  const std::vector<double> canon =
      solve_special_local_views(inst, R, cached);
  expect_bitwise_equal(base, canon, "canonicalized vs per-agent");

  // Warm solve: every class must come from the cache, bit-identically.
  const std::vector<double> warm = solve_special_local_views(inst, R, cached);
  expect_bitwise_equal(base, warm, "warm cache vs per-agent");
  EXPECT_GT(cache.hits(), 0);

  const SpecialFormInstance sf(inst);
  const SpecialRunResult c = solve_special_centralized(sf, R);
  expect_bitwise_equal(canon, c.x, "canonicalized vs engine C");
}

TEST(ViewCache, CachedMatchesUncachedCycle) {
  // General cycles go through the §4 pipeline first (solve_special_local_
  // views requires special form); the wheel is the natively special cycle.
  for (std::uint64_t seed : {1, 2}) {
    const MaxMinInstance inst = cycle_instance(
        {.num_agents = 9, .coeff_lo = 0.5, .coeff_hi = 2.0}, seed);
    expect_cached_matches_uncached(to_special_form(inst).special, 2,
                                   ViewEngine::kMemoizedDp);
    expect_cached_matches_uncached(to_special_form(inst).special, 2,
                                   ViewEngine::kNaive);
  }
  expect_cached_matches_uncached(
      layered_instance({.delta_k = 2, .layers = 6, .width = 1, .twist = 0}),
      3, ViewEngine::kMemoizedDp);
}

TEST(ViewCache, CachedMatchesUncachedGrid) {
  const MaxMinInstance pipeline_grid = grid_instance(
      {.rows = 4, .cols = 4, .coeff_lo = 0.5, .coeff_hi = 2.0}, 3);
  expect_cached_matches_uncached(to_special_form(pipeline_grid).special, 2,
                                 ViewEngine::kMemoizedDp);
  const MaxMinInstance special_grid = special_grid_instance(
      {.rows = 4, .cols = 4, .coeff_lo = 0.5, .coeff_hi = 2.0}, 9);
  expect_cached_matches_uncached(special_grid, 2, ViewEngine::kMemoizedDp);
  expect_cached_matches_uncached(special_grid, 3, ViewEngine::kMemoizedDp);
}

TEST(ViewCache, CachedMatchesUncachedRegularAndRandom) {
  const MaxMinInstance reg = regular_special_instance(
      {.num_objectives = 4, .delta_k = 3, .constraints_per_agent = 2,
       .coeff_lo = 0.5, .coeff_hi = 2.0},
      6);
  expect_cached_matches_uncached(reg, 2, ViewEngine::kMemoizedDp);
  expect_cached_matches_uncached(reg, 3, ViewEngine::kMemoizedDp);

  const MaxMinInstance circ = circulant_special_instance(
      {.num_objectives = 6, .delta_k = 3, .stride = 4, .coeff_lo = 0.5,
       .coeff_hi = 2.0},
      8);
  expect_cached_matches_uncached(circ, 2, ViewEngine::kMemoizedDp);

  RandomSpecialParams p;
  p.num_agents = 12;
  for (std::uint64_t seed : {11, 12}) {
    expect_cached_matches_uncached(random_special_form(p, seed), 2,
                                   ViewEngine::kMemoizedDp);
  }
}

TEST(ViewCache, ThreadCountDoesNotChangeResults) {
  const MaxMinInstance inst = special_grid_instance(
      {.rows = 6, .cols = 5, .coeff_lo = 0.5, .coeff_hi = 2.0}, 17);
  TSearchOptions opt;  // canonicalize_views default-on
  const std::vector<double> serial =
      solve_special_local_views(inst, 2, opt, 1);
  const std::vector<double> four = solve_special_local_views(inst, 2, opt, 4);
  const std::vector<double> all = solve_special_local_views(inst, 2, opt, 0);
  expect_bitwise_equal(serial, four, "threads 1 vs 4");
  expect_bitwise_equal(serial, all, "threads 1 vs 0");

  // Same determinism with a shared cache under contention.
  ViewClassCache cache;
  opt.view_cache = &cache;
  const std::vector<double> cold = solve_special_local_views(inst, 2, opt, 0);
  const std::vector<double> warm = solve_special_local_views(inst, 2, opt, 4);
  expect_bitwise_equal(serial, cold, "cold shared cache");
  expect_bitwise_equal(serial, warm, "warm shared cache");
}

// On vertex-transitive instances the pipeline must run exactly one
// evaluation per class, and the class count must be a small constant
// independent of the instance size.  Returns the class count so callers can
// assert size-independence.
std::int64_t expect_class_collapse(const MaxMinInstance& inst, std::int32_t R,
                                   std::int64_t max_classes) {
  TSearchStats stats;
  TSearchOptions opt;
  opt.stats = &stats;
  const std::vector<double> x = solve_special_local_views(inst, R, opt);
  EXPECT_EQ(x.size(), static_cast<std::size_t>(inst.num_agents()));
  EXPECT_EQ(stats.view_evals.load(), stats.view_classes.load());
  EXPECT_LE(stats.view_classes.load(), max_classes);
  EXPECT_EQ(stats.evals_avoided.load(),
            inst.num_agents() - stats.view_evals.load());
  return stats.view_classes.load();
}

TEST(ViewCache, ClassCollapseOnVertexTransitiveInstances) {
  // Wrap-around port orders split views within `depth` hops of the seam
  // (see ViewTree.SameViewForSymmetricRoots), hence "small constant" rather
  // than exactly 1 -- but growing the instance must leave the class count
  // unchanged while agents double.
  // Cycle (wheel): natively special 4L-cycle.
  const std::int64_t wheel16 = expect_class_collapse(
      layered_instance({.delta_k = 2, .layers = 16, .width = 1, .twist = 0}),
      2, 24);
  const std::int64_t wheel32 = expect_class_collapse(
      layered_instance({.delta_k = 2, .layers = 32, .width = 1, .twist = 0}),
      2, 24);
  EXPECT_EQ(wheel16, wheel32);
  // Torus grid.
  const std::int64_t grid8 = expect_class_collapse(
      special_grid_instance({.rows = 8, .cols = 8}, 3), 2, 64);
  const std::int64_t grid16 = expect_class_collapse(
      special_grid_instance({.rows = 8, .cols = 16}, 3), 2, 64);
  EXPECT_EQ(grid8, grid16);
  // 3-regular circulant.
  const std::int64_t circ40 = expect_class_collapse(
      circulant_special_instance(
          {.num_objectives = 40, .delta_k = 3, .stride = 5}, 3),
      2, 48);
  const std::int64_t circ80 = expect_class_collapse(
      circulant_special_instance(
          {.num_objectives = 80, .delta_k = 3, .stride = 5}, 3),
      2, 48);
  EXPECT_EQ(circ40, circ80);
}

TEST(ViewCache, StatsReportStageTimings) {
  TSearchStats stats;
  TSearchOptions opt;
  opt.stats = &stats;
  solve_special_local_views(special_grid_instance({.rows = 6, .cols = 5}, 2),
                            2, opt);
  EXPECT_GT(stats.view_classes.load(), 0);
  // Stage timers are cumulative microseconds; they must at least be
  // written (>= 0 trivially, but class_eval covers real work).
  EXPECT_GE(stats.refine_us.load(), 0);
  EXPECT_GT(stats.class_eval_us.load(), 0);
  EXPECT_GE(stats.broadcast_us.load(), 0);
}

TEST(ViewClassCacheUnit, HitRequiresMatchingKey) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 10}, 3);
  const CommGraph g(inst);
  const ViewTree view = ViewTree::build(g, g.agent_node(3), 5);
  ViewClassCache cache;
  const std::uint64_t fp = ViewClassCache::options_fingerprint({});
  double x = 0.0;
  EXPECT_FALSE(cache.lookup(view, 2, fp, &x));
  cache.insert(view, 2, fp, 0.25);
  EXPECT_TRUE(cache.lookup(view, 2, fp, &x));
  EXPECT_EQ(x, 0.25);
  // Different R or different options miss.
  EXPECT_FALSE(cache.lookup(view, 3, fp, &x));
  TSearchOptions other;
  other.tol = 1e-6;
  EXPECT_FALSE(
      cache.lookup(view, 2, ViewClassCache::options_fingerprint(other), &x));
  // A structurally different view misses even at the same R.
  const ViewTree deeper = ViewTree::build(g, g.agent_node(3), 6);
  EXPECT_FALSE(cache.lookup(deeper, 2, fp, &x));
  EXPECT_EQ(cache.entries(), 1);
  cache.clear();
  EXPECT_FALSE(cache.lookup(view, 2, fp, &x));
  EXPECT_EQ(cache.entries(), 0);
}

TEST(ViewClassCacheUnit, FingerprintSeparatesSubQuantumCoefficients) {
  // The canonical hash quantizes coefficients (~2^-40 relative), so two
  // views whose coefficients differ by 1e-15 share it -- the exact arbiter
  // must still separate them.  On the fingerprint-only path (no stored
  // representative) that arbiter is the secondary stream, which folds the
  // EXACT coefficient bits: a regression here would hand one instance's
  // output to the other.
  auto tiny = [](double coeff) {
    InstanceBuilder b(2);
    b.add_constraint({{0, coeff}, {1, 1.0}});
    b.add_objective({{0, 1.0}, {1, 1.0}});
    return b.build();
  };
  const MaxMinInstance ia = tiny(1.0);
  const MaxMinInstance ib = tiny(1.0 + 1e-15);
  const CommGraph ga(ia), gb(ib);
  const ViewTree va = ViewTree::build(ga, ga.agent_node(0), 5);
  const ViewTree vb = ViewTree::build(gb, gb.agent_node(0), 5);
  ASSERT_FALSE(ViewTree::structurally_equal(va, vb));
  // Sub-quantum difference: canonical hashes collide by design...
  EXPECT_EQ(va.canonical_hash(), vb.canonical_hash());
  // ...and the exact-coefficient stream separates them.
  EXPECT_NE(va.secondary_hash(), vb.secondary_hash());

  ViewClassCache::Config cfg;
  cfg.verify_node_limit = 0;  // force the fingerprint-only path
  ViewClassCache cache(cfg);
  const std::uint64_t fp = ViewClassCache::options_fingerprint({});
  cache.insert(va, 2, fp, 1.0);
  double x = 0.0;
  EXPECT_TRUE(cache.lookup(va, 2, fp, &x));
  EXPECT_FALSE(cache.lookup(vb, 2, fp, &x));  // must NOT merge
}

TEST(ViewClassCacheUnit, ColorKeyedFastPath) {
  ViewClassCache cache;
  const std::uint64_t k1 = ViewClassCache::color_key(1, 2, 5, 2, 7);
  double x = 0.0;
  EXPECT_FALSE(cache.lookup_color(k1, &x));
  cache.insert_color(k1, 0.75);
  EXPECT_TRUE(cache.lookup_color(k1, &x));
  EXPECT_EQ(x, 0.75);
  // Any differing component -- colours, rounds, R, fingerprint -- misses.
  EXPECT_FALSE(cache.lookup_color(ViewClassCache::color_key(1, 3, 5, 2, 7),
                                  &x));
  EXPECT_FALSE(cache.lookup_color(ViewClassCache::color_key(1, 2, 6, 2, 7),
                                  &x));
  EXPECT_FALSE(cache.lookup_color(ViewClassCache::color_key(1, 2, 5, 3, 7),
                                  &x));
  EXPECT_FALSE(cache.lookup_color(ViewClassCache::color_key(1, 2, 5, 2, 8),
                                  &x));
  cache.clear();
  EXPECT_FALSE(cache.lookup_color(k1, &x));
}

TEST(ViewCache, WarmSolveSkipsViewBuilds) {
  // A warm solve must answer every class from the colour-keyed fast path:
  // zero evaluations, hits == classes, still bit-identical.
  const MaxMinInstance inst = special_grid_instance(
      {.rows = 6, .cols = 5, .coeff_lo = 0.5, .coeff_hi = 2.0}, 21);
  ViewClassCache cache;
  TSearchOptions opt;
  opt.view_cache = &cache;
  const std::vector<double> cold = solve_special_local_views(inst, 2, opt);
  const std::int64_t hits_after_cold = cache.hits();

  TSearchStats stats;
  opt.stats = &stats;
  const std::vector<double> warm = solve_special_local_views(inst, 2, opt);
  expect_bitwise_equal(cold, warm, "warm vs cold");
  EXPECT_EQ(stats.view_evals.load(), 0);
  EXPECT_EQ(stats.class_cache_hits.load(), stats.view_classes.load());
  EXPECT_EQ(cache.hits() - hits_after_cold, stats.view_classes.load());
}

TEST(ViewClassCacheUnit, StructuralCopyAnswersLikeTheOriginal) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 10}, 3);
  const CommGraph g(inst);
  const ViewTree view = ViewTree::build(g, g.agent_node(3), 5);
  const ViewTree copy = view.structural_copy();
  EXPECT_TRUE(ViewTree::structurally_equal(view, copy));
  EXPECT_EQ(view.canonical_hash(), copy.canonical_hash());
  EXPECT_EQ(view.secondary_hash(), copy.secondary_hash());
  EXPECT_EQ(view.size(), copy.size());
}

TEST(ViewClassCacheEviction, LongEditStreamStaysBoundedAndBitIdentical) {
  // A long edit stream through an IncrementalSolver handed a cache: the
  // engine-C tables keep no view classes, so the cache stays empty however
  // long the stream runs (the memory bound is the tables' O(n)), and every
  // output stays bit-identical to a from-scratch solve.
  const MaxMinInstance grid =
      special_grid_instance({.rows = 4, .cols = 10}, 2);
  const std::int32_t R = 2;
  const int steps = 30;

  ViewClassCache cache;
  IncrementalSolver::Options opt;
  opt.R = R;
  opt.cache = &cache;
  IncrementalSolver inc(grid, opt);

  MaxMinInstance cur = grid;
  Rng rng(97);
  for (int step = 0; step < steps; ++step) {
    InstanceDelta delta;
    const auto v = static_cast<AgentId>(
        rng.below(static_cast<std::uint64_t>(grid.num_agents())));
    const auto arcs = inc.special().arcs(v);
    const auto& arc = arcs[rng.below(arcs.size())];
    delta.set_constraint_coeff(arc.id, v, rng.uniform(0.25, 4.0));
    inc.apply(delta);
    cur.apply(delta);
    EXPECT_EQ(cache.entries() + cache.color_entries(), 0);
  }
  expect_bitwise_equal(inc.x(), solve_special_local_views(cur, R),
                       "incremental solver vs from-scratch");
}

TEST(ViewClassCacheUnit, FingerprintOnlyEntriesAboveVerifyLimit) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 10}, 3);
  const CommGraph g(inst);
  const ViewTree view = ViewTree::build(g, g.agent_node(3), 5);
  ViewClassCache::Config cfg;
  cfg.verify_node_limit = 4;  // smaller than any real view
  ViewClassCache cache(cfg);
  const std::uint64_t fp = ViewClassCache::options_fingerprint({});
  cache.insert(view, 2, fp, 1.5);
  EXPECT_EQ(cache.resident_nodes(), 0);  // no representative copy kept
  double x = 0.0;
  EXPECT_TRUE(cache.lookup(view, 2, fp, &x));
  EXPECT_EQ(x, 1.5);
  // The structurally different deeper view still misses (size + hashes).
  const ViewTree deeper = ViewTree::build(g, g.agent_node(3), 6);
  EXPECT_FALSE(cache.lookup(deeper, 2, fp, &x));
}

}  // namespace
}  // namespace locmm
