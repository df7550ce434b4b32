// view_class_cache.hpp -- cross-solve cache of evaluated view-equivalence
// classes.
//
// Engine L's output for an agent is a pure function of (its local view, R,
// the evaluation options): identical views provably produce identical
// outputs in the port-numbering model (PAPER §3, Remarks 4-5), and both
// engine-L implementations are deterministic.  This cache memoizes that
// function across whole-instance solves, so a workload that keeps solving
// instances with recurring local structure (rolling windows over a sensor
// field, per-tick re-solves of a slowly-changing network) pays one
// evaluation per *distinct view class ever seen*, not per agent per solve.
//
// Keying is two-level, exactly as cheap as it can be while staying exact:
//   level 1  (canonical_hash, R, options fingerprint) -> bucket (sharded
//            hash map; the shard index is derived from the key, so
//            concurrent representative evaluations from the thread pool
//            touch disjoint mutexes with high probability);
//   level 2  within a bucket, entries are arbitrated with
//            ViewTree::structurally_equal against the stored representative
//            view -- a hash collision (or a deliberate merge from
//            coefficient quantization) costs one extra comparison, never a
//            wrong result.
//
// Entries whose view exceeds `verify_node_limit` do not keep the
// representative copy (a radius-29 view can run to tens of millions of
// nodes); they fall back to a (canonical_hash, secondary_hash, size)
// fingerprint match.  The two hashes are genuinely independent per-node
// Merkle streams, and the secondary stream folds *exact* coefficient bits
// (no quantization), so a wrong fingerprint-only merge needs a ~2^-128
// simultaneous collision -- in particular, views whose coefficients differ
// below the canonical stream's quantum still separate.
// `resident_node_budget` bounds the total nodes retained across shards
// (entries store a slimmed structural copy, ~52 bytes/node); once
// exhausted, further inserts of any size degrade to fingerprint-only
// entries -- the solve still succeeds and the cache keeps answering, it
// just stops holding representative copies.  Entry records themselves
// (~100 bytes each, plus one colour-keyed double per class) are NOT
// bounded by the budget; clear() is the workload-boundary hammer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/upper_bound.hpp"
#include "graph/view_tree.hpp"

namespace locmm {

class ViewClassCache {
 public:
  struct Config {
    std::size_t shards = 16;
    // Entries above this many view nodes are stored fingerprint-only.
    std::int32_t verify_node_limit = 1 << 20;
    // Total view nodes retained across all shards for exact verification.
    std::int64_t resident_node_budget = 32ll << 20;
  };

  ViewClassCache() : ViewClassCache(Config{}) {}
  explicit ViewClassCache(const Config& config);

  ViewClassCache(const ViewClassCache&) = delete;
  ViewClassCache& operator=(const ViewClassCache&) = delete;

  // The part of TSearchOptions that changes evaluation results (tol,
  // max_iters, exact_lp, engine); instrumentation and pipeline toggles are
  // excluded.
  static std::uint64_t options_fingerprint(const TSearchOptions& opt);

  // Looks `view` up under (canonical hash, R, fp); on a hit, stores the
  // cached output in *x and returns true.  Thread-safe.  CHECK-fails on a
  // truncated view (try_build_into hitting its node budget): everything past
  // the cut is invisible to the identity, so two same-budget truncations of
  // genuinely different views would alias.
  bool lookup(const ViewTree& view, std::int32_t R, std::uint64_t fp,
              double* x);

  // --- colour-keyed fast path ------------------------------------------
  // The WL colour pair of a class (color_refine.hpp) is an
  // instance-independent fingerprint of its complete depth-`rounds`
  // unfolding -- refine_view_classes runs the hash streams for all `depth`
  // requested rounds precisely so that this holds across instances, not
  // just within the solve that produced the colours -- and it is available
  // BEFORE any view is materialised, so a warm solve that hits here skips
  // the representative's view build entirely (the dominant warm cost at
  // large R).  Folding `rounds` (== the view depth) into the key keeps
  // colours refined to different depths apart; a wrong merge needs a
  // ~2^-128 two-stream collision, the same risk level as the
  // fingerprint-only entry fallback.  Colour hits count into hits();
  // colour misses are not counted (the hash-keyed lookup that follows is).
  static std::uint64_t color_key(std::uint64_t color_a, std::uint64_t color_b,
                                 std::int32_t rounds, std::int32_t R,
                                 std::uint64_t fp);
  bool lookup_color(std::uint64_t color_key, double* x);
  void insert_color(std::uint64_t color_key, double x);

  // Records the evaluated output for `view`'s class.  Inserting a class
  // that is already present (e.g. two threads racing on the same miss) is
  // harmless: equal views produce bit-identical outputs, so whichever entry
  // lands first answers all later lookups with the same value.  CHECK-fails
  // on a truncated view (see lookup).
  void insert(const ViewTree& view, std::int32_t R, std::uint64_t fp,
              double x);

  std::int64_t entries() const;
  // Colour-keyed entry records (counted separately from hash-keyed ones).
  std::int64_t color_entries() const;
  std::int64_t hits() const { return hits_.load(); }
  std::int64_t misses() const { return misses_.load(); }
  // View nodes currently retained for exact verification.
  std::int64_t resident_nodes() const { return resident_nodes_.load(); }

  void clear();

 private:
  struct Entry {
    std::uint64_t canonical_hash = 0;
    std::uint64_t secondary_hash = 0;
    std::int32_t size = 0;
    std::int32_t R = 0;
    std::uint64_t fp = 0;
    bool verified = false;  // true when `view` holds the representative copy
    ViewTree view;
    double x = 0.0;
  };
  struct Shard {
    mutable std::mutex mu;
    // Keyed by key_of(); the small per-key vector holds genuine key
    // collisions (distinct classes sharing a 64-bit key), arbitrated by
    // matches().  Lookup/insert stay O(1) expected however many classes a
    // long-lived cache accumulates.
    std::unordered_map<std::uint64_t, std::vector<Entry>> entries;
    // Colour-keyed outputs (see color_key): no arbitration beyond the
    // 128-bit colour folded into the key.
    std::unordered_map<std::uint64_t, double> color_entries;
  };

  std::size_t shard_of(std::uint64_t key) const {
    return static_cast<std::size_t>(key) % shards_.size();
  }
  static std::uint64_t key_of(const ViewTree& view, std::int32_t R,
                              std::uint64_t fp);
  // Matches entry against (view, R, fp): level-1 key fields first, then the
  // level-2 arbiter (structural when the copy is resident, fingerprint
  // otherwise).
  static bool matches(const Entry& e, const ViewTree& view, std::int32_t R,
                      std::uint64_t fp);

  Config config_;
  std::vector<Shard> shards_;
  std::atomic<std::int64_t> hits_{0};
  std::atomic<std::int64_t> misses_{0};
  std::atomic<std::int64_t> resident_nodes_{0};
};

}  // namespace locmm
