// color_refine.hpp -- port-numbering Weisfeiler-Leman colour refinement on
// the communication graph: the cheap, graph-side pre-hash of the view
// canonicalization layer.
//
// In the port-numbering model two agents with structurally identical
// radius-D views provably produce identical outputs (PAPER §3, Remarks 4-5),
// so a whole-instance engine-L solve only needs one evaluation per
// *view-equivalence class*.  Materialising views just to discover the
// classes would defeat the purpose (views grow like Delta^D); instead we
// iterate colour refinement directly on CommGraph:
//
//   c_0(v)     = h(type, degree, constraint_degree)
//   c_{t+1}(v) = h(c_t(v), port-ordered sequence of
//                  (c_t(u_p), back-port at u_p, exact coefficient bits))
//
// which is the classic WL unfolding-tree correspondence adapted to ports:
// with a perfect hash, c_D(v) = c_D(u) holds exactly when the depth-D
// truncated unfoldings of v and u are equal as port-numbered trees.  The
// completeness direction (equal views => equal colours) is deterministic --
// every input of the recurrence is part of the depth-D view -- so refinement
// NEVER splits a genuine equivalence class and no deduplication opportunity
// is missed.  The soundness direction (equal colours => equal views) is
// probabilistic; colours are 128-bit (two independently-seeded streams) so a
// wrong merge needs a 2^-128 collision.  Coefficients enter with their exact
// bit pattern (support/hash.hpp coeff_bits_exact): unlike the canonical-hash
// buckets, WL merges are acted on without per-member structural
// verification, so no quantization is allowed here.
//
// Refinement only ever splits classes (c_t is folded into c_{t+1}), so once
// a round leaves the class count unchanged the partition is stable and the
// class-counting bookkeeping stops -- on a symmetric n-agent instance the
// hash-map work costs O(stable_rounds * |E|), independent of D.  The hash
// streams themselves always run the full `depth` rounds (an O(|E|) sweep per
// round, no hash maps): within one instance stopping at stabilization would
// be sound, but the colours are also used as instance-independent cache keys
// (ViewClassCache::color_key), and a colour that only fingerprints the
// depth-t unfolding of a round-t-stable partition does not determine the
// depth-D view of an agent from a different instance -- two instances can
// stabilize at the same t with equal depth-t unfoldings and diverging
// deeper structure.  Running all rounds makes c_depth a fingerprint of the
// complete depth-`depth` unfolding, cross-instance.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/comm_graph.hpp"
#include "support/hash.hpp"

namespace locmm {

struct ViewClasses {
  // Dense class id per agent (indexed by AgentId); ids are assigned in
  // first-seen order over agent ids, so the partition is deterministic.
  std::vector<std::int32_t> class_of;
  // Per class: the smallest member agent (the evaluation representative)
  // and the class size.
  std::vector<AgentId> representative;
  std::vector<std::int32_t> class_size;
  // Per class: the 128-bit WL colour (both streams).  The hash streams run
  // for all `depth` requested rounds (see the preamble), so together with
  // `rounds` (== depth) this is an instance-independent fingerprint of the
  // class's complete depth-`depth` unfolding, usable as a cache key across
  // solves (ViewClassCache::color_key) at the same ~2^-128 risk level as
  // the fingerprint-only entry fallback.
  std::vector<std::uint64_t> color_a;
  std::vector<std::uint64_t> color_b;
  // Hash rounds executed: the requested depth with full_depth (whenever
  // depth > 0), else == stable_rounds (the sweeps stop at stabilization).
  std::int32_t rounds = 0;
  // Whether the partition reached a fixed point within `depth` rounds, and
  // the round at which it did (== rounds when it never stabilized).  Only
  // the class-count bookkeeping stops there; the colours keep refining.
  bool stabilized = false;
  std::int32_t stable_rounds = 0;

  std::int32_t num_classes() const {
    return static_cast<std::int32_t>(representative.size());
  }
};

// Groups the agents of `g` into view-equivalence classes for views of depth
// `depth` (= view_radius(R) for engine L).  With `full_depth` (the safe
// default) the hash streams run all `depth` rounds -- required whenever the
// colours outlive the solve as cross-instance cache keys
// (ViewClassCache::color_key) -- and only the class-count bookkeeping stops
// early once the partition stabilizes.  Pass full_depth = false when the
// colours are used solely to group agents within this one instance: a
// stable partition cannot split again, so stopping the sweeps at
// stabilization yields the identical partition and skips
// O((depth - stable_rounds) * |E|) of hashing -- but the resulting colours
// fingerprint only the depth-stable_rounds unfolding and MUST NOT be used
// as cross-solve keys.
ViewClasses refine_view_classes(const CommGraph& g, std::int32_t depth,
                                bool full_depth = true);

}  // namespace locmm
