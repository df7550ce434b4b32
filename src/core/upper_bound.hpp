// upper_bound.hpp -- the per-agent upper bounds t_u of paper §5.1-§5.2.
//
// t_u is the optimum of the max-min LP restricted to the alternating tree
// A_u (depth 4r+3 in the unfolding).  The paper characterises it through the
// recursion (5)-(7):
//   f+_{v,0}(w)  = min_{i in Iv} 1/a_iv                                  (5)
//   f-_{v,d}(w)  = max{0, w - sum_{u in N(v)} f+_{u,d}(w)}               (6)
//   f+_{v,d}(w)  = min_{i in Iv} (1 - a_{i,n(v,i)} f-_{n(v,i),d-1}(w)) / a_iv
//                                                                        (7)
// and t_u = max{w >= 0 : all f+ >= 0 in A_u (8) and
//                        f-_{u,r}(w) <= min_i 1/a_iu (9)}.
//
// Key structural facts we exploit:
//   * f±_{u,v,d} does not depend on the root u (Example 2 of the paper):
//     the subtree hanging below an agent copy in the unfolding is determined
//     by the agent's identity in G, so f± is a function of (v, d) only.
//     We therefore evaluate the recursion on *states* (v, d, +/-) of the
//     finite graph G rather than on explicit unfoldings.
//   * f+ is non-increasing and f- non-decreasing in w, so each condition of
//     (8)-(9) holds exactly on an interval [0, theta]; t_u is found by
//     bisection (the paper: "a simple binary search ... is sufficient").
//     We return the largest *verified-feasible* w, so every downstream
//     feasibility property (Lemmas 5, 7, 9, 11) holds exactly; only the
//     approximation guarantee degrades, by at most `tol`.
//   * The monotonicity holds in floating point too (every operation of
//     (5)-(7) is monotone under round-to-nearest for positive finite
//     coefficients), so a state whose values at both ends of the bracket are
//     bitwise equal is constant inside it: each probe re-evaluates only the
//     states whose two values still differ.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/special_form.hpp"

namespace locmm {

// Which implementation evaluates the §5 recursions on an explicit local view
// (engine L, view_solver.hpp).
enum class ViewEngine : std::uint8_t {
  // Iterative, memoized, bottom-up dynamic program over flat
  // (view-node, depth) tables: each state is evaluated at most once per
  // probed omega, t-searches for all agents of an s-ball share their
  // omega-tables, and scratch buffers are reused across agents.  Default.
  kMemoizedDp,
  // Literal tree-recursive transcription of (5)-(14): re-expands the
  // recursion from scratch on every call.  Kept as the differential-testing
  // oracle for the DP engine (it is the closest reading of the paper).
  kNaive,
};

// Operation counters for the evaluation engines.  All fields are atomic so a
// single stats object can be shared across the per-agent parallel loops;
// engines accumulate locally and flush once per evaluated agent.
struct TSearchStats {
  // f± evaluations performed.  Engine C: the whole cone at 0 and at the
  // initial hi, then only the live states of each probe.  Engine L: DP
  // states, or recursive calls for the naive engine.
  std::atomic<std::int64_t> f_evals{0};
  std::atomic<std::int64_t> g_evals{0};   // g± state evaluations / calls
  std::atomic<std::int64_t> t_searches{0};  // bisection searches run
  std::atomic<std::int64_t> t_checks{0};    // condition (8)-(9) evaluations
  std::atomic<std::int64_t> omega_sweeps{0};  // DP: distinct-omega table fills
  std::atomic<std::int64_t> view_nodes{0};    // sum of evaluated view sizes

  // Incremental re-solve counters (src/dynamic/incremental_solver.hpp).
  // Per update: agents whose radius-D(R) neighbourhood may have changed
  // (the dirty ball), and agents whose stored output was reused untouched.
  std::atomic<std::int64_t> agents_dirty{0};
  std::atomic<std::int64_t> agents_reused{0};

  // Engine L's SoA sweeps (view_solver.cpp): multi-omega table fills
  // (chunks batching >= 2 distinct probe omegas into one
  // reverse-topological sweep); omega_sweeps keeps its per-distinct-omega
  // semantics, so vector_sweeps < omega_sweeps measures the batching.
  std::atomic<std::int64_t> vector_sweeps{0};

  void reset() {
    f_evals = 0;
    g_evals = 0;
    t_searches = 0;
    t_checks = 0;
    omega_sweeps = 0;
    view_nodes = 0;
    agents_dirty = 0;
    agents_reused = 0;
    vector_sweeps = 0;
  }
};

struct TSearchOptions {
  // Bisection stops when the bracket is below tol * max(1, initial hi).
  double tol = 1e-12;
  int max_iters = 200;
  // Use the exact LP route of §5.2 ("the node u uses an LP solver to find
  // the optimum of the LP associated with A_u") instead of bisection.
  // Exact up to simplex arithmetic, but A_u is materialised explicitly
  // (exponential in r) -- intended for validation and small r.  Note the
  // bisection returns the largest *verified-feasible* omega, so its
  // downstream feasibility is exact; the LP route can overshoot by solver
  // round-off (~1e-9), which propagates into an equally tiny constraint
  // slack violation.
  bool exact_lp = false;
  // Engine-L implementation selector (ignored by engine C).
  ViewEngine engine = ViewEngine::kMemoizedDp;
  // Optional operation-count instrumentation; not owned.  Thread-safe.
  TSearchStats* stats = nullptr;
};

// t_u for one agent: bisection on (8)-(9) over the agent's dependency cone,
// the states (v, d, +/-) reachable from (u, r, -), rebuilt per call in
// per-thread scratch sized by the cone.
double compute_t_single(const SpecialFormInstance& sf, AgentId u,
                        std::int32_t r, const TSearchOptions& opt = {});

// t for all agents, optionally thread-parallel (threads = 0: all cores).
std::vector<double> compute_t_all(const SpecialFormInstance& sf,
                                  std::int32_t r,
                                  const TSearchOptions& opt = {},
                                  std::size_t threads = 1);

// Global evaluation of the f-recursion at a fixed omega over every agent of
// G: tables[d][v].  Exposed for the analysis tests (monotonicity in omega
// and in d, agreement with the cone evaluation).
struct FTables {
  // plus[d][v] = f+_{v,d}(omega); minus[d][v] = f-_{v,d}(omega).
  std::vector<std::vector<double>> plus;
  std::vector<std::vector<double>> minus;
};
FTables evaluate_f_global(const SpecialFormInstance& sf, std::int32_t r,
                          double omega);

}  // namespace locmm
