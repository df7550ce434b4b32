// local_solver.hpp -- engine C: centralized simulation of the §5 algorithm.
//
// Computes exactly what every agent of the special-form instance outputs,
// but by shared dynamic programming on the finite graph G instead of
// per-agent local views.  Validity rests on the position-independence of
// t, s and g (paper Example 2): the unfolding subtree below an agent copy is
// determined by the agent's identity in G, so one value per (agent, depth)
// suffices.  Engine L (view_solver.hpp) recomputes the same quantities
// definitionally on explicit local views, with the same reduction order;
// tests/cross_engine_test.cpp requires the two to agree bitwise.
//
// Phases (paper §5):
//   1. t_v  per agent        -- optimum of the alternating tree A_v   (§5.1-2)
//   2. s_v  smoothing        -- min of t over the radius-(4r+2) ball  (§5.3)
//   3. g± tables and x       -- recursion (12)-(14), output (18)      (§5.3)
#pragma once

#include <cstdint>
#include <vector>

#include "core/g_recursion.hpp"
#include "core/special_form.hpp"
#include "core/upper_bound.hpp"

namespace locmm {

struct SpecialRunResult {
  std::int32_t R = 0;
  std::int32_t r = 0;           // r = R - 2
  std::vector<double> t;        // per-agent upper bounds
  std::vector<double> s;        // smoothed bounds
  GTables g;                    // g± tables (kept for analysis/benches)
  std::vector<double> x;        // the algorithm's output (18)
};

// Runs the §5 algorithm on a special-form instance.  threads: 1 = serial,
// 0 = all hardware threads (parallel over agents in phase 1).
SpecialRunResult solve_special_centralized(const SpecialFormInstance& sf,
                                           std::int32_t R,
                                           const TSearchOptions& opt = {},
                                           std::size_t threads = 1);

}  // namespace locmm
