// scratch_oracle.hpp -- the one oracle of the incremental tests: a scratch
// engine-C solve (solve_special_centralized) of the edited instance, which
// the IncrementalSolver's kept tables must match bitwise.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "core/local_solver.hpp"
#include "dynamic/incremental_solver.hpp"

namespace locmm::testing {

inline bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// t, s, g± and x of `inc` against scratch engine C on `inst`, plus omega
// and min t against their whole-instance definitions.
inline void expect_tables_match_scratch(const IncrementalSolver& inc,
                                        const MaxMinInstance& inst,
                                        const std::string& where) {
  const SpecialFormInstance sf(inst);
  const SpecialRunResult c = solve_special_centralized(sf, inc.R());
  ASSERT_EQ(inc.x().size(), c.x.size()) << where;
  ASSERT_EQ(inc.t().size(), c.t.size()) << where;
  for (std::size_t v = 0; v < c.x.size(); ++v) {
    ASSERT_TRUE(same_bits(inc.t()[v], c.t[v])) << where << ", t of " << v;
    ASSERT_TRUE(same_bits(inc.s()[v], c.s[v])) << where << ", s of " << v;
    for (std::int32_t d = 0; d <= c.r; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      ASSERT_TRUE(same_bits(inc.g_plus(d)[v], c.g.plus[sd][v]))
          << where << ", g+ of " << v << " at depth " << d;
      ASSERT_TRUE(same_bits(inc.g_minus(d)[v], c.g.minus[sd][v]))
          << where << ", g- of " << v << " at depth " << d;
    }
    ASSERT_TRUE(same_bits(inc.x()[v], c.x[v]))
        << where << ", x of " << v << ": " << inc.x()[v] << " vs " << c.x[v];
  }
  if (inst.num_objectives() > 0) {
    EXPECT_TRUE(same_bits(inc.omega(), inst.utility(c.x))) << where;
  }
  if (!c.t.empty()) {
    double t_min = c.t[0];
    for (const double t : c.t) t_min = std::min(t_min, t);
    EXPECT_TRUE(same_bits(inc.t_min(), t_min)) << where;
  }
}

}  // namespace locmm::testing
