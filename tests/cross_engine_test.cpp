// The one cross-engine oracle: engines C, L, M and S compute output rule
// (18) with one reduction order, so they agree BITWISE on every instance --
// on every generator family, for R = 2..7, before and after edit scripts,
// and so does the incremental engine-C solver fed the same edits.
//
//   C  solve_special_centralized (core/local_solver.hpp)
//   L  solve_agent_on_graph, engine L's per-agent DP, run for every agent
//      (graph-backed, so R = 7 stays polynomial)
//   M  solve_special_message_passing (dist/gather.hpp): radius-D views on
//      the wire, so only where the views stay small -- R = 2 everywhere,
//      every R on the width-1 wheel, whose views are paths
//   S  solve_special_streaming (dist/streaming.hpp): scalar floods after a
//      radius-(4r+3) gather -- R <= 3 everywhere, every R on the wheel
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/local_solver.hpp"
#include "core/view_solver.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "graph/comm_graph.hpp"
#include "lp/delta.hpp"
#include "scratch_oracle.hpp"
#include "support/prng.hpp"
#include "transform/transform.hpp"

namespace locmm {
namespace {

using testing::expect_tables_match_scratch;
using testing::same_bits;

struct Family {
  std::string name;
  MaxMinInstance special;
  std::int32_t max_R_M = 2;  // largest R whose views engine M gathers
  std::int32_t max_R_S = 3;  // ... and engine S
};

std::vector<Family> families() {
  const auto piped = [](const MaxMinInstance& inst) {
    return to_special_form(inst).special;
  };
  return {
      {"random_general",
       piped(random_general({.num_agents = 8, .delta_i = 3, .delta_k = 3}, 3))},
      {"random_special",
       random_special_form({.num_agents = 14, .delta_k = 3}, 5)},
      {"cycle",
       piped(cycle_instance({.num_agents = 6, .coeff_lo = 0.5, .coeff_hi = 2.0},
                            7))},
      {"path", piped(path_instance(8))},
      {"grid", piped(grid_instance({.rows = 3, .cols = 3, .coeff_lo = 0.5,
                                    .coeff_hi = 2.0},
                                   9))},
      {"special_grid",
       special_grid_instance({.rows = 4, .cols = 5, .coeff_lo = 0.5,
                              .coeff_hi = 2.0},
                             11)},
      {"tree", piped(tree_instance({.max_agents = 10}, 13))},
      {"sensor",
       piped(sensor_instance({.num_sensors = 8, .num_sinks = 3}, 17))},
      {"bandwidth",
       piped(bandwidth_instance({.num_routers = 5,
                                 .num_chords = 1,
                                 .num_customers = 3,
                                 .paths_per_customer = 2},
                                19))},
      {"regular",
       regular_special_instance({.num_objectives = 5, .delta_k = 3,
                                 .coeff_lo = 0.5, .coeff_hi = 2.0},
                                23)},
      {"circulant",
       circulant_special_instance({.num_objectives = 6, .delta_k = 3,
                                   .stride = 5, .coeff_lo = 0.5,
                                   .coeff_hi = 2.0},
                                  29)},
      {"wheel",
       layered_instance({.delta_k = 2, .layers = 9, .width = 1, .twist = 0}),
       7, 7},
  };
}

// All four engines on `special` at R, bitwise against engine C (M and S
// where the family's gather budget allows).
void expect_four_engines_agree(const Family& f, const MaxMinInstance& special,
                               std::int32_t R, const std::string& where) {
  const SpecialFormInstance sf(special);
  const SpecialRunResult c = solve_special_centralized(sf, R);
  const CommGraph g(special);
  for (AgentId v = 0; v < special.num_agents(); ++v) {
    const double l = solve_agent_on_graph(g, v, R);
    ASSERT_TRUE(same_bits(l, c.x[static_cast<std::size_t>(v)]))
        << where << ": engine L, agent " << v << ": " << l << " vs "
        << c.x[static_cast<std::size_t>(v)];
  }
  if (R <= f.max_R_S) {
    const MessageRunResult s = solve_special_streaming(special, R);
    ASSERT_EQ(s.x.size(), c.x.size());
    for (std::size_t v = 0; v < c.x.size(); ++v) {
      ASSERT_TRUE(same_bits(s.x[v], c.x[v]))
          << where << ": engine S, agent " << v;
    }
  }
  if (R > f.max_R_M) return;
  const MessageRunResult m = solve_special_message_passing(special, R);
  ASSERT_EQ(m.x.size(), c.x.size());
  for (std::size_t v = 0; v < c.x.size(); ++v) {
    ASSERT_TRUE(same_bits(m.x[v], c.x[v]))
        << where << ": engine M, agent " << v;
  }
}

// A random special-form-preserving edit: a coefficient bump, or the
// always-legal membership refresh (remove, then re-add with a new
// coefficient, which also moves the entry to the row's last port).
InstanceDelta random_edit(const SpecialFormInstance& sf, Rng& rng) {
  const MaxMinInstance& inst = sf.instance();
  InstanceDelta delta;
  if (rng.below(3) == 0) {
    const auto i = static_cast<ConstraintId>(
        rng.below(static_cast<std::uint64_t>(inst.num_constraints())));
    const AgentId v = inst.constraint_row(i)[rng.below(2)].agent;
    delta.remove_from_constraint(i, v);
    delta.add_to_constraint(i, v, rng.uniform(0.5, 2.0));
    return delta;
  }
  const auto v = static_cast<AgentId>(
      rng.below(static_cast<std::uint64_t>(inst.num_agents())));
  const auto arcs = sf.arcs(v);
  delta.set_constraint_coeff(arcs[rng.below(arcs.size())].id, v,
                             rng.uniform(0.25, 4.0));
  return delta;
}

TEST(CrossEngine, FourEnginesBitwiseOnEveryFamily) {
  for (const Family& f : families()) {
    ASSERT_TRUE(is_special_form(f.special)) << f.name;
    for (std::int32_t R = 2; R <= 7; ++R) {
      expect_four_engines_agree(f, f.special, R,
                                f.name + " R=" + std::to_string(R));
    }
  }
}

// Edit scripts: after every edit the incremental solver's tables equal
// scratch engine C, and engines L, M and S agree with it on the edited
// instance.
TEST(CrossEngine, EditScriptsStayBitwiseAcrossEngines) {
  std::uint64_t seed = 41;
  for (const Family& f : families()) {
    for (const std::int32_t R : {2, 3, 5, 7}) {
      Rng rng(seed++);
      IncrementalSolver::Options opt;
      opt.R = R;
      IncrementalSolver inc(f.special, opt);
      MaxMinInstance cur = f.special;
      for (int step = 0; step < 2; ++step) {
        const InstanceDelta delta = random_edit(inc.special(), rng);
        inc.apply(delta);
        cur.apply(delta);
        const std::string where =
            f.name + " R=" + std::to_string(R) + " step " +
            std::to_string(step);
        expect_tables_match_scratch(inc, cur, where);
        expect_four_engines_agree(f, cur, R, where);
      }
    }
  }
}

}  // namespace
}  // namespace locmm
