// Tests for the incremental re-solve subsystem: InstanceDelta semantics
// (apply == rebuild, diff round-trips), delta support in SpecialFormInstance
// and CommGraph, and -- the headline -- randomized edit scripts over cycle /
// grid / 3-regular / random instances at R in {2, 3} whose incrementally
// maintained tables must stay BIT-identical to a scratch engine-C solve
// after every step, through IncrementalSolver (special-form deltas) and
// LocalResolver (original-instance deltas routed through the §4 pipeline).
// Plus the transactional contract (rejections and deadline abandonments
// leave every table bitwise untouched) and the O(ball) flatness contract
// (an edit's work counters do not grow with n).
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/solver_api.hpp"
#include "support/deadline.hpp"
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

// Full bitwise structural equality of two instances: rows (agents and exact
// coefficient bits, in port order) and agent incidence.
void expect_same_instance(const MaxMinInstance& a, const MaxMinInstance& b) {
  ASSERT_EQ(a.num_agents(), b.num_agents());
  ASSERT_EQ(a.num_constraints(), b.num_constraints());
  ASSERT_EQ(a.num_objectives(), b.num_objectives());
  auto same_rows = [&](auto row_a, auto row_b, std::int32_t rows) {
    for (std::int32_t r = 0; r < rows; ++r) {
      const auto ra = row_a(r);
      const auto rb = row_b(r);
      ASSERT_EQ(ra.size(), rb.size()) << "row " << r;
      for (std::size_t j = 0; j < ra.size(); ++j) {
        EXPECT_EQ(ra[j].agent, rb[j].agent) << "row " << r << " port " << j;
        EXPECT_TRUE(same_bits(ra[j].coeff, rb[j].coeff))
            << "row " << r << " port " << j;
      }
    }
  };
  same_rows([&](std::int32_t r) { return a.constraint_row(r); },
            [&](std::int32_t r) { return b.constraint_row(r); },
            a.num_constraints());
  same_rows([&](std::int32_t r) { return a.objective_row(r); },
            [&](std::int32_t r) { return b.objective_row(r); },
            a.num_objectives());
  for (AgentId v = 0; v < a.num_agents(); ++v) {
    const auto ca = a.agent_constraints(v);
    const auto cb = b.agent_constraints(v);
    ASSERT_EQ(ca.size(), cb.size()) << "agent " << v;
    for (std::size_t j = 0; j < ca.size(); ++j) {
      EXPECT_EQ(ca[j].row, cb[j].row) << "agent " << v << " slot " << j;
      EXPECT_TRUE(same_bits(ca[j].coeff, cb[j].coeff));
    }
    const auto ka = a.agent_objectives(v);
    const auto kb = b.agent_objectives(v);
    ASSERT_EQ(ka.size(), kb.size()) << "agent " << v;
    for (std::size_t j = 0; j < ka.size(); ++j) {
      EXPECT_EQ(ka[j].row, kb[j].row) << "agent " << v << " slot " << j;
      EXPECT_TRUE(same_bits(ka[j].coeff, kb[j].coeff));
    }
  }
}

// Rebuilds `inst` from its rows through InstanceBuilder: the ground truth
// apply() must match bit-for-bit.
MaxMinInstance rebuild(const MaxMinInstance& inst) {
  InstanceBuilder b(inst.num_agents());
  for (ConstraintId i = 0; i < inst.num_constraints(); ++i) {
    const auto row = inst.constraint_row(i);
    b.add_constraint(std::vector<Entry>(row.begin(), row.end()));
  }
  for (ObjectiveId k = 0; k < inst.num_objectives(); ++k) {
    const auto row = inst.objective_row(k);
    b.add_objective(std::vector<Entry>(row.begin(), row.end()));
  }
  return b.build();
}

// ---------------------------------------------------------------------------
// InstanceDelta / MaxMinInstance::apply
// ---------------------------------------------------------------------------

TEST(DeltaApply, CoefficientEditMatchesRebuild) {
  const MaxMinInstance base = random_general({.num_agents = 20}, 11);
  MaxMinInstance edited = base;
  InstanceDelta delta;
  const auto row0 = base.constraint_row(0);
  delta.set_constraint_coeff(0, row0[0].agent, row0[0].coeff * 1.75);
  const auto krow = base.objective_row(1);
  delta.set_objective_coeff(1, krow.back().agent, 0.375);
  edited.apply(delta);

  // Ground truth: rebuild from explicitly edited rows.
  InstanceBuilder b(base.num_agents());
  for (ConstraintId i = 0; i < base.num_constraints(); ++i) {
    const auto row = base.constraint_row(i);
    std::vector<Entry> out(row.begin(), row.end());
    if (i == 0) out[0].coeff = row0[0].coeff * 1.75;
    b.add_constraint(std::move(out));
  }
  for (ObjectiveId k = 0; k < base.num_objectives(); ++k) {
    const auto row = base.objective_row(k);
    std::vector<Entry> out(row.begin(), row.end());
    if (k == 1) out.back().coeff = 0.375;
    b.add_objective(std::move(out));
  }
  expect_same_instance(edited, b.build());
}

TEST(DeltaApply, MembershipAddAppendsAtRowEnd) {
  const MaxMinInstance base = grid_instance({.rows = 4, .cols = 5}, 3);
  // Find an agent not in constraint row 0.
  const auto row0 = base.constraint_row(0);
  AgentId outsider = -1;
  for (AgentId v = 0; v < base.num_agents() && outsider < 0; ++v) {
    bool in_row = false;
    for (const Entry& e : row0) in_row |= (e.agent == v);
    if (!in_row) outsider = v;
  }
  ASSERT_GE(outsider, 0);

  MaxMinInstance edited = base;
  InstanceDelta delta;
  delta.add_to_constraint(0, outsider, 0.625);
  edited.apply(delta);

  InstanceBuilder b(base.num_agents());
  for (ConstraintId i = 0; i < base.num_constraints(); ++i) {
    const auto row = base.constraint_row(i);
    std::vector<Entry> out(row.begin(), row.end());
    if (i == 0) out.push_back({outsider, 0.625});
    b.add_constraint(std::move(out));
  }
  for (ObjectiveId k = 0; k < base.num_objectives(); ++k) {
    const auto row = base.objective_row(k);
    b.add_objective(std::vector<Entry>(row.begin(), row.end()));
  }
  expect_same_instance(edited, b.build());
  edited.validate();
}

TEST(DeltaApply, MembershipRemoveMatchesRebuild) {
  const MaxMinInstance base = random_general({.num_agents = 24}, 17);
  // Find a removable constraint entry: row keeps >= 1 entry, agent keeps
  // >= 1 constraint.
  ConstraintId row = -1;
  AgentId victim = -1;
  for (ConstraintId i = 0; i < base.num_constraints() && row < 0; ++i) {
    const auto r = base.constraint_row(i);
    if (r.size() < 2) continue;
    for (const Entry& e : r) {
      if (base.agent_constraints(e.agent).size() >= 2) {
        row = i;
        victim = e.agent;
        break;
      }
    }
  }
  ASSERT_GE(row, 0);

  MaxMinInstance edited = base;
  InstanceDelta delta;
  delta.remove_from_constraint(row, victim);
  edited.apply(delta);

  InstanceBuilder b(base.num_agents());
  for (ConstraintId i = 0; i < base.num_constraints(); ++i) {
    const auto r = base.constraint_row(i);
    std::vector<Entry> out;
    for (const Entry& e : r) {
      if (!(i == row && e.agent == victim)) out.push_back(e);
    }
    b.add_constraint(std::move(out));
  }
  for (ObjectiveId k = 0; k < base.num_objectives(); ++k) {
    const auto r = base.objective_row(k);
    b.add_objective(std::vector<Entry>(r.begin(), r.end()));
  }
  expect_same_instance(edited, b.build());
  edited.validate();
}

TEST(DeltaApply, RemoveThenReAddSameMembershipInOneBatch) {
  // One batch may remove a membership and re-add the same (row, agent) edge
  // with a fresh coefficient -- the structural coefficient refresh the
  // churn scripts lean on.  The dry run must net the growth to zero (the
  // batch is legal even for an agent whose ONLY constraint is that row,
  // and for a |Vi| = 2 row that dips to one member mid-batch), the touched-
  // edge enumeration must visit the edge once per edit, and apply must land
  // the entry at the row END, exactly like a rebuild of the edited rows.
  const MaxMinInstance base = grid_instance({.rows = 4, .cols = 5}, 3);
  const ConstraintId row = 0;
  const AgentId victim = base.constraint_row(row)[0].agent;

  InstanceDelta delta;
  delta.remove_from_constraint(row, victim);
  delta.add_to_constraint(row, victim, 1.375);
  EXPECT_TRUE(delta.check_applicable(base).empty());

  int visits = 0;
  delta.for_each_touched_edge([&](RowKind k, std::int32_t r, AgentId v) {
    EXPECT_EQ(k, RowKind::kConstraint);
    EXPECT_EQ(r, row);
    EXPECT_EQ(v, victim);
    ++visits;
  });
  EXPECT_EQ(visits, 2);  // the remove and the add each seed the dirty flood

  MaxMinInstance edited = base;
  edited.apply(delta);
  InstanceBuilder b(base.num_agents());
  for (ConstraintId i = 0; i < base.num_constraints(); ++i) {
    const auto r = base.constraint_row(i);
    std::vector<Entry> out;
    for (const Entry& e : r) {
      if (!(i == row && e.agent == victim)) out.push_back(e);
    }
    if (i == row) out.push_back({victim, 1.375});
    b.add_constraint(std::move(out));
  }
  for (ObjectiveId k = 0; k < base.num_objectives(); ++k) {
    const auto r = base.objective_row(k);
    b.add_objective(std::vector<Entry>(r.begin(), r.end()));
  }
  expect_same_instance(edited, b.build());
  edited.validate();

  // The inverse batch (same shape, original coefficient) round-trips the
  // coefficient but NOT the port order -- the entry stays at the row end.
  InstanceDelta back;
  back.remove_from_constraint(row, victim);
  back.add_to_constraint(row, victim, base.constraint_row(row)[0].coeff);
  EXPECT_TRUE(back.check_applicable(edited).empty());
  edited.apply(back);
  EXPECT_EQ(edited.constraint_row(row).back().agent, victim);
  EXPECT_TRUE(same_bits(edited.constraint_row(row).back().coeff,
                        base.constraint_row(row)[0].coeff));
}

TEST(DeltaApply, RejectsBadEdits) {
  MaxMinInstance inst = path_instance(6);
  {
    InstanceDelta d;
    d.set_constraint_coeff(0, inst.constraint_row(0)[0].agent, -1.0);
    MaxMinInstance copy = inst;
    EXPECT_THROW(copy.apply(d), CheckError);
  }
  {
    InstanceDelta d;  // entry does not exist
    d.set_constraint_coeff(inst.num_constraints() - 1, /*agent=*/-7, 1.0);
    MaxMinInstance copy = inst;
    EXPECT_THROW(copy.apply(d), CheckError);
  }
  {
    InstanceDelta d;  // duplicate member
    const Entry e = inst.constraint_row(0)[0];
    d.add_to_constraint(0, e.agent, 1.0);
    MaxMinInstance copy = inst;
    EXPECT_THROW(copy.apply(d), CheckError);
  }
}

TEST(DeltaDiff, RoundTripsCoefficients) {
  const MaxMinInstance a = random_general({.num_agents = 18}, 23);
  MaxMinInstance b = a;
  InstanceDelta edit;
  edit.set_constraint_coeff(2, a.constraint_row(2)[0].agent, 1.9375);
  edit.set_objective_coeff(0, a.objective_row(0)[0].agent, 0.8125);
  b.apply(edit);

  const auto diff = diff_instances(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->coeff_edits.size(), 2u);
  EXPECT_FALSE(diff->structural());
  MaxMinInstance a2 = a;
  a2.apply(*diff);
  expect_same_instance(a2, b);

  // Structural divergence: not diffable.
  InstanceDelta grow;
  const auto row0 = a.constraint_row(0);
  AgentId outsider = -1;
  for (AgentId v = 0; v < a.num_agents() && outsider < 0; ++v) {
    bool in_row = false;
    for (const Entry& e : row0) in_row |= (e.agent == v);
    if (!in_row) outsider = v;
  }
  ASSERT_GE(outsider, 0);
  MaxMinInstance c = a;
  grow.add_to_constraint(0, outsider, 1.0);
  c.apply(grow);
  EXPECT_FALSE(diff_instances(a, c).has_value());
}

// ---------------------------------------------------------------------------
// SpecialFormInstance::apply / CommGraph::set_edge_coefficient
// ---------------------------------------------------------------------------

void expect_same_special(const SpecialFormInstance& a,
                         const SpecialFormInstance& b) {
  ASSERT_EQ(a.num_agents(), b.num_agents());
  for (AgentId v = 0; v < a.num_agents(); ++v) {
    EXPECT_EQ(a.objective(v), b.objective(v));
    EXPECT_TRUE(same_bits(a.inv_cap(v), b.inv_cap(v))) << "agent " << v;
    EXPECT_TRUE(same_bits(a.t_search_upper(v), b.t_search_upper(v)))
        << "agent " << v;
    const auto sa = a.siblings(v);
    const auto sb = b.siblings(v);
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t j = 0; j < sa.size(); ++j) EXPECT_EQ(sa[j], sb[j]);
    const auto aa = a.arcs(v);
    const auto ab = b.arcs(v);
    ASSERT_EQ(aa.size(), ab.size());
    for (std::size_t j = 0; j < aa.size(); ++j) {
      EXPECT_EQ(aa[j].id, ab[j].id);
      EXPECT_EQ(aa[j].partner, ab[j].partner);
      EXPECT_TRUE(same_bits(aa[j].a_self, ab[j].a_self));
      EXPECT_TRUE(same_bits(aa[j].a_partner, ab[j].a_partner));
    }
  }
}

TEST(SpecialFormApply, CoefficientPatchMatchesFreshConstruction) {
  const MaxMinInstance special =
      random_special_form({.num_agents = 30}, 41);
  Rng rng(7);
  SpecialFormInstance sf(special);
  MaxMinInstance cur = special;
  for (int step = 0; step < 10; ++step) {
    InstanceDelta delta;
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
      const auto v = static_cast<AgentId>(rng.below(
          static_cast<std::uint64_t>(special.num_agents())));
      const auto arcs = sf.arcs(v);
      const auto& arc = arcs[rng.below(arcs.size())];
      delta.set_constraint_coeff(arc.id, v, rng.uniform(0.25, 4.0));
    }
    sf.apply(delta);
    cur.apply(delta);
    expect_same_instance(sf.instance(), cur);
    expect_same_special(sf, SpecialFormInstance(cur));
  }
}

TEST(SpecialFormApply, StructuralRewireMatchesFreshConstruction) {
  const MaxMinInstance special =
      random_special_form({.num_agents = 24, .extra_constraints = 2.0}, 43);
  SpecialFormInstance sf(special);
  // Rewire one |Vi| = 2 constraint: replace a partner that can afford to
  // lose it with a third agent (atomic remove + add keeps the row at 2).
  ConstraintId row = -1;
  AgentId keep = -1, lose = -1, gain = -1;
  for (ConstraintId i = 0; i < special.num_constraints() && row < 0; ++i) {
    const auto r = special.constraint_row(i);
    for (int side = 0; side < 2 && row < 0; ++side) {
      const AgentId cand = r[static_cast<std::size_t>(side)].agent;
      if (special.agent_constraints(cand).size() < 2) continue;
      const AgentId other = r[static_cast<std::size_t>(1 - side)].agent;
      for (AgentId g = 0; g < special.num_agents(); ++g) {
        if (g == cand || g == other) continue;
        bool adjacent = false;  // keep the row's agents distinct
        for (const Entry& e : r) adjacent |= (e.agent == g);
        if (!adjacent) {
          row = i;
          lose = cand;
          keep = other;
          gain = g;
          break;
        }
      }
    }
  }
  ASSERT_GE(row, 0) << "no rewireable constraint in the generated instance";
  (void)keep;

  InstanceDelta delta;
  delta.remove_from_constraint(row, lose);
  delta.add_to_constraint(row, gain, 1.25);
  MaxMinInstance cur = special;
  cur.apply(delta);
  sf.apply(delta);
  expect_same_instance(sf.instance(), cur);
  expect_same_special(sf, SpecialFormInstance(cur));
}

TEST(SpecialFormApply, RejectsObjectiveCoefficientEdit) {
  const MaxMinInstance special = random_special_form({.num_agents = 12}, 5);
  SpecialFormInstance sf(special);
  InstanceDelta delta;
  delta.set_objective_coeff(0, special.objective_row(0)[0].agent, 2.0);
  EXPECT_THROW(sf.apply(delta), CheckError);
}

TEST(CommGraphDelta, CoefficientPatchMatchesFreshGraph) {
  const MaxMinInstance inst = random_general({.num_agents = 16}, 29);
  MaxMinInstance cur = inst;
  CommGraph g(inst);
  InstanceDelta delta;
  const auto row = inst.constraint_row(1);
  delta.set_constraint_coeff(1, row[0].agent, row[0].coeff * 0.5);
  const auto krow = inst.objective_row(0);
  delta.set_objective_coeff(0, krow[0].agent, 1.375);
  cur.apply(delta);
  for (const CoeffEdit& e : delta.coeff_edits) {
    const NodeId rn = e.kind == RowKind::kConstraint ? g.constraint_node(e.row)
                                                     : g.objective_node(e.row);
    g.set_edge_coefficient(rn, g.agent_node(e.agent), e.coeff);
  }
  const CommGraph fresh(cur);
  ASSERT_EQ(g.num_nodes(), fresh.num_nodes());
  for (NodeId n = 0; n < g.num_nodes(); ++n) {
    const auto ga = g.neighbors(n);
    const auto gb = fresh.neighbors(n);
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t p = 0; p < ga.size(); ++p) {
      EXPECT_EQ(ga[p].to, gb[p].to);
      EXPECT_TRUE(same_bits(ga[p].coeff, gb[p].coeff))
          << "node " << n << " port " << p;
    }
  }
}

// ---------------------------------------------------------------------------
// IncrementalSolver: randomized special-form edit scripts
// ---------------------------------------------------------------------------

// One random special-form-preserving delta: coefficient bump(s), a
// constraint rewire, or an objective move, whichever the instance offers.
InstanceDelta random_special_delta(const SpecialFormInstance& sf, Rng& rng,
                                   bool allow_structural) {
  const MaxMinInstance& inst = sf.instance();
  InstanceDelta delta;
  const std::uint64_t kind = rng.below(allow_structural ? 4 : 2);
  if (kind == 2) {
    // Constraint rewire: row {lose, other} -> {other, gain}.
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
    // Objective move: take v out of a row with >= 3 members into another.
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
  // Coefficient bumps (single or small batch); also the fallback when no
  // legal structural edit was found.
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

// Membership-churn batch: EVERY step is structural.  Half the draws are
// remove-then-re-add of the same constraint membership (a coefficient
// refresh through the structural path, which also flips the |Vi| = 2 row's
// port order); the rest are the rewires / objective moves of
// random_special_delta.  Always returns a structural delta.
InstanceDelta random_churn_delta(const SpecialFormInstance& sf, Rng& rng) {
  const MaxMinInstance& inst = sf.instance();
  if (rng.bernoulli(0.5)) {
    const auto i = static_cast<ConstraintId>(
        rng.below(static_cast<std::uint64_t>(inst.num_constraints())));
    const AgentId v = inst.constraint_row(i)[rng.below(2)].agent;
    InstanceDelta delta;
    delta.remove_from_constraint(i, v);
    delta.add_to_constraint(i, v, rng.uniform(0.5, 2.0));
    return delta;  // net growth zero: legal whatever the degrees
  }
  for (int attempt = 0; attempt < 100; ++attempt) {
    const InstanceDelta delta =
        random_special_delta(sf, rng, /*allow_structural=*/true);
    if (delta.structural()) return delta;
  }
  // No legal rewire in 100 draws (never observed on these families); fall
  // back to the always-legal refresh shape.
  const AgentId v0 = inst.constraint_row(0)[0].agent;
  InstanceDelta delta;
  delta.remove_from_constraint(0, v0);
  delta.add_to_constraint(0, v0, 1.25);
  return delta;
}

void run_incremental_script(const MaxMinInstance& special, std::int32_t R,
                            std::uint64_t seed, int steps,
                            bool allow_structural, bool churn = false) {
  Rng rng(seed);
  IncrementalSolver::Options opt;
  opt.R = R;
  IncrementalSolver inc(special, opt);
  MaxMinInstance cur = special;

  // The initial solve must already match a scratch engine-C solve bitwise.
  expect_tables_match_scratch(inc, cur, "cold");

  for (int step = 0; step < steps; ++step) {
    const InstanceDelta delta =
        churn ? random_churn_delta(inc.special(), rng)
              : random_special_delta(inc.special(), rng, allow_structural);
    inc.apply(delta);
    cur.apply(delta);
    expect_same_instance(inc.special().instance(), cur);
    // In-place CSR editing must land exactly where an InstanceBuilder
    // rebuild of the same rows would (ports ARE the positions).
    expect_same_instance(cur, rebuild(cur));

    expect_tables_match_scratch(inc, cur, "step " + std::to_string(step));
    const auto& u = inc.last_update();
    EXPECT_EQ(u.agents_dirty + u.agents_reused, cur.num_agents());
    EXPECT_EQ(static_cast<std::int64_t>(inc.last_rewritten().size()),
              u.agents_dirty);
    EXPECT_LE(u.cone_t_recomputed, u.agents_dirty);
  }
}

// Tier-1 runs SHORT variants of the randomized scripts (enough steps to
// cross the interesting transitions); the long versions live in the
// *Slow fixtures below, behind the ctest `slow` label (CMakeLists.txt; the
// CI sanitizer job runs the label in full).

TEST(IncrementalSolver, CycleScriptsBitIdentical) {
  // Two cycle-shaped workloads: the §4-pipelined cycle at R = 2 (its |Iv|=4
  // copies grow radius-17 views to ~half a million nodes each, so R = 3
  // would dominate the whole suite's runtime), and the natively-special
  // layered wheel -- the benches' cycle workload, thin views -- at R = 3.
  const MaxMinInstance cycle =
      to_special_form(cycle_instance({.num_agents = 24,
                                      .coeff_lo = 0.5,
                                      .coeff_hi = 2.0},
                                     13))
          .special;
  run_incremental_script(cycle, 2, 103, 4, /*allow_structural=*/false);
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 30, .width = 1, .twist = 0});
  for (const std::int32_t R : {2, 3}) {
    run_incremental_script(wheel, R, 111 + static_cast<std::uint64_t>(R), 4,
                           /*allow_structural=*/false);
  }
}

TEST(IncrementalSolver, GridScriptsBitIdentical) {
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  for (const std::int32_t R : {2, 3}) {
    run_incremental_script(grid, R, 202 + static_cast<std::uint64_t>(R), 4,
                           /*allow_structural=*/false);
  }
}

TEST(IncrementalSolver, ThreeRegularScriptsBitIdentical) {
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 12, .delta_k = 3}, 3);
  for (const std::int32_t R : {2, 3}) {
    run_incremental_script(circ, R, 303 + static_cast<std::uint64_t>(R), 4,
                           /*allow_structural=*/false);
  }
}

TEST(IncrementalSolver, RandomScriptsWithStructuralEditsBitIdentical) {
  // Random special form stays at R = 2: its high-degree agents grow
  // radius-17 views to tens of millions of nodes.
  const MaxMinInstance random_sp =
      random_special_form({.num_agents = 28, .extra_constraints = 1.5}, 71);
  run_incremental_script(random_sp, 2, 404, 5, /*allow_structural=*/true);
}

TEST(IncrementalSolver, MembershipChurnScriptsBitIdentical) {
  // Add/remove-heavy scripts: every step is structural (remove-then-re-add
  // refreshes, rewires, objective moves) on the three natively-special
  // families at R in {2, 3}.  Same contract as the mixed scripts: the
  // maintained tables match a scratch engine-C solve bitwise after every
  // step.
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 30, .width = 1, .twist = 0});
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 12, .delta_k = 3}, 3);
  for (const std::int32_t R : {2, 3}) {
    const auto s = static_cast<std::uint64_t>(R);
    run_incremental_script(wheel, R, 911 + s, 3, /*allow_structural=*/true,
                           /*churn=*/true);
    run_incremental_script(grid, R, 922 + s, 3, /*allow_structural=*/true,
                           /*churn=*/true);
    run_incremental_script(circ, R, 933 + s, 3, /*allow_structural=*/true,
                           /*churn=*/true);
  }
}

// The promoted long scripts: more steps, structural edits everywhere the
// family supports them.  DISABLED_ keeps them out of the discovered tier-1
// set; the slow_randomized_suites ctest entry (label `slow`) re-enables
// them with --gtest_also_run_disabled_tests.
TEST(IncrementalSolverSlow, DISABLED_LongMixedScripts) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 30, .width = 1, .twist = 0});
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 12, .delta_k = 3}, 3);
  for (const std::int32_t R : {2, 3}) {
    run_incremental_script(wheel, R, 711 + static_cast<std::uint64_t>(R), 12,
                           /*allow_structural=*/true);
    run_incremental_script(grid, R, 722 + static_cast<std::uint64_t>(R), 12,
                           /*allow_structural=*/true);
    run_incremental_script(circ, R, 733 + static_cast<std::uint64_t>(R), 12,
                           /*allow_structural=*/true);
  }
  const MaxMinInstance random_sp =
      random_special_form({.num_agents = 28, .extra_constraints = 1.5}, 71);
  run_incremental_script(random_sp, 2, 744, 16, /*allow_structural=*/true);
}

// Long membership-churn scripts (the ASan/TSan CI job runs the `slow`
// label in full): sustained structural-only pressure on every family.
TEST(IncrementalSolverSlow, DISABLED_LongChurnScripts) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 30, .width = 1, .twist = 0});
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 12, .delta_k = 3}, 3);
  for (const std::int32_t R : {2, 3}) {
    const auto s = static_cast<std::uint64_t>(R);
    run_incremental_script(wheel, R, 951 + s, 10, /*allow_structural=*/true,
                           /*churn=*/true);
    run_incremental_script(grid, R, 962 + s, 10, /*allow_structural=*/true,
                           /*churn=*/true);
    run_incremental_script(circ, R, 973 + s, 10, /*allow_structural=*/true,
                           /*churn=*/true);
  }
}

TEST(IncrementalSolver, ReusesAgentsOutsideTheDirtyBall) {
  // 4 x 48 paired torus at R = 2: D = 5, so a single-coefficient edit's
  // dirty ball is a thin slice of the 192 agents.
  const MaxMinInstance grid =
      special_grid_instance({.rows = 4, .cols = 48}, 4);
  IncrementalSolver::Options opt;
  opt.R = 2;
  TSearchStats stats;
  opt.t_search.stats = &stats;
  IncrementalSolver inc(grid, opt);

  const SpecialFormInstance& sf = inc.special();
  InstanceDelta delta;
  delta.set_constraint_coeff(sf.arcs(0)[0].id, 0, 1.625);
  inc.apply(delta);
  const auto& u = inc.last_update();
  EXPECT_GT(u.agents_dirty, 0);
  EXPECT_GT(u.agents_reused, 0);
  EXPECT_LT(u.agents_dirty, grid.num_agents());
  EXPECT_EQ(stats.agents_dirty.load(), u.agents_dirty);
  EXPECT_EQ(stats.agents_reused.load(), u.agents_reused);
  // Every entry outside the reported ball kept its bits.
  const std::vector<double> before = IncrementalSolver(grid, opt).x();
  std::vector<std::uint8_t> in_ball(before.size(), 0);
  for (const AgentId v : inc.last_rewritten())
    in_ball[static_cast<std::size_t>(v)] = 1;
  for (std::size_t v = 0; v < before.size(); ++v) {
    if (in_ball[v] == 0) {
      EXPECT_TRUE(same_bits(inc.x()[v], before[v])) << "agent " << v;
    }
  }

  // And the result still matches a from-scratch solve bitwise.
  MaxMinInstance cur = grid;
  cur.apply(delta);
  expect_tables_match_scratch(inc, cur, "edit");

  // Reverting the edit restores the cold tables bitwise.
  InstanceDelta revert;
  revert.set_constraint_coeff(sf.arcs(0)[0].id, 0,
                              grid.constraint_row(sf.arcs(0)[0].id)[0].agent == 0
                                  ? grid.constraint_row(sf.arcs(0)[0].id)[0].coeff
                                  : grid.constraint_row(sf.arcs(0)[0].id)[1].coeff);
  inc.apply(revert);
  expect_tables_match_scratch(inc, grid, "revert");
}

// The O(ball) contract: the same local edits on a 10k- and a 100k-agent
// paired torus do the same work -- the same t re-bisections, the same
// rewritten s, g± and x entries (the ball) and objective sums, and the
// resolver maps back the same originals.  Nothing in an edit may scale
// with n.
TEST(IncrementalSolver, EditWorkIsFlatInN) {
  struct Work {
    std::int64_t t, ball, sums, mapped;
    bool operator==(const Work&) const = default;
  };
  const auto measure = [](std::int32_t cols) {
    const MaxMinInstance torus =
        special_grid_instance({.rows = 4, .cols = cols}, 7);
    LocalResolver res(torus, LocalParams{});  // R = 4, engine C
    // One coefficient edit and one membership churn at agent 0.
    const Incidence inc0 = torus.agent_constraints(0)[0];
    std::vector<Work> work;
    std::vector<InstanceDelta> edits(2);
    edits[0].set_constraint_coeff(inc0.row, 0, 1.625);
    edits[1].remove_from_constraint(inc0.row, 0).add_to_constraint(inc0.row,
                                                                   0, 0.75);
    for (const InstanceDelta& d : edits) {
      res.resolve(d);
      EXPECT_TRUE(res.last_resolve_was_delta());
      const auto& u = res.solver().last_update();
      work.push_back({u.cone_t_recomputed, u.agents_dirty, u.sums_rewritten,
                      res.last_mapped_back()});
    }
    return work;
  };
  const std::vector<Work> small = measure(2500);
  const std::vector<Work> large = measure(25000);
  ASSERT_EQ(small.size(), large.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small[i].t, large[i].t) << "edit " << i;
    EXPECT_EQ(small[i].ball, large[i].ball) << "edit " << i;
    EXPECT_EQ(small[i].sums, large[i].sums) << "edit " << i;
    EXPECT_EQ(small[i].mapped, large[i].mapped) << "edit " << i;
    EXPECT_GT(small[i].t, 0);
    EXPECT_LT(small[i].ball, 1000) << "edit " << i;
  }
}

// ---------------------------------------------------------------------------
// LocalResolver: original-instance edit scripts through the §4 pipeline
// ---------------------------------------------------------------------------

// A random edit against an ORIGINAL instance: coefficient bumps always
// work; membership add/remove when the local invariants allow them.
InstanceDelta random_original_delta(const MaxMinInstance& inst, Rng& rng) {
  InstanceDelta delta;
  const std::uint64_t kind = rng.below(4);
  if (kind == 2) {
    // Add an agent to a row it is not in.
    for (int attempt = 0; attempt < 50; ++attempt) {
      const bool constraint = rng.bernoulli(0.5);
      const std::int32_t rows =
          constraint ? inst.num_constraints() : inst.num_objectives();
      const auto i =
          static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(rows)));
      const auto v = static_cast<AgentId>(
          rng.below(static_cast<std::uint64_t>(inst.num_agents())));
      const auto row = constraint ? inst.constraint_row(i)
                                  : inst.objective_row(i);
      bool in_row = false;
      for (const Entry& e : row) in_row |= (e.agent == v);
      if (in_row) continue;
      if (constraint) {
        delta.add_to_constraint(i, v, rng.uniform(0.5, 2.0));
      } else {
        delta.add_to_objective(i, v, rng.uniform(0.5, 2.0));
      }
      return delta;
    }
  } else if (kind == 3) {
    // Remove an entry whose row and agent can both afford it.
    for (int attempt = 0; attempt < 50; ++attempt) {
      const bool constraint = rng.bernoulli(0.5);
      const std::int32_t rows =
          constraint ? inst.num_constraints() : inst.num_objectives();
      const auto i =
          static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(rows)));
      const auto row = constraint ? inst.constraint_row(i)
                                  : inst.objective_row(i);
      if (row.size() < 2) continue;
      const AgentId v = row[rng.below(row.size())].agent;
      const std::size_t have = constraint ? inst.agent_constraints(v).size()
                                          : inst.agent_objectives(v).size();
      if (have < 2) continue;
      if (constraint) {
        delta.remove_from_constraint(i, v);
      } else {
        delta.remove_from_objective(i, v);
      }
      return delta;
    }
  }
  const int edits = 1 + static_cast<int>(rng.below(2));
  for (int e = 0; e < edits; ++e) {
    const bool constraint = rng.bernoulli(0.5);
    const std::int32_t rows =
        constraint ? inst.num_constraints() : inst.num_objectives();
    const auto i =
        static_cast<std::int32_t>(rng.below(static_cast<std::uint64_t>(rows)));
    const auto row =
        constraint ? inst.constraint_row(i) : inst.objective_row(i);
    const Entry& entry = row[rng.below(row.size())];
    if (constraint) {
      delta.set_constraint_coeff(i, entry.agent, rng.uniform(0.25, 4.0));
    } else {
      delta.set_objective_coeff(i, entry.agent, rng.uniform(0.25, 4.0));
    }
  }
  return delta;
}

// Every field solve_local computes, bitwise: the original and special
// solutions, both utilities, min t, the special form's stats and the
// a-priori guarantee.
void expect_same_solution(const LocalSolution& sol, const LocalSolution& oracle,
                          int step) {
  ASSERT_EQ(sol.x.size(), oracle.x.size());
  for (std::size_t v = 0; v < oracle.x.size(); ++v) {
    ASSERT_TRUE(same_bits(sol.x[v], oracle.x[v]))
        << "step " << step << ", agent " << v << ": " << sol.x[v] << " vs "
        << oracle.x[v];
  }
  ASSERT_EQ(sol.x_special.size(), oracle.x_special.size());
  for (std::size_t v = 0; v < oracle.x_special.size(); ++v) {
    ASSERT_TRUE(same_bits(sol.x_special[v], oracle.x_special[v]))
        << "step " << step << ", special agent " << v;
  }
  EXPECT_TRUE(same_bits(sol.omega, oracle.omega)) << "step " << step;
  EXPECT_TRUE(same_bits(sol.omega_special, oracle.omega_special))
      << "step " << step;
  EXPECT_TRUE(same_bits(sol.t_min_special, oracle.t_min_special))
      << "step " << step;
  EXPECT_TRUE(same_bits(sol.guarantee, oracle.guarantee)) << "step " << step;
  EXPECT_TRUE(sol.special_stats == oracle.special_stats) << "step " << step;
  EXPECT_TRUE(same_bits(sol.ratio_factor, oracle.ratio_factor))
      << "step " << step;
}

void run_resolver_script(const MaxMinInstance& inst, std::int32_t R,
                         std::uint64_t seed, int steps) {
  Rng rng(seed);
  LocalParams params;
  params.R = R;
  params.engine = LocalEngine::kLocalViews;
  LocalResolver resolver(inst, params);
  MaxMinInstance cur = inst;

  auto expect_matches_scratch = [&](int step) {
    expect_same_solution(resolver.solution(), solve_local(cur, params), step);
    EXPECT_TRUE(cur.is_feasible(resolver.solution().x, 1e-9));
  };
  expect_matches_scratch(-1);

  for (int step = 0; step < steps; ++step) {
    const InstanceDelta delta = random_original_delta(cur, rng);
    resolver.resolve(delta);
    cur.apply(delta);
    expect_same_instance(resolver.instance(), cur);
    // Coefficient edits always ride a delta (id-map fast path or
    // re-pipeline + diff).  Structural edits depend on the id map's
    // fast-path conditions -- id-stable on natively-special families
    // (pinned true by the churn scripts below), re-initialising when the
    // §4 numbering genuinely shifts -- so no blanket assertion here.
    if (!delta.structural()) {
      EXPECT_TRUE(resolver.last_resolve_was_delta()) << "step " << step;
    }
    expect_matches_scratch(step);
  }
}

// Membership churn through the RESOLVER on natively-special originals: the
// §4 pipeline is structure-neutral there (no gadgets, |Vi| = 2, |Kv| = 1,
// |Vk| >= 2, unit objective coefficients), so every structural edit meets
// the PipelineIdMap fast-path conditions and must resolve as an O(ball)
// special-form delta -- last_resolve_was_delta() == true on EVERY step --
// while staying bitwise on the scratch solve of the edited original.
void run_resolver_churn_script(const MaxMinInstance& inst, std::int32_t R,
                               std::uint64_t seed, int steps) {
  Rng rng(seed);
  LocalParams params;
  params.R = R;
  LocalResolver resolver(inst, params);
  MaxMinInstance cur = inst;
  SpecialFormInstance mirror(inst);  // generator needs the arc view

  for (int step = 0; step < steps; ++step) {
    const InstanceDelta delta = random_churn_delta(mirror, rng);
    ASSERT_TRUE(delta.structural());
    resolver.resolve(delta);
    cur.apply(delta);
    mirror.apply(delta);
    expect_same_instance(resolver.instance(), cur);
    EXPECT_TRUE(resolver.last_resolve_was_delta())
        << "structural edit fell off the id-map fast path at step " << step;

    expect_same_solution(resolver.solution(), solve_local(cur, params), step);
    EXPECT_TRUE(cur.is_feasible(resolver.solution().x, 1e-9));
  }
}

TEST(LocalResolver, MembershipChurnStaysOnFastPath) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 20, .width = 1, .twist = 0});
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 6}, 2);
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 10, .delta_k = 3}, 3);
  for (const std::int32_t R : {2, 3}) {
    const auto s = static_cast<std::uint64_t>(R);
    run_resolver_churn_script(wheel, R, 551 + s, 3);
    run_resolver_churn_script(grid, R, 562 + s, 3);
    run_resolver_churn_script(circ, R, 573 + s, 3);
  }
}

TEST(LocalResolverSlow, DISABLED_LongChurnScripts) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 20, .width = 1, .twist = 0});
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 6}, 2);
  const MaxMinInstance circ =
      circulant_special_instance({.num_objectives = 10, .delta_k = 3}, 3);
  for (const std::int32_t R : {2, 3}) {
    const auto s = static_cast<std::uint64_t>(R);
    run_resolver_churn_script(wheel, R, 851 + s, 8);
    run_resolver_churn_script(grid, R, 862 + s, 8);
    run_resolver_churn_script(circ, R, 873 + s, 8);
  }
}

TEST(LocalResolver, CycleScriptsBitIdentical) {
  // R = 2 on the true cycle (the pipeline's |Iv|=4 copies make every R = 3
  // solve ~0.5 s -- see IncrementalSolver.CycleScriptsBitIdentical); R = 3
  // rides on the thin-view layered wheel below.
  const MaxMinInstance inst =
      cycle_instance({.num_agents = 14, .coeff_lo = 0.5, .coeff_hi = 2.0}, 5);
  run_resolver_script(inst, 2, 13, 5);
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 20, .width = 1, .twist = 0});
  run_resolver_script(wheel, 3, 14, 4);
}

TEST(LocalResolver, GridScriptsBitIdentical) {
  const MaxMinInstance inst = grid_instance({.rows = 3, .cols = 4}, 6);
  run_resolver_script(inst, 2, 21, 5);
}

TEST(LocalResolver, ThreeRegularScriptsBitIdentical) {
  const MaxMinInstance inst =
      regular_special_instance({.num_objectives = 8, .delta_k = 3}, 7);
  run_resolver_script(inst, 2, 31, 5);
}

TEST(LocalResolver, RandomScriptsBitIdentical) {
  // R = 2 only: the §4 pipeline raises degrees, and random instances have
  // no view symmetry to tame the radius-17 unfoldings of R = 3.
  const MaxMinInstance inst = random_general({.num_agents = 14}, 8);
  run_resolver_script(inst, 2, 41, 5);
}

TEST(LocalResolverSlow, DISABLED_LongScripts) {
  run_resolver_script(
      cycle_instance({.num_agents = 14, .coeff_lo = 0.5, .coeff_hi = 2.0}, 5),
      2, 813, 10);
  run_resolver_script(layered_instance({.delta_k = 2,
                                        .layers = 20,
                                        .width = 1,
                                        .twist = 0}),
                      3, 814, 8);
  run_resolver_script(grid_instance({.rows = 3, .cols = 4}, 6), 2, 821, 10);
  run_resolver_script(random_general({.num_agents = 14}, 8), 2, 841, 10);
}

// ---------------------------------------------------------------------------
// Transactional apply: commit-or-rollback, proved bitwise
// ---------------------------------------------------------------------------

// Snapshot-compares every piece of observable solver state against a second
// solver that never saw the failed apply: instance (full CSR bit compare),
// the t, s, g± and x tables, omega and min t.
void expect_same_solver_state(const IncrementalSolver& a,
                              const IncrementalSolver& b) {
  expect_same_instance(a.special().instance(), b.special().instance());
  ASSERT_EQ(a.x().size(), b.x().size());
  ASSERT_EQ(a.t().size(), b.t().size());
  for (std::size_t v = 0; v < a.x().size(); ++v) {
    EXPECT_TRUE(same_bits(a.x()[v], b.x()[v])) << "x, agent " << v;
    EXPECT_TRUE(same_bits(a.t()[v], b.t()[v])) << "t, agent " << v;
    EXPECT_TRUE(same_bits(a.s()[v], b.s()[v])) << "s, agent " << v;
    for (std::int32_t d = 0; d <= a.R() - 2; ++d) {
      EXPECT_TRUE(same_bits(a.g_plus(d)[v], b.g_plus(d)[v]))
          << "g+, agent " << v << ", depth " << d;
      EXPECT_TRUE(same_bits(a.g_minus(d)[v], b.g_minus(d)[v]))
          << "g-, agent " << v << ", depth " << d;
    }
  }
  EXPECT_TRUE(same_bits(a.omega(), b.omega()));
  EXPECT_TRUE(same_bits(a.t_min(), b.t_min()));
  // Derived special-form arrays (arc mirrors, capacity bounds).
  for (AgentId v = 0; v < a.special().num_agents(); ++v) {
    EXPECT_TRUE(same_bits(a.special().inv_cap(v), b.special().inv_cap(v)));
    EXPECT_TRUE(
        same_bits(a.special().t_search_upper(v), b.special().t_search_upper(v)));
  }
}

// Every rejected-delta shape must throw CheckError from the admission dry
// run with the solver left bitwise identical to a control that never saw
// the batch.
TEST(IncrementalSolverTransactional, RejectedDeltasLeaveStateUntouched) {
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  IncrementalSolver inc(grid);
  const IncrementalSolver control(grid);

  const AgentId a0 = grid.constraint_row(0)[0].agent;
  const AgentId a1 = grid.constraint_row(0)[1].agent;
  std::vector<InstanceDelta> rejects;
  rejects.push_back(
      InstanceDelta{}.set_constraint_coeff(grid.num_constraints() + 1, a0, 1.0));
  rejects.push_back(
      InstanceDelta{}.set_constraint_coeff(0, grid.num_agents() + 1, 1.0));
  rejects.push_back(InstanceDelta{}.set_constraint_coeff(0, a0, -1.0));
  rejects.push_back(InstanceDelta{}.set_constraint_coeff(
      0, a0, std::numeric_limits<double>::quiet_NaN()));
  rejects.push_back(InstanceDelta{}.set_constraint_coeff(
      0, a0, std::numeric_limits<double>::infinity()));
  rejects.push_back(InstanceDelta{}.set_objective_coeff(0, -1, 1.0));
  // Structural rejects: absent remove, duplicate add, emptied row, |Vi|!=2.
  rejects.push_back(InstanceDelta{}.remove_from_constraint(0, a0 == 0 ? 1 : 0));
  rejects.push_back(InstanceDelta{}.add_to_constraint(0, a0, 1.0));
  rejects.push_back(
      InstanceDelta{}.remove_from_constraint(0, a0).remove_from_constraint(0,
                                                                           a1));
  rejects.push_back(InstanceDelta{}.add_to_constraint(
      0, grid.agent_constraints(0).empty() ? a0 : 0, 1.0));
  // Special-form pin: objective coefficients must stay 1.
  rejects.push_back(
      InstanceDelta{}.set_objective_coeff(0, grid.objective_row(0)[0].agent,
                                          2.0));
  // Mixed batch: one valid edit + one bad one -- the whole batch must be
  // rejected with nothing applied (no partial commit).
  rejects.push_back(InstanceDelta{}
                        .set_constraint_coeff(0, a0, 1.25)
                        .set_constraint_coeff(0, grid.num_agents() + 7, 1.0));

  for (std::size_t i = 0; i < rejects.size(); ++i) {
    EXPECT_THROW(inc.apply(rejects[i]), CheckError) << "reject " << i;
    expect_same_solver_state(inc, control);
  }

  // The solver must still be fully functional after the rejections.
  InstanceDelta ok;
  ok.set_constraint_coeff(0, a0, 1.375);
  MaxMinInstance cur = grid;
  cur.apply(ok);
  inc.apply(ok);
  expect_tables_match_scratch(inc, cur, "after the rejections");
}

// Deterministic mid-flight abandonment: expire the deadline on its k-th
// probe for every k until the apply commits.  After every abandonment the
// solver must be bitwise the pre-apply state (proved against a control that
// never applied anything); after the final commit it must be bitwise a
// control that applied the delta once, cleanly.  The sweep reaches every
// probe point: admission, graph patch, one per t re-bisection, smoothing,
// g recursion and commit.
void run_deadline_sweep(const MaxMinInstance& base, const InstanceDelta& delta,
                        std::int64_t max_probes) {
  IncrementalSolver control_before(base);
  IncrementalSolver control_after(base);
  const Deadline never = Deadline::at_check(max_probes);
  control_after.apply(delta, &never);
  const std::int64_t probes = never.ticks();
  EXPECT_EQ(probes, control_after.last_update().cone_t_recomputed + 5);

  IncrementalSolver inc(base);
  bool committed = false;
  std::int64_t aborts = 0;
  for (std::int64_t k = 0; k < max_probes && !committed; ++k) {
    const Deadline deadline = Deadline::at_check(k);
    try {
      inc.apply(delta, &deadline);
      committed = true;
    } catch (const DeadlineExceeded&) {
      ++aborts;
      expect_same_solver_state(inc, control_before);
    }
  }
  ASSERT_TRUE(committed) << "apply never committed within " << max_probes
                         << " probes";
  EXPECT_EQ(aborts, probes) << "one abandonment per probe point";
  expect_same_solver_state(inc, control_after);
}

TEST(IncrementalSolverTransactional, DeadlineSweepCoefficientDelta) {
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  const SpecialFormInstance sf(grid);
  InstanceDelta delta;
  delta.set_constraint_coeff(sf.arcs(0)[0].id, 0, 1.625);
  delta.set_constraint_coeff(sf.arcs(0)[0].id, 0, 2.25);  // duplicate key
  delta.set_constraint_coeff(sf.arcs(5)[0].id, 5, 0.75);
  run_deadline_sweep(grid, delta, 200);
}

TEST(IncrementalSolverTransactional, DeadlineSweepStructuralDelta) {
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  // A rewire: find a constraint whose member keeps another constraint.
  ConstraintId row = -1;
  AgentId lose = -1, gain = -1;
  for (ConstraintId i = 0; i < grid.num_constraints() && row < 0; ++i) {
    for (const Entry& e : grid.constraint_row(i)) {
      if (grid.agent_constraints(e.agent).size() >= 2) {
        row = i;
        lose = e.agent;
        break;
      }
    }
  }
  ASSERT_GE(row, 0);
  const auto r = grid.constraint_row(row);
  for (AgentId v = 0; v < grid.num_agents() && gain < 0; ++v) {
    if (v != r[0].agent && v != r[1].agent) gain = v;
  }
  InstanceDelta delta;
  delta.remove_from_constraint(row, lose).add_to_constraint(row, gain, 1.5);
  run_deadline_sweep(grid, delta, 400);
}

TEST(IncrementalSolverTransactional, DeadlineRequiresEngineL) {
  const MaxMinInstance wheel = layered_instance(
      {.delta_k = 2, .layers = 10, .width = 1, .twist = 0});
  IncrementalSolver::Options opt;
  opt.R = 2;
  opt.engine = DynamicEngine::kMessagePassing;
  IncrementalSolver inc(wheel, opt);
  InstanceDelta delta;
  delta.set_constraint_coeff(inc.special().arcs(0)[0].id, 0, 1.5);
  const Deadline deadline = Deadline::at_check(1000);
  EXPECT_THROW(inc.apply(delta, &deadline), CheckError);
  inc.apply(delta);  // without a deadline the engine still works
}

// ---------------------------------------------------------------------------
// Epoch fast-forward: the near-wrap renumbering path
// ---------------------------------------------------------------------------

// Fast-forwards the flood-epoch counter to just below the renumbering
// threshold (0xFFFFFF00) and keeps editing: the counter must renumber
// instead of CHECK-failing, and every update must stay bit-identical to the
// from-scratch oracle (regression for the old hard CHECK at 0xFFFFFFF0,
// which a long-lived serving process would eventually hit).
TEST(IncrementalSolver, EpochFastForwardRenumbersAndStaysExact) {
  const MaxMinInstance grid = special_grid_instance({.rows = 4, .cols = 8}, 2);
  IncrementalSolver inc(grid);
  MaxMinInstance cur = grid;
  Rng rng(909);

  inc.set_flood_epoch_for_test(0xFFFFFEFDu);  // 3 updates below the threshold
  for (int step = 0; step < 8; ++step) {
    const InstanceDelta delta =
        random_special_delta(inc.special(), rng, /*allow_structural=*/true);
    inc.apply(delta);
    cur.apply(delta);
    expect_tables_match_scratch(inc, cur, "step " + std::to_string(step));
  }
}

}  // namespace
}  // namespace locmm
