// Tests for the serving layer (src/serve): the ServeStatus error taxonomy
// (tenant-attributable failures come back as structured rejections, never
// as CheckError throws), exact admission against the projected instance,
// bounded-queue backpressure with coefficient- and structural-batch
// coalescing,
// deadline-degraded serving with idle repair, and -- the headline -- a
// multi-tenant chaos workload (concurrent valid + malformed +
// deadline-pressured streams) whose committed state must stay bitwise
// identical to a scratch solver fed only the accepted batches.  The
// concurrent suites are the repo's first real multi-writer workload; the
// CI TSan job runs the promoted chaos fixture via the slow_serve_chaos
// ctest entry.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "lp/delta.hpp"
#include "serve/solver_service.hpp"
#include "support/prng.hpp"

namespace locmm {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

MaxMinInstance wheel_instance(std::int32_t layers) {
  return layered_instance(
      {.delta_k = 2, .layers = layers, .width = 1, .twist = 0});
}

MaxMinInstance grid_family(std::int32_t cols) {
  return special_grid_instance({.rows = 4, .cols = cols}, 2);
}

// A valid special-form-preserving delta against `sf` (mirrors the
// incremental_test generator: coefficient bumps, constraint rewires,
// objective moves).
InstanceDelta valid_delta(const SpecialFormInstance& sf, Rng& rng,
                          bool allow_structural) {
  const MaxMinInstance& inst = sf.instance();
  InstanceDelta delta;
  const std::uint64_t kind = rng.below(allow_structural ? 3 : 1);
  if (kind == 1) {
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
  } else if (kind == 2) {
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

// One malformed delta per call, cycling through every rejection shape the
// admission dry run knows.
InstanceDelta malformed_delta(const MaxMinInstance& inst, std::uint64_t n) {
  InstanceDelta delta;
  switch (n % 8) {
    case 0:  // out-of-range constraint row
      delta.set_constraint_coeff(inst.num_constraints() + 7, 0, 1.0);
      break;
    case 1:  // out-of-range agent
      delta.set_constraint_coeff(0, inst.num_agents() + 3, 1.0);
      break;
    case 2:  // non-positive coefficient
      delta.set_constraint_coeff(0, inst.constraint_row(0)[0].agent, -2.0);
      break;
    case 3:  // NaN coefficient
      delta.set_constraint_coeff(0, inst.constraint_row(0)[0].agent,
                                 std::numeric_limits<double>::quiet_NaN());
      break;
    case 4:  // remove of an absent entry
      delta.remove_from_constraint(
          0, inst.constraint_row(1)[0].agent == inst.constraint_row(0)[0].agent
                 ? inst.num_agents() - 1
                 : inst.constraint_row(1)[0].agent);
      // ensure the agent really is absent from row 0
      if (!delta.removes.empty()) {
        const AgentId v = delta.removes[0].agent;
        for (const Entry& e : inst.constraint_row(0)) {
          if (e.agent == v) {  // unlucky: make it out-of-range instead
            delta.removes[0].agent = inst.num_agents() + 1;
          }
        }
      }
      break;
    case 5:  // duplicate add (already a member)
      delta.add_to_constraint(0, inst.constraint_row(0)[0].agent, 1.0);
      break;
    case 6:  // empties a constraint row (and breaks |Vi| = 2)
      delta.remove_from_constraint(0, inst.constraint_row(0)[0].agent);
      delta.remove_from_constraint(0, inst.constraint_row(0)[1].agent);
      break;
    default:  // objective coefficient != 1 (special-form pin)
      delta.set_objective_coeff(0, inst.objective_row(0)[0].agent, 2.5);
      break;
  }
  return delta;
}

std::vector<double> committed_x(const SolverService& svc,
                                const std::string& name, std::int32_t n) {
  std::vector<double> x(static_cast<std::size_t>(n));
  for (AgentId v = 0; v < n; ++v) {
    QueryResult q;
    EXPECT_TRUE(svc.query_x(name, v, &q).ok());
    x[static_cast<std::size_t>(v)] = q.value;
  }
  return x;
}

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

TEST(ServeStatus, CodesHaveNames) {
  EXPECT_STREQ(to_string(ServeCode::kOk), "ok");
  EXPECT_STREQ(to_string(ServeCode::kMalformedDelta), "malformed-delta");
  EXPECT_STREQ(to_string(ServeCode::kQueueFull), "queue-full");
  EXPECT_STREQ(to_string(ServeCode::kDeadlineExceeded), "deadline-exceeded");
  EXPECT_STREQ(to_string(ServeCode::kInternal), "internal-error");
}

TEST(SolverService, UnknownTenantIsAStatusEverywhere) {
  SolverService svc;
  QueryResult q;
  TenantStats st;
  EXPECT_EQ(svc.submit("ghost", InstanceDelta{}).code,
            ServeCode::kUnknownTenant);
  EXPECT_EQ(svc.drain("ghost").code, ServeCode::kUnknownTenant);
  EXPECT_EQ(svc.query_x("ghost", 0, &q).code, ServeCode::kUnknownTenant);
  EXPECT_EQ(svc.utility("ghost", &q).code, ServeCode::kUnknownTenant);
  EXPECT_EQ(svc.stats("ghost", &st).code, ServeCode::kUnknownTenant);
  EXPECT_EQ(svc.drop_tenant("ghost").code, ServeCode::kUnknownTenant);
}

TEST(SolverService, CreateRejectsBadArgumentsAsStatuses) {
  SolverService svc;
  const MaxMinInstance wheel = wheel_instance(12);
  EXPECT_EQ(svc.create_tenant("", wheel).code, ServeCode::kInvalidArgument);
  ASSERT_TRUE(svc.create_tenant("a", wheel).ok());
  EXPECT_EQ(svc.create_tenant("a", wheel).code, ServeCode::kTenantExists);

  // A non-special-form instance must come back as a status, not a throw.
  const MaxMinInstance general =
      cycle_instance({.num_agents = 12, .coeff_lo = 0.5, .coeff_hi = 2.0}, 5);
  EXPECT_EQ(svc.create_tenant("bad", general).code,
            ServeCode::kInvalidArgument);
  EXPECT_EQ(svc.tenant_names(), std::vector<std::string>{"a"});
  EXPECT_TRUE(svc.drop_tenant("a").ok());
}

TEST(SolverService, QueryArgumentValidation) {
  SolverService svc;
  ASSERT_TRUE(svc.create_tenant("t", wheel_instance(10)).ok());
  QueryResult q;
  EXPECT_EQ(svc.query_x("t", -1, &q).code, ServeCode::kInvalidArgument);
  EXPECT_EQ(svc.query_x("t", 1 << 20, &q).code, ServeCode::kInvalidArgument);
  EXPECT_TRUE(svc.query_x("t", 0, &q).ok());
  EXPECT_FALSE(q.stale);
}

// ---------------------------------------------------------------------------
// Admission
// ---------------------------------------------------------------------------

TEST(SolverService, MalformedBatchesRejectedWithCommittedStateUntouched) {
  SolverService svc;
  const MaxMinInstance grid = grid_family(8);
  ASSERT_TRUE(svc.create_tenant("t", grid).ok());
  const std::vector<double> before = committed_x(svc, "t", grid.num_agents());

  for (std::uint64_t shape = 0; shape < 16; ++shape) {
    const ServeStatus s = svc.submit("t", malformed_delta(grid, shape));
    EXPECT_EQ(s.code, ServeCode::kMalformedDelta) << "shape " << shape;
    EXPECT_FALSE(s.message.empty());
  }
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.rejected_malformed, 16);
  EXPECT_EQ(st.accepted, 0);
  EXPECT_EQ(st.queued_batches, 0);

  // Nothing queued, nothing mutated: every committed value is bit-equal.
  EXPECT_TRUE(svc.drain("t").ok());
  const std::vector<double> after = committed_x(svc, "t", grid.num_agents());
  for (std::size_t v = 0; v < before.size(); ++v) {
    EXPECT_TRUE(same_bits(before[v], after[v])) << "agent " << v;
  }
}

TEST(SolverService, AdmissionValidatesAgainstQueuedWork) {
  SolverService svc;
  const MaxMinInstance wheel = grid_family(8);
  ASSERT_TRUE(svc.create_tenant("t", wheel).ok());

  // Batch 1 (queued, not drained): rewire a constraint row away from `lose`
  // -- an agent that keeps another constraint after the removal.
  ConstraintId row = -1;
  AgentId lose = -1, gain = -1;
  for (ConstraintId i = 0; i < wheel.num_constraints() && row < 0; ++i) {
    for (const Entry& e : wheel.constraint_row(i)) {
      if (wheel.agent_constraints(e.agent).size() >= 2) {
        row = i;
        lose = e.agent;
        break;
      }
    }
  }
  ASSERT_GE(row, 0);
  const auto r0 = wheel.constraint_row(row);
  for (AgentId v = 0; v < wheel.num_agents() && gain < 0; ++v) {
    if (v != r0[0].agent && v != r0[1].agent) gain = v;
  }
  InstanceDelta rewire;
  rewire.remove_from_constraint(row, lose).add_to_constraint(row, gain, 1.5);
  ASSERT_TRUE(svc.submit("t", rewire).ok());

  // A second batch editing the (committed-state) membership that batch 1
  // removes must be rejected NOW -- the projection already dropped it.
  InstanceDelta stale_edit;
  stale_edit.set_constraint_coeff(row, lose, 2.0);
  EXPECT_EQ(svc.submit("t", stale_edit).code, ServeCode::kMalformedDelta);

  // And a batch editing the membership batch 1 CREATED is admissible even
  // though the committed instance has never seen it.
  InstanceDelta new_edit;
  new_edit.set_constraint_coeff(row, gain, 0.75);
  EXPECT_TRUE(svc.submit("t", new_edit).ok());
  EXPECT_TRUE(svc.drain("t").ok());

  // Committed state now matches a scratch solver fed the same two batches.
  IncrementalSolver oracle(wheel);
  oracle.apply(rewire);
  oracle.apply(new_edit);
  const std::vector<double> got = committed_x(svc, "t", wheel.num_agents());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_TRUE(same_bits(got[v], oracle.x()[v])) << "agent " << v;
  }
}

TEST(SolverService, OversizedBatchRejected) {
  SolverService svc;
  TenantOptions opt;
  opt.limits.max_batch_edits = 3;
  const MaxMinInstance grid = grid_family(6);
  ASSERT_TRUE(svc.create_tenant("t", grid, opt).ok());
  InstanceDelta big;
  for (AgentId v = 0; v < 4; ++v) {
    const auto inc = grid.agent_constraints(v);
    big.set_constraint_coeff(inc[0].row, v, 1.25);
  }
  EXPECT_EQ(svc.submit("t", big).code, ServeCode::kOversizedBatch);
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.rejected_oversized, 1);
}

// ---------------------------------------------------------------------------
// Backpressure and coalescing
// ---------------------------------------------------------------------------

TEST(SolverService, BoundedQueueShedsWhenFull) {
  SolverService svc;
  TenantOptions opt;
  opt.limits.max_queued_batches = 2;
  const MaxMinInstance wheel = wheel_instance(20);
  ASSERT_TRUE(svc.create_tenant("t", wheel, opt).ok());

  // Structural batches never coalesce, so each occupies a queue slot.
  Rng rng(7);
  int accepted = 0, shed = 0;
  for (int i = 0; i < 5; ++i) {
    InstanceDelta d;
    // Rewire a distinct constraint each time (structural, disjoint rows).
    const auto r = svc.tenant_names();  // keep the service awake
    (void)r;
    const ConstraintId row = static_cast<ConstraintId>(i);
    const auto cr = wheel.constraint_row(row);
    d.set_constraint_coeff(row, cr[0].agent, 1.0 + 0.125 * (i + 1));
    d.remove_from_constraint(row, cr[1].agent);
    d.add_to_constraint(row, cr[1].agent, 2.0);
    const ServeStatus s = svc.submit("t", d);
    if (s.ok()) {
      ++accepted;
    } else {
      EXPECT_EQ(s.code, ServeCode::kQueueFull);
      ++shed;
    }
  }
  EXPECT_EQ(accepted, 2);
  EXPECT_EQ(shed, 3);
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.shed_queue_full, 3);
  EXPECT_EQ(st.queued_batches, 2);

  EXPECT_TRUE(svc.drain("t").ok());
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.queued_batches, 0);
  EXPECT_EQ(st.committed_epoch, 2u);

  // Capacity is back after the drain.
  InstanceDelta d;
  d.set_constraint_coeff(0, wheel.constraint_row(0)[0].agent, 3.0);
  EXPECT_TRUE(svc.submit("t", d).ok());
}

TEST(SolverService, OverlappingCoeffBatchesCoalesce) {
  SolverService svc;
  const MaxMinInstance grid = grid_family(10);
  ASSERT_TRUE(svc.create_tenant("t", grid).ok());

  const auto inc0 = grid.agent_constraints(0);
  InstanceDelta a, b;
  a.set_constraint_coeff(inc0[0].row, 0, 1.5);
  b.set_constraint_coeff(inc0[0].row, 0, 2.5);   // overwrites a's edit
  b.set_constraint_coeff(inc0[1].row, 0, 0.75);  // new entry, same agent

  ASSERT_TRUE(svc.submit("t", a).ok());
  ASSERT_TRUE(svc.submit("t", b).ok());
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.coalesced, 1);
  EXPECT_EQ(st.accepted, 2);
  EXPECT_EQ(st.queued_batches, 1);  // one merged batch, one re-solve

  EXPECT_TRUE(svc.drain("t").ok());
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.committed_epoch, 1u);

  // Merged application == sequential application, bit for bit.
  IncrementalSolver oracle(grid);
  oracle.apply(a);
  oracle.apply(b);
  const std::vector<double> got = committed_x(svc, "t", grid.num_agents());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_TRUE(same_bits(got[v], oracle.x()[v])) << "agent " << v;
  }
}

TEST(SolverService, CoalescingHonoursDuplicateEditsInOneBatch) {
  // A batch may hit the same (row, agent) entry twice; edits apply in
  // vector order, so the batch's own later duplicate must win over a
  // coalesced overwrite of the earlier one (regression: the merge used to
  // patch the FIRST occurrence, which the tail's own duplicate shadowed).
  SolverService svc;
  const MaxMinInstance grid = grid_family(10);
  ASSERT_TRUE(svc.create_tenant("t", grid).ok());

  const ConstraintId row = grid.agent_constraints(0)[0].row;
  InstanceDelta a, b;
  a.set_constraint_coeff(row, 0, 1.5);
  a.set_constraint_coeff(row, 0, 2.0);  // duplicate key, applied second
  b.set_constraint_coeff(row, 0, 3.0);  // must win over BOTH of a's edits

  ASSERT_TRUE(svc.submit("t", a).ok());
  ASSERT_TRUE(svc.submit("t", b).ok());
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.coalesced, 1);
  EXPECT_TRUE(svc.drain("t").ok());

  IncrementalSolver oracle(grid);
  oracle.apply(a);
  oracle.apply(b);
  const std::vector<double> got = committed_x(svc, "t", grid.num_agents());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_TRUE(same_bits(got[v], oracle.x()[v])) << "agent " << v;
  }
}

TEST(SolverService, OverlappingStructuralBatchesCoalesce) {
  // Two structural batches on the same |Vi| = 2 row: a rewires {p, q} ->
  // {q, g}; b rewires {q, g} -> {g, p}.  b removes q -- which a neither
  // added nor coefficient-edited -- so the merge is order-equivalent and
  // must coalesce into ONE queued batch whose commit is bitwise what the
  // two would produce in sequence (including the remove-then-re-add of p).
  SolverService svc;
  const MaxMinInstance grid = grid_family(10);
  ASSERT_TRUE(svc.create_tenant("t", grid).ok());

  const ConstraintId i = 0;
  const AgentId p = grid.constraint_row(i)[0].agent;
  const AgentId q = grid.constraint_row(i)[1].agent;
  AgentId g = -1;
  for (AgentId v = 0; v < grid.num_agents() && g < 0; ++v) {
    if (v != p && v != q) g = v;
  }
  ASSERT_GE(g, 0);
  ASSERT_GE(grid.agent_constraints(p).size(), 2u);
  ASSERT_GE(grid.agent_constraints(q).size(), 2u);

  InstanceDelta a, b;
  a.remove_from_constraint(i, p).add_to_constraint(i, g, 1.5);
  b.remove_from_constraint(i, q).add_to_constraint(i, p, 0.75);

  ASSERT_TRUE(svc.submit("t", a).ok());
  ASSERT_TRUE(svc.submit("t", b).ok());
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.coalesced, 1);
  EXPECT_EQ(st.accepted, 2);
  EXPECT_EQ(st.queued_batches, 1);  // one merged batch, one re-solve

  EXPECT_TRUE(svc.drain("t").ok());
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.committed_epoch, 1u);

  IncrementalSolver oracle(grid);
  oracle.apply(a);
  oracle.apply(b);
  const std::vector<double> got = committed_x(svc, "t", grid.num_agents());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_TRUE(same_bits(got[v], oracle.x()[v])) << "agent " << v;
  }
}

TEST(SolverService, StructuralCoalesceRefusesUnsafeMerges) {
  // b removes the very entry a added: concatenating would hoist the remove
  // ahead of the add and break the batch.  The service must queue b
  // separately -- and still commit both to the exact sequential state.
  SolverService svc;
  const MaxMinInstance grid = grid_family(10);
  ASSERT_TRUE(svc.create_tenant("t", grid).ok());

  const ConstraintId i = 0;
  const AgentId p = grid.constraint_row(i)[0].agent;
  AgentId g = -1;
  for (AgentId v = 0; v < grid.num_agents() && g < 0; ++v) {
    if (v != p && v != grid.constraint_row(i)[1].agent) g = v;
  }
  ASSERT_GE(g, 0);

  InstanceDelta a, b;
  a.remove_from_constraint(i, p).add_to_constraint(i, g, 1.5);
  b.remove_from_constraint(i, g).add_to_constraint(i, p, 0.75);

  ASSERT_TRUE(svc.submit("t", a).ok());
  ASSERT_TRUE(svc.submit("t", b).ok());
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.coalesced, 0);
  EXPECT_EQ(st.queued_batches, 2);

  EXPECT_TRUE(svc.drain("t").ok());
  IncrementalSolver oracle(grid);
  oracle.apply(a);
  oracle.apply(b);
  const std::vector<double> got = committed_x(svc, "t", grid.num_agents());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_TRUE(same_bits(got[v], oracle.x()[v])) << "agent " << v;
  }
}

TEST(SolverService, StructuralCoalesceHonoursBatchSizeLimit) {
  // A merge that would exceed max_batch_edits queues separately instead:
  // coalescing must never manufacture a batch submit() would have rejected.
  SolverService svc;
  const MaxMinInstance grid = grid_family(10);
  TenantOptions opt;
  opt.limits.max_batch_edits = 3;
  ASSERT_TRUE(svc.create_tenant("t", grid, opt).ok());

  const ConstraintId i = 0;
  const AgentId p = grid.constraint_row(i)[0].agent;
  const AgentId q = grid.constraint_row(i)[1].agent;

  InstanceDelta a, b;
  a.remove_from_constraint(i, p).add_to_constraint(i, p, 1.5);
  b.remove_from_constraint(i, q).add_to_constraint(i, q, 0.75);

  ASSERT_TRUE(svc.submit("t", a).ok());
  ASSERT_TRUE(svc.submit("t", b).ok());  // 2 + 2 > 3: no merge
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.coalesced, 0);
  EXPECT_EQ(st.queued_batches, 2);
}

TEST(SolverService, DisjointCoeffBatchesDoNotCoalesce) {
  SolverService svc;
  const MaxMinInstance grid = grid_family(24);
  ASSERT_TRUE(svc.create_tenant("t", grid).ok());
  // Agents 0 and n-1 sit in distant parts of the torus: disjoint rows.
  const AgentId far = grid.num_agents() / 2 + 1;
  InstanceDelta a, b;
  a.set_constraint_coeff(grid.agent_constraints(0)[0].row, 0, 1.5);
  b.set_constraint_coeff(grid.agent_constraints(far)[0].row, far, 2.5);
  ASSERT_TRUE(svc.submit("t", a).ok());
  ASSERT_TRUE(svc.submit("t", b).ok());
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.coalesced, 0);
  EXPECT_EQ(st.queued_batches, 2);
}

// ---------------------------------------------------------------------------
// Deadlines: degraded serving + idle repair
// ---------------------------------------------------------------------------

TEST(SolverService, DeadlineDegradesThenIdleRepairs) {
  SolverService svc;
  TenantOptions opt;
  // A budget this small expires at the first cooperative probe: every
  // budgeted drain abandons transactionally.
  opt.limits.apply_budget_us = 1e-3;
  const MaxMinInstance wheel = wheel_instance(24);
  ASSERT_TRUE(svc.create_tenant("t", wheel, opt).ok());
  const std::vector<double> before = committed_x(svc, "t", wheel.num_agents());

  InstanceDelta d;
  d.set_constraint_coeff(0, wheel.constraint_row(0)[0].agent, 2.5);
  ASSERT_TRUE(svc.submit("t", d).ok());

  const ServeStatus s = svc.drain("t");
  EXPECT_EQ(s.code, ServeCode::kDeadlineExceeded);
  TenantStats st;
  ASSERT_TRUE(svc.stats("t", &st).ok());
  EXPECT_EQ(st.deadline_aborts, 1);
  EXPECT_EQ(st.queued_batches, 1);  // the batch survived the abandonment
  EXPECT_EQ(st.committed_epoch, 0u);

  // Queries keep serving the last committed epoch, flagged stale, bitwise
  // identical to the pre-submit state (the abandonment rolled back).
  QueryResult q;
  ASSERT_TRUE(svc.query_x("t", 0, &q).ok());
  EXPECT_TRUE(q.stale);
  const std::vector<double> during = committed_x(svc, "t", wheel.num_agents());
  for (std::size_t v = 0; v < before.size(); ++v) {
    ASSERT_TRUE(same_bits(before[v], during[v])) << "agent " << v;
  }

  // The idle cycle drains without budgets and repairs to the exact state a
  // scratch solver reaches.
  EXPECT_EQ(svc.repair_idle(), 1);
  ASSERT_TRUE(svc.query_x("t", 0, &q).ok());
  EXPECT_FALSE(q.stale);
  EXPECT_EQ(q.epoch, 1u);
  IncrementalSolver oracle(wheel);
  oracle.apply(d);
  const std::vector<double> after = committed_x(svc, "t", wheel.num_agents());
  for (std::size_t v = 0; v < after.size(); ++v) {
    ASSERT_TRUE(same_bits(after[v], oracle.x()[v])) << "agent " << v;
  }
}

// utility() answers from the solver's maintained omega in O(1); it must be
// bitwise what a whole-instance utility() of the committed x computes --
// after random edit scripts, and across a deadline-abandoned drain and the
// idle repair that follows it.
TEST(SolverService, UtilityIsTheMaintainedOmega) {
  SolverService svc;
  const MaxMinInstance grid = grid_family(8);
  ASSERT_TRUE(svc.create_tenant("t", grid).ok());
  SpecialFormInstance committed(grid);
  const auto expect_utility = [&](const char* where) {
    QueryResult q;
    ASSERT_TRUE(svc.utility("t", &q).ok());
    const std::vector<double> x = committed_x(svc, "t", grid.num_agents());
    EXPECT_TRUE(same_bits(q.value, committed.instance().utility(x)))
        << where << ": " << q.value << " vs "
        << committed.instance().utility(x);
  };
  expect_utility("cold");

  Rng rng(4242);
  for (int step = 0; step < 12; ++step) {
    const InstanceDelta d = valid_delta(committed, rng, /*structural=*/true);
    ASSERT_TRUE(svc.submit("t", d).ok());
    ASSERT_TRUE(svc.drain("t").ok());
    committed.apply(d);
    expect_utility("script");
  }

  // A deadline-abandoned drain leaves omega at the committed epoch...
  SolverService tight;
  TenantOptions opt;
  opt.limits.apply_budget_us = 1e-3;
  ASSERT_TRUE(tight.create_tenant("t", committed.instance(), opt).ok());
  const InstanceDelta d = valid_delta(committed, rng, /*structural=*/true);
  ASSERT_TRUE(tight.submit("t", d).ok());
  EXPECT_EQ(tight.drain("t").code, ServeCode::kDeadlineExceeded);
  QueryResult q;
  ASSERT_TRUE(tight.utility("t", &q).ok());
  EXPECT_TRUE(q.stale);
  std::vector<double> x = committed_x(tight, "t", grid.num_agents());
  EXPECT_TRUE(same_bits(q.value, committed.instance().utility(x)));
  // ...and the idle repair moves it to the edited instance's utility.
  EXPECT_EQ(tight.repair_idle(), 1);
  committed.apply(d);
  ASSERT_TRUE(tight.utility("t", &q).ok());
  EXPECT_FALSE(q.stale);
  x = committed_x(tight, "t", grid.num_agents());
  EXPECT_TRUE(same_bits(q.value, committed.instance().utility(x)));
}

// ---------------------------------------------------------------------------
// Chaos: concurrent multi-tenant streams vs scratch oracles
// ---------------------------------------------------------------------------

struct ChaosConfig {
  int tenants = 4;
  int steps = 12;          // batches attempted per tenant, at least...
  double min_seconds = 0;  // ...and until each writer has run this long
  bool structural = true;  // mix in rewires / objective moves
  bool deadline_pressure = true;
};

// Each worker thread owns one tenant and drives a randomized stream of
// valid, malformed and (optionally) deadline-pressured batches, interleaved
// with queries; a per-tenant scratch IncrementalSolver replays exactly the
// accepted batches as the oracle, each on its own thread.  After the storm:
// repair, then every committed value must be bit-identical to the oracle.  No exception may
// escape the service boundary (gtest would fail the thread).
void run_chaos(const ChaosConfig& cfg) {
  SolverService svc;
  std::vector<std::string> names;
  std::vector<MaxMinInstance> bases;
  for (int t = 0; t < cfg.tenants; ++t) {
    names.push_back("tenant-" + std::to_string(t));
    bases.push_back(t % 2 == 0 ? wheel_instance(16 + 2 * t)
                               : grid_family(6 + t));
    TenantOptions opt;
    opt.limits.max_queued_batches = 4;
    if (cfg.deadline_pressure && t % 2 == 1) {
      opt.limits.apply_budget_us = 1e-3;  // every budgeted drain abandons
    }
    ASSERT_TRUE(svc.create_tenant(names.back(), bases.back(), opt).ok());
  }

  std::vector<std::vector<InstanceDelta>> accepted(
      static_cast<std::size_t>(cfg.tenants));
  std::vector<std::thread> workers;
  for (int t = 0; t < cfg.tenants; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(1000 + 17 * static_cast<std::uint64_t>(t));
      // Tenant-local mirror of the projected instance, so the generator
      // can produce valid deltas against queued-but-uncommitted state.
      SpecialFormInstance mirror(bases[static_cast<std::size_t>(t)]);
      const auto start = std::chrono::steady_clock::now();
      const auto busy = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count() < cfg.min_seconds;
      };
      for (int step = 0; step < cfg.steps || busy(); ++step) {
        const std::uint64_t roll = rng.below(10);
        if (roll < 3) {  // malformed traffic
          const ServeStatus s = svc.submit(
              names[static_cast<std::size_t>(t)],
              malformed_delta(mirror.instance(), rng.below(100)));
          EXPECT_EQ(s.code, ServeCode::kMalformedDelta);
        } else {
          const InstanceDelta d = valid_delta(mirror, rng, cfg.structural);
          const ServeStatus s =
              svc.submit(names[static_cast<std::size_t>(t)], d);
          if (s.ok()) {
            mirror.apply(d);
            accepted[static_cast<std::size_t>(t)].push_back(d);
          } else {
            EXPECT_EQ(s.code, ServeCode::kQueueFull);
          }
        }
        if (roll % 2 == 0) {
          const ServeStatus s = svc.drain(names[static_cast<std::size_t>(t)]);
          EXPECT_TRUE(s.ok() || s.code == ServeCode::kDeadlineExceeded)
              << s.message;
        }
        QueryResult q;
        EXPECT_TRUE(
            svc.query_x(names[static_cast<std::size_t>(t)], 0, &q).ok());
        // Cross-tenant probe: reads on a neighbour while it mutates.
        QueryResult other;
        EXPECT_TRUE(svc.utility(names[static_cast<std::size_t>(
                                    (t + 1) % cfg.tenants)],
                                &other)
                        .ok());
      }
    });
  }
  for (std::thread& w : workers) w.join();

  // Scratch solvers replay the accepted streams, one thread per tenant,
  // while the service repairs every queue (deadline-pressured tenants still
  // hold batches); the comparisons then run here.
  std::vector<std::future<std::vector<double>>> oracles;
  for (int t = 0; t < cfg.tenants; ++t) {
    oracles.push_back(std::async(std::launch::async, [&, t] {
      IncrementalSolver oracle(bases[static_cast<std::size_t>(t)]);
      for (const InstanceDelta& d : accepted[static_cast<std::size_t>(t)]) {
        oracle.apply(d);
      }
      return oracle.x();
    }));
  }
  svc.repair_idle();
  for (int t = 0; t < cfg.tenants; ++t) {
    TenantStats st;
    ASSERT_TRUE(svc.stats(names[static_cast<std::size_t>(t)], &st).ok());
    EXPECT_EQ(st.queued_batches, 0) << names[static_cast<std::size_t>(t)];
    EXPECT_EQ(st.internal_errors, 0) << names[static_cast<std::size_t>(t)];

    const std::vector<double> want =
        oracles[static_cast<std::size_t>(t)].get();
    const std::vector<double> got =
        committed_x(svc, names[static_cast<std::size_t>(t)],
                    bases[static_cast<std::size_t>(t)].num_agents());
    for (std::size_t v = 0; v < got.size(); ++v) {
      ASSERT_TRUE(same_bits(got[v], want[v]))
          << names[static_cast<std::size_t>(t)] << " agent " << v;
    }
    QueryResult q;
    ASSERT_TRUE(svc.query_x(names[static_cast<std::size_t>(t)], 0, &q).ok());
    EXPECT_FALSE(q.stale);
  }
}

// Tier-1 smoke: small enough for the plain ctest run (and still concurrent,
// so ordinary CI exercises the locking on every push).
TEST(ServeChaos, SmokeConcurrentTenants) {
  run_chaos({.tenants = 3, .steps = 6});
}

// Same-tenant multi-writer: commuting coefficient edits on well-separated
// rows from several threads, with concurrent queries and drains.  The
// service serializes per tenant; the test asserts the end state matches
// SOME serialization (here: edits commute bitwise because each thread owns
// a disjoint entry set and coefficient application is per-entry).
TEST(ServeChaos, SameTenantCommutingWriters) {
  SolverService svc;
  const MaxMinInstance grid = grid_family(24);
  TenantOptions opt;
  opt.limits.max_queued_batches = 64;
  ASSERT_TRUE(svc.create_tenant("shared", grid, opt).ok());

  constexpr int kThreads = 4;
  constexpr int kEditsEach = 5;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      for (int i = 0; i < kEditsEach; ++i) {
        // Thread w edits only agent w's first constraint: disjoint keys.
        InstanceDelta d;
        d.set_constraint_coeff(grid.agent_constraints(w)[0].row, w,
                               1.0 + 0.0625 * (w + 1) + 0.001 * i);
        ASSERT_TRUE(svc.submit("shared", d).ok());
        QueryResult q;
        ASSERT_TRUE(svc.query_x("shared", w, &q).ok());
        if (i % 2 == 0) {
          const ServeStatus s = svc.drain("shared");
          ASSERT_TRUE(s.ok()) << s.message;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  svc.repair_idle();

  // Final coefficients are the per-thread last writes regardless of the
  // interleaving; the committed solution must equal a scratch solve of the
  // final instance.
  InstanceDelta final_delta;
  for (int w = 0; w < kThreads; ++w) {
    final_delta.set_constraint_coeff(
        grid.agent_constraints(w)[0].row, w,
        1.0 + 0.0625 * (w + 1) + 0.001 * (kEditsEach - 1));
  }
  IncrementalSolver oracle(grid);
  oracle.apply(final_delta);
  const std::vector<double> got =
      committed_x(svc, "shared", grid.num_agents());
  for (std::size_t v = 0; v < got.size(); ++v) {
    ASSERT_TRUE(same_bits(got[v], oracle.x()[v])) << "agent " << v;
  }
}

// The promoted chaos fixture: more tenants, structural + deadline pressure
// everywhere, and every writer busy for at least 2 s of wall time -- edits
// are O(ball), so a fixed step count would finish in milliseconds and
// leave the writers barely overlapping.  DISABLED_ keeps it out of tier-1;
// the slow_serve_chaos ctest entry re-enables it (the CI TSan job runs it).
TEST(ServeChaosSlow, DISABLED_FullStorm) {
  run_chaos({.tenants = 6, .steps = 24, .min_seconds = 2.0});
}

}  // namespace
}  // namespace locmm
