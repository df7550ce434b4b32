// solver_service.hpp -- a long-lived multi-tenant serving front for the
// incremental solver (the ROADMAP's "SolverService" item; paper §1.3 is
// what makes it viable: every edit re-solves a radius-D(R) ball, so one
// process can serve many mutating instances).
//
// Each tenant owns one engine-C IncrementalSolver (its COMMITTED state: the
// solution every query answers from) plus a bounded queue of admitted but
// not yet applied delta batches.  The design makes every failure mode a
// contained, reported outcome:
//
//   * admission -- submit() dry-runs the batch against the tenant's
//     PROJECTED instance (committed + queued, maintained as a shadow
//     SpecialFormInstance) via check_applicable.  A malformed batch comes
//     back as ServeCode::kMalformedDelta with the violation messages; the
//     projection makes admission exact for queued work: the front batch is
//     always applicable to the committed state, by induction.
//   * backpressure -- the queue is bounded (TenantLimits::max_queued_batches).
//     A batch whose dirty footprint overlaps the queue tail coalesces into
//     it when the merge is order-equivalent: coefficient edits last-write-
//     wins (always safe), and STRUCTURAL batches concatenate their remove /
//     add lists whenever nothing the new batch removes was added or
//     coefficient-edited by the tail (and the merged batch stays within
//     max_batch_edits) -- equivalent to applying both in order, one re-solve
//     instead of two, committing the same state bitwise.  Otherwise a full
//     queue sheds the batch as kQueueFull.  Counters track accepted /
//     rejected / coalesced / shed.
//   * deadlines -- drain() applies queued batches to the committed solver,
//     each under TenantLimits::apply_budget_us.  An expired budget abandons
//     that batch TRANSACTIONALLY (IncrementalSolver::apply rolls back
//     bitwise) and returns kDeadlineExceeded; the batch stays queued,
//     queries keep answering from the last committed epoch with
//     QueryResult::stale set, and repair_idle() -- the idle-cycle hook --
//     re-drains without budgets.
//   * taxonomy -- no exception crosses this boundary.  CheckError inside a
//     drain (impossible if the admission induction holds) is counted,
//     reported as kInternal, and contained by dropping the tenant's queue
//     and resynchronizing the projection from the committed state.
//
// Thread safety: the tenant map is under a shared_mutex, each tenant under
// its own mutex, so distinct tenants submit / drain / query fully in
// parallel (the serve chaos suite runs this under TSan); calls on the SAME
// tenant serialize.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "dynamic/incremental_solver.hpp"
#include "serve/serve_status.hpp"

namespace locmm {

struct TenantLimits {
  std::int64_t max_batch_edits = 256;   // submit: larger batches rejected
  std::int64_t max_queued_batches = 8;  // backpressure bound
  double apply_budget_us = 0.0;         // drain budget per batch; 0 = none
};

struct TenantOptions {
  std::int32_t R = 4;
  TSearchOptions t_search = {};
  std::size_t threads = 1;
  TenantLimits limits;
};

struct TenantStats {
  std::uint64_t committed_epoch = 0;  // batches committed into the solver
  std::int64_t queued_batches = 0;
  std::int64_t queued_edits = 0;
  std::int64_t accepted = 0;           // admitted batches (incl. coalesced)
  std::int64_t coalesced = 0;          // ...merged into a queued batch
  std::int64_t rejected_malformed = 0;
  std::int64_t rejected_oversized = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t deadline_aborts = 0;    // transactional drain abandonments
  std::int64_t internal_errors = 0;    // contained CheckError escapes
};

struct QueryResult {
  double value = 0.0;
  // Committed state lags admitted edits (a deadline abort or an un-drained
  // queue); the answer is exact for the last committed epoch.
  bool stale = false;
  std::uint64_t epoch = 0;
};

class SolverService {
 public:
  SolverService() = default;
  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  // Registers `name` with a cold solve of `special` (must satisfy the §4
  // special form; anything else is kInvalidArgument, not a throw).
  ServeStatus create_tenant(const std::string& name,
                            const MaxMinInstance& special,
                            const TenantOptions& opt = {});
  ServeStatus drop_tenant(const std::string& name);
  std::vector<std::string> tenant_names() const;

  // Admission + enqueue; never re-solves (see drain).  Empty deltas are
  // trivially kOk.
  ServeStatus submit(const std::string& name, const InstanceDelta& delta);

  // Applies the tenant's queued batches to its committed solver, each under
  // the per-batch deadline budget (when configured).  Stops at the first
  // deadline abandonment with kDeadlineExceeded; kOk means the queue
  // drained fully.
  ServeStatus drain(const std::string& name);

  // Idle-cycle repair: drains every tenant WITHOUT budgets, so batches a
  // deadline kept abandoning eventually commit.  Returns the number of
  // batches committed across all tenants.
  std::int64_t repair_idle();

  // Point queries, answered from the committed epoch in O(1) (x entry, or
  // the solver's maintained omega); they never recompute and never throw.
  // `stale` flags a lagging queue.
  ServeStatus query_x(const std::string& name, AgentId agent,
                      QueryResult* out) const;
  ServeStatus utility(const std::string& name, QueryResult* out) const;

  ServeStatus stats(const std::string& name, TenantStats* out) const;

 private:
  struct Tenant {
    mutable std::mutex mu;
    TenantOptions opt;
    std::unique_ptr<IncrementalSolver> solver;       // committed state
    std::unique_ptr<SpecialFormInstance> projected;  // committed + queued
    std::deque<InstanceDelta> queue;
    TenantStats stats;
  };

  std::shared_ptr<Tenant> find(const std::string& name) const;
  // Drains one tenant (tenant->mu must be held); with_budget selects the
  // per-batch deadline.  Commits are counted into *committed when set.
  ServeStatus drain_locked(Tenant& t, bool with_budget,
                           std::int64_t* committed = nullptr);

  mutable std::shared_mutex map_mu_;
  std::map<std::string, std::shared_ptr<Tenant>> tenants_;
};

}  // namespace locmm
