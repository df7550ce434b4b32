#include "serve/solver_service.hpp"

#include <algorithm>
#include <unordered_set>

namespace locmm {

namespace {

std::string join_violations(const std::vector<std::string>& v) {
  std::string msg = v.front();
  if (v.size() > 1) {
    msg += " (+" + std::to_string(v.size() - 1) + " more)";
  }
  return msg;
}

std::uint64_t row_key(RowKind k, std::int32_t row) {
  return (static_cast<std::uint64_t>(k == RowKind::kObjective) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(row));
}

std::uint64_t edge_key(RowKind k, std::int32_t row, AgentId agent) {
  return (static_cast<std::uint64_t>(k == RowKind::kObjective) << 63) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(agent));
}

// Conservative proxy for "the dirty balls overlap": the two batches share a
// touched row or a touched agent (shared seeds => shared balls; disjoint
// seeds CAN still give overlapping balls, which only costs a second
// re-solve, never correctness).
bool footprints_overlap(const InstanceDelta& a, const InstanceDelta& b) {
  std::unordered_set<std::uint64_t> rows;
  std::unordered_set<std::int64_t> agents;
  a.for_each_touched_edge([&](RowKind k, std::int32_t row, AgentId agent) {
    rows.insert(row_key(k, row));
    agents.insert(agent);
  });
  bool hit = false;
  b.for_each_touched_edge([&](RowKind k, std::int32_t row, AgentId agent) {
    if (rows.count(row_key(k, row)) != 0 || agents.count(agent) != 0) {
      hit = true;
    }
  });
  return hit;
}

// Merges the coefficient-only batch `add` into the coefficient-only batch
// `into`: the last write per (kind, row, agent) wins, which is exactly what
// applying the two batches in order would compute -- one re-solve instead
// of two.  Edits apply in vector order, and one batch may hit the same
// entry twice, so the overwrite must target the LAST occurrence in `into`
// (an earlier one would be shadowed by into's own later duplicate).
void coalesce_coeff_batch(InstanceDelta& into, const InstanceDelta& add) {
  for (const CoeffEdit& e : add.coeff_edits) {
    const auto rit =
        std::find_if(into.coeff_edits.rbegin(), into.coeff_edits.rend(),
                     [&](const CoeffEdit& q) {
                       return q.kind == e.kind && q.row == e.row &&
                              q.agent == e.agent;
                     });
    if (rit != into.coeff_edits.rend()) {
      rit->coeff = e.coeff;
    } else {
      into.coeff_edits.push_back(e);
    }
  }
}

// Whether `add` may merge into the queue tail `tail`.  Coefficient-only
// pairs always can (the legacy path).  A STRUCTURAL merge concatenates the
// remove and add lists, which reorders add's removes ahead of tail's adds
// and coefficient edits; that is a no-op exactly when nothing `add` removes
// was added or coefficient-edited by `tail`.  Then, because removes are
// ordered erases and adds append at the row end, the merged batch applied
// to the pre-tail state touches the same entries and leaves every row in
// the same final entry order as applying the two batches in sequence --
// one re-solve, bitwise the same committed state.  (The converse overlaps
// are impossible past admission: `add` cannot re-add what `tail` added or
// remove what `tail` removed, since it was validated against the projected
// instance with `tail` already applied.)  Structural merges also respect
// max_batch_edits, so a coalesced batch never exceeds what submit() would
// admit outright.
bool coalescible(const InstanceDelta& tail, const InstanceDelta& add,
                 std::int64_t max_batch_edits) {
  if (!tail.structural() && !add.structural()) return true;
  if (static_cast<std::int64_t>(tail.size() + add.size()) > max_batch_edits) {
    return false;
  }
  std::unordered_set<std::uint64_t> pinned;
  for (const MembershipEdit& e : tail.adds) {
    pinned.insert(edge_key(e.kind, e.row, e.agent));
  }
  for (const CoeffEdit& e : tail.coeff_edits) {
    pinned.insert(edge_key(e.kind, e.row, e.agent));
  }
  for (const MembershipEdit& e : add.removes) {
    if (pinned.count(edge_key(e.kind, e.row, e.agent)) != 0) return false;
  }
  return true;
}

// Merges `add` into `into` (coalescible() must hold): removes and adds
// concatenate in admission order, coefficient edits last-write-wins.
void coalesce_batch(InstanceDelta& into, const InstanceDelta& add) {
  into.removes.insert(into.removes.end(), add.removes.begin(),
                      add.removes.end());
  into.adds.insert(into.adds.end(), add.adds.begin(), add.adds.end());
  coalesce_coeff_batch(into, add);
}

}  // namespace

std::shared_ptr<SolverService::Tenant> SolverService::find(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : it->second;
}

ServeStatus SolverService::create_tenant(const std::string& name,
                                         const MaxMinInstance& special,
                                         const TenantOptions& opt) {
  if (name.empty()) {
    return ServeStatus::Error(ServeCode::kInvalidArgument,
                              "empty tenant name");
  }
  if (find(name) != nullptr) {
    return ServeStatus::Error(ServeCode::kTenantExists,
                              "tenant '" + name + "' already exists");
  }
  auto t = std::make_shared<Tenant>();
  t->opt = opt;
  // The cold solve runs outside every lock (it can be the expensive part of
  // the call); a non-special-form instance is the caller's problem, so the
  // construction-time CheckError comes back as a status, not a throw.
  try {
    IncrementalSolver::Options sopt;
    sopt.R = opt.R;
    sopt.t_search = opt.t_search;
    sopt.threads = opt.threads;
    sopt.engine = DynamicEngine::kMemoizedDp;
    t->solver = std::make_unique<IncrementalSolver>(special, sopt);
    t->projected = std::make_unique<SpecialFormInstance>(special);
  } catch (const CheckError& e) {
    return ServeStatus::Error(ServeCode::kInvalidArgument,
                              std::string("instance rejected: ") + e.what());
  }
  std::unique_lock<std::shared_mutex> lock(map_mu_);
  const auto [it, inserted] = tenants_.emplace(name, std::move(t));
  if (!inserted) {
    return ServeStatus::Error(ServeCode::kTenantExists,
                              "tenant '" + name + "' already exists");
  }
  return ServeStatus::Ok();
}

ServeStatus SolverService::drop_tenant(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(map_mu_);
  // In-flight calls holding the shared_ptr finish safely; the map simply
  // stops handing the tenant out.
  if (tenants_.erase(name) == 0) {
    return ServeStatus::Error(ServeCode::kUnknownTenant,
                              "no tenant '" + name + "'");
  }
  return ServeStatus::Ok();
}

std::vector<std::string> SolverService::tenant_names() const {
  std::shared_lock<std::shared_mutex> lock(map_mu_);
  std::vector<std::string> names;
  names.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) names.push_back(name);
  return names;
}

ServeStatus SolverService::submit(const std::string& name,
                                  const InstanceDelta& delta) {
  const std::shared_ptr<Tenant> t = find(name);
  if (t == nullptr) {
    return ServeStatus::Error(ServeCode::kUnknownTenant,
                              "no tenant '" + name + "'");
  }
  if (delta.empty()) return ServeStatus::Ok();
  std::lock_guard<std::mutex> lock(t->mu);
  TenantStats& st = t->stats;

  if (static_cast<std::int64_t>(delta.size()) >
      t->opt.limits.max_batch_edits) {
    ++st.rejected_oversized;
    return ServeStatus::Error(
        ServeCode::kOversizedBatch,
        "batch of " + std::to_string(delta.size()) +
            " edits exceeds the limit of " +
            std::to_string(t->opt.limits.max_batch_edits));
  }

  // Exact admission against the PROJECTED instance (committed + queued):
  // whatever is admitted here is guaranteed applicable once its turn in the
  // queue comes, so drain-time rejections cannot happen.
  const std::vector<std::string> violations =
      t->projected->check_applicable(delta);
  if (!violations.empty()) {
    ++st.rejected_malformed;
    return ServeStatus::Error(ServeCode::kMalformedDelta,
                              join_violations(violations));
  }

  // Coalesce: a batch whose footprint overlaps the queue tail merges into
  // it when the merge is order-equivalent (coalescible; always true for
  // coefficient-only pairs, conditional for structural ones).  The tail has
  // not started applying -- drain holds the same mutex -- so the merged
  // batch commits exactly what the two would in admission order, with one
  // re-solve instead of two.
  if (!t->queue.empty() && footprints_overlap(t->queue.back(), delta) &&
      coalescible(t->queue.back(), delta, t->opt.limits.max_batch_edits)) {
    coalesce_batch(t->queue.back(), delta);
    t->projected->apply(delta);  // cannot fail: admitted above
    ++st.coalesced;
    ++st.accepted;
    return ServeStatus::Ok();
  }

  if (static_cast<std::int64_t>(t->queue.size()) >=
      t->opt.limits.max_queued_batches) {
    ++st.shed_queue_full;
    return ServeStatus::Error(
        ServeCode::kQueueFull,
        "queue at capacity (" +
            std::to_string(t->opt.limits.max_queued_batches) +
            " batches); batch shed");
  }

  t->projected->apply(delta);  // cannot fail: admitted above
  t->queue.push_back(delta);
  ++st.accepted;
  return ServeStatus::Ok();
}

ServeStatus SolverService::drain_locked(Tenant& t, bool with_budget,
                                        std::int64_t* committed) {
  while (!t.queue.empty()) {
    const bool budget =
        with_budget && t.opt.limits.apply_budget_us > 0.0;
    try {
      if (budget) {
        const Deadline deadline =
            Deadline::after_us(t.opt.limits.apply_budget_us);
        t.solver->apply(t.queue.front(), &deadline);
      } else {
        t.solver->apply(t.queue.front());
      }
    } catch (const DeadlineExceeded& e) {
      // Transactional abandonment: the solver rolled back bitwise, the
      // batch stays queued for repair_idle, queries keep serving the last
      // committed epoch (flagged stale).
      ++t.stats.deadline_aborts;
      return ServeStatus::Error(ServeCode::kDeadlineExceeded, e.what());
    } catch (const CheckError& e) {
      // Admission induction says this cannot happen; if it does anyway it
      // is a bug -- contain it: count, drop the queue, resynchronize the
      // projection from the (rolled back, still consistent) committed
      // state, and report instead of throwing across the boundary.
      ++t.stats.internal_errors;
      t.queue.clear();
      t.projected =
          std::make_unique<SpecialFormInstance>(t.solver->special().instance());
      return ServeStatus::Error(ServeCode::kInternal, e.what());
    }
    t.queue.pop_front();
    ++t.stats.committed_epoch;
    if (committed != nullptr) ++*committed;
  }
  return ServeStatus::Ok();
}

ServeStatus SolverService::drain(const std::string& name) {
  const std::shared_ptr<Tenant> t = find(name);
  if (t == nullptr) {
    return ServeStatus::Error(ServeCode::kUnknownTenant,
                              "no tenant '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(t->mu);
  return drain_locked(*t, /*with_budget=*/true);
}

std::int64_t SolverService::repair_idle() {
  std::vector<std::shared_ptr<Tenant>> all;
  {
    std::shared_lock<std::shared_mutex> lock(map_mu_);
    all.reserve(tenants_.size());
    for (const auto& [name, t] : tenants_) all.push_back(t);
  }
  std::int64_t committed = 0;
  for (const std::shared_ptr<Tenant>& t : all) {
    std::lock_guard<std::mutex> lock(t->mu);
    drain_locked(*t, /*with_budget=*/false, &committed);
  }
  return committed;
}

ServeStatus SolverService::query_x(const std::string& name, AgentId agent,
                                   QueryResult* out) const {
  const std::shared_ptr<Tenant> t = find(name);
  if (t == nullptr) {
    return ServeStatus::Error(ServeCode::kUnknownTenant,
                              "no tenant '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(t->mu);
  if (agent < 0 ||
      static_cast<std::size_t>(agent) >= t->solver->x().size()) {
    return ServeStatus::Error(ServeCode::kInvalidArgument,
                              "agent " + std::to_string(agent) +
                                  " out of range");
  }
  out->value = t->solver->x()[static_cast<std::size_t>(agent)];
  out->stale = !t->queue.empty();
  out->epoch = t->stats.committed_epoch;
  return ServeStatus::Ok();
}

ServeStatus SolverService::utility(const std::string& name,
                                   QueryResult* out) const {
  const std::shared_ptr<Tenant> t = find(name);
  if (t == nullptr) {
    return ServeStatus::Error(ServeCode::kUnknownTenant,
                              "no tenant '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(t->mu);
  out->value = t->solver->omega();  // O(1): the solver's min-tree
  out->stale = !t->queue.empty();
  out->epoch = t->stats.committed_epoch;
  return ServeStatus::Ok();
}

ServeStatus SolverService::stats(const std::string& name,
                                 TenantStats* out) const {
  const std::shared_ptr<Tenant> t = find(name);
  if (t == nullptr) {
    return ServeStatus::Error(ServeCode::kUnknownTenant,
                              "no tenant '" + name + "'");
  }
  std::lock_guard<std::mutex> lock(t->mu);
  *out = t->stats;
  out->queued_batches = static_cast<std::int64_t>(t->queue.size());
  out->queued_edits = 0;
  for (const InstanceDelta& d : t->queue) {
    out->queued_edits += static_cast<std::int64_t>(d.size());
  }
  return ServeStatus::Ok();
}

}  // namespace locmm
