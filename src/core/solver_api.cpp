#include "core/solver_api.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/local_solver.hpp"
#include "core/view_solver.hpp"
#include "dist/fault.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "dynamic/incremental_solver.hpp"
#include "transform/transform.hpp"

namespace locmm {

double special_form_guarantee(std::int32_t delta_k, std::int32_t R) {
  LOCMM_CHECK(delta_k >= 2 && R >= 2);
  return 2.0 * (1.0 - 1.0 / static_cast<double>(delta_k)) *
         (1.0 + 1.0 / static_cast<double>(R - 1));
}

double theorem1_guarantee(std::int32_t delta_i, std::int32_t delta_k,
                          std::int32_t R) {
  LOCMM_CHECK(delta_i >= 2 && delta_k >= 2 && R >= 2);
  return static_cast<double>(delta_i) *
         (1.0 - 1.0 / static_cast<double>(delta_k)) *
         (1.0 + 1.0 / static_cast<double>(R - 1));
}

namespace {

// The pipeline-independent tail of solve_local: map back, measure, attach
// the a-priori guarantee.  Shared with LocalResolver's solution refresh.
void finish_solution(const MaxMinInstance& inst, const Pipeline& pipeline,
                     std::int32_t R, LocalSolution& sol) {
  sol.ratio_factor = pipeline.ratio_factor;
  sol.special_stats = pipeline.special.stats();
  sol.view_radius = view_radius(R);
  sol.omega_special = pipeline.special.utility(sol.x_special);
  sol.x = pipeline.map_back(sol.x_special);
  sol.omega = inst.utility(sol.x);
  const InstanceStats orig = inst.stats();
  sol.guarantee = theorem1_guarantee(std::max(orig.delta_i, 2),
                                     std::max(orig.delta_k, 2), R);
}

// min_v t_v through engine C's phase 1, for the engines that do not produce
// it as a by-product (L / M / S compute t inside per-view evaluations).
double t_min_via_cone(const SpecialFormInstance& sf, const LocalParams& params) {
  const std::vector<double> t =
      compute_t_all(sf, params.R - 2, params.t_search, params.threads);
  return t.empty() ? 0.0 : *std::min_element(t.begin(), t.end());
}

// Lifts per-special-agent degradation flags through the §4 back-maps to the
// original agents.  Every back-map stage is a coordinate selection (prefix
// truncation), a positive scaling (x/gamma, 2x/divisor), or a max() over
// split copies / halves -- so a sentinel pushed far ABOVE any feasible value
// propagates to exactly the original coordinates that read at least one
// degraded special agent.  (A downward perturbation would be unsound: the
// max() over copies can mask it behind a clean sibling, and masking is
// precisely wrong here -- the clean sibling's argmax status itself hinges on
// the degraded copy's unknown true value.)  Flags are detected bitwise
// against the unperturbed map-back, which the sentinel's ~1e30 magnitude
// makes unambiguous.
std::vector<std::uint8_t> degraded_to_original(
    const Pipeline& pipeline, const std::vector<double>& x_special,
    const std::vector<std::uint8_t>& degraded_special,
    const std::vector<double>& x_original) {
  std::vector<std::uint8_t> out(x_original.size(), 0);
  bool any = false;
  for (const std::uint8_t f : degraded_special) any = any || (f != 0);
  if (!any) return out;

  LOCMM_CHECK(degraded_special.size() == x_special.size());
  std::vector<double> probe = x_special;
  for (std::size_t i = 0; i < probe.size(); ++i) {
    if (degraded_special[i] != 0)
      probe[i] = 1e30 * (1.0 + static_cast<double>(i % 13));
  }
  const std::vector<double> moved = pipeline.map_back(probe);
  LOCMM_CHECK(moved.size() == x_original.size());
  for (std::size_t v = 0; v < moved.size(); ++v) {
    out[v] = std::memcmp(&moved[v], &x_original[v], sizeof(double)) != 0 ? 1
                                                                         : 0;
  }
  return out;
}

}  // namespace

LocalSolution solve_local(const MaxMinInstance& inst,
                          const LocalParams& params) {
  LOCMM_CHECK_MSG(params.R >= 2, "R must be >= 2");
  LOCMM_CHECK_MSG(params.faults == nullptr ||
                      params.engine == LocalEngine::kMessagePassing ||
                      params.engine == LocalEngine::kStreaming,
                  "fault injection needs a distributed engine (M / S)");

  const Pipeline pipeline = to_special_form(inst);
  const SpecialFormInstance sf(pipeline.special);

  LocalSolution sol;
  switch (params.engine) {
    case LocalEngine::kCentralized: {
      SpecialRunResult run = solve_special_centralized(
          sf, params.R, params.t_search, params.threads);
      sol.t_min_special =
          run.t.empty() ? 0.0 : *std::min_element(run.t.begin(), run.t.end());
      sol.x_special = std::move(run.x);
      break;
    }
    case LocalEngine::kLocalViews: {
      sol.x_special = solve_special_local_views(
          pipeline.special, params.R, params.t_search, params.threads);
      // t is internal to the per-view evaluation; recompute the global
      // bound cheaply through engine C's phase 1 for the diagnostics.
      sol.t_min_special = t_min_via_cone(sf, params);
      break;
    }
    case LocalEngine::kMessagePassing:
    case LocalEngine::kStreaming: {
      const auto solve = params.engine == LocalEngine::kMessagePassing
                             ? solve_special_message_passing
                             : solve_special_streaming;
      MessageRunResult run =
          solve(pipeline.special, params.R, params.t_search, params.threads,
                params.faults, DistOptions{});
      sol.x_special = std::move(run.x);
      sol.net_stats = run.stats;
      sol.degraded_special = std::move(run.degraded);
      sol.t_min_special = t_min_via_cone(sf, params);
      break;
    }
  }

  finish_solution(inst, pipeline, params.R, sol);
  if (!sol.degraded_special.empty()) {
    sol.degraded = degraded_to_original(pipeline, sol.x_special,
                                        sol.degraded_special, sol.x);
  }
  return sol;
}

// ---------------------------------------------------------------------------
// LocalResolver
// ---------------------------------------------------------------------------

LocalResolver::LocalResolver(const MaxMinInstance& inst,
                             const LocalParams& params)
    : params_(params), inst_(inst) {
  LOCMM_CHECK_MSG(params_.R >= 2, "R must be >= 2");
  LOCMM_CHECK_MSG(params_.faults == nullptr ||
                      params_.engine == LocalEngine::kMessagePassing ||
                      params_.engine == LocalEngine::kStreaming,
                  "fault injection needs a distributed engine (M / S)");
  pipeline_ = to_special_form(inst_);
  solve_from_pipeline();
}

LocalResolver::~LocalResolver() = default;
LocalResolver::LocalResolver(LocalResolver&&) noexcept = default;
LocalResolver& LocalResolver::operator=(LocalResolver&&) noexcept = default;

const IncrementalSolver& LocalResolver::solver() const { return *inc_; }

void LocalResolver::solve_from_pipeline() {
  IncrementalSolver::Options opt;
  opt.R = params_.R;
  opt.t_search = params_.t_search;
  opt.threads = params_.threads;
  // Engines C and L agree bitwise, so both ride engine C's kept tables.
  switch (params_.engine) {
    case LocalEngine::kCentralized:
    case LocalEngine::kLocalViews:
      opt.engine = DynamicEngine::kMemoizedDp;
      break;
    case LocalEngine::kMessagePassing:
      opt.engine = DynamicEngine::kMessagePassing;
      break;
    case LocalEngine::kStreaming:
      opt.engine = DynamicEngine::kStreaming;
      break;
  }
  // The scenario applies to the distributed COLD solve only; subsequent
  // replays run over the repaired (bitwise fault-free) history.  When the
  // cold run cannot fully recover, the IncrementalSolver degrades itself to
  // the engine-C tables and we surface that here.
  opt.cold_faults = params_.faults;
  inc_ = std::make_unique<IncrementalSolver>(pipeline_.special, opt);
  sol_.net_stats = inc_->cold_net_stats();
  sol_.degraded_to_local = inc_->degraded_to_local();
  refresh_solution();
}

void LocalResolver::refresh_solution() {
  sol_.x_special = inc_->x();
  sol_.x = pipeline_.map_back(sol_.x_special);
  orig_sums_ = MinTree(inst_.objective_values(sol_.x));
  orig_stats_ = StatsTracker(inst_);
  special_stats_ = StatsTracker(pipeline_.special);
  last_mapped_back_ = static_cast<std::int64_t>(sol_.x.size());
  finish_summary();
}

void LocalResolver::patch_solution(const MappedDelta& mapped,
                                   const InstanceDelta& delta) {
  // The special entries the solver rewrote, and their original owners plus
  // the agents whose gamma the batch changed: every original x entry that
  // can have moved.
  const std::vector<double>& xs = inc_->x();
  originals_.clear();
  for (const AgentId h : inc_->last_rewritten()) {
    sol_.x_special[static_cast<std::size_t>(h)] =
        xs[static_cast<std::size_t>(h)];
    if (const AgentId v = pipeline_.id_map.owner_of(h); v >= 0)
      originals_.push_back(v);
  }
  for (const auto& [w, gamma] : mapped.gamma_updates) {
    if (const AgentId v = pipeline_.id_map.owner_of(w); v >= 0)
      originals_.push_back(v);
  }
  std::sort(originals_.begin(), originals_.end());
  originals_.erase(std::unique(originals_.begin(), originals_.end()),
                   originals_.end());
  for (const AgentId v : originals_) {
    sol_.x[static_cast<std::size_t>(v)] =
        pipeline_.id_map.map_back_agent(v, sol_.x_special);
  }
  last_mapped_back_ = static_cast<std::int64_t>(originals_.size());

  // The original objective rows those agents sit in, plus the rows the
  // batch edits.
  rows_.clear();
  for (const AgentId v : originals_) {
    for (const Incidence& inc : inst_.agent_objectives(v))
      rows_.push_back(inc.row);
  }
  delta.for_each_touched_edge([&](RowKind kind, std::int32_t row, AgentId) {
    if (kind == RowKind::kObjective) rows_.push_back(row);
  });
  std::sort(rows_.begin(), rows_.end());
  rows_.erase(std::unique(rows_.begin(), rows_.end()), rows_.end());
  for (const ObjectiveId k : rows_) {
    orig_sums_.set(static_cast<std::size_t>(k),
                   inst_.objective_value(k, sol_.x));
  }
  finish_summary();
}

void LocalResolver::finish_summary() {
  sol_.ratio_factor = pipeline_.ratio_factor;
  sol_.special_stats = special_stats_.stats();
  sol_.view_radius = view_radius(params_.R);
  sol_.omega_special = inc_->omega();
  sol_.omega = orig_sums_.min();
  sol_.t_min_special = inc_->t_min();
  const InstanceStats orig = orig_stats_.stats();
  sol_.guarantee = theorem1_guarantee(std::max(orig.delta_i, 2),
                                      std::max(orig.delta_k, 2), params_.R);
}

const LocalSolution& LocalResolver::resolve(const InstanceDelta& delta) {
  if (delta.empty()) return sol_;

  // Admission first: a rejected delta throws before anything at all -- not
  // even an instance copy -- happens.
  const std::vector<std::string> violations = delta.check_applicable(inst_);
  LOCMM_CHECK_MSG(violations.empty(),
                  "delta rejected: " << violations.front()
                                     << (violations.size() > 1
                                             ? " (+" +
                                                   std::to_string(
                                                       violations.size() - 1) +
                                                   " more)"
                                             : ""));

  // Id-map fast path: translate the batch straight into special-form
  // coordinates through the pipeline's persistent id map -- no pipeline
  // re-run, no instance snapshot, no diff; O(ball) end to end.  Ordering
  // carries the strong guarantee without any rollback state: map_delta is
  // const and reads only pre-edit state, inc_->apply is transactional (a
  // throw leaves the solver bitwise untouched and propagates with the
  // resolver equally untouched), and everything after it is infallible --
  // inst_.apply was admitted above, pipeline_.special is bitwise equal to
  // the solver's instance so the same mapped delta applies, and the stats,
  // gamma fold and solution patch are pure writes.
  if (const std::optional<MappedDelta> mapped =
          pipeline_.id_map.map_delta(delta, inst_);
      mapped.has_value()) {
    inc_->apply(mapped->special);
    orig_stats_.forget(inst_, delta);
    special_stats_.forget(pipeline_.special, mapped->special);
    inst_.apply(delta);
    pipeline_.special.apply(mapped->special);
    orig_stats_.count(inst_, delta);
    special_stats_.count(pipeline_.special, mapped->special);
    pipeline_.id_map.apply_gamma_updates(*mapped);
    last_was_delta_ = true;
    sol_.net_stats = inc_->last_update().net;
    patch_solution(*mapped, delta);
    return sol_;
  }

  // Strong guarantee for deeper failures too: snapshot the members a failed
  // re-solve would otherwise leave half-updated (O(nnz), only on the slow
  // tiers: the happy path moves them back out of scope).  inc_ needs no
  // snapshot: its own apply() is transactional, and the re-initialisation
  // path only replaces it after the new solver constructed successfully.
  MaxMinInstance prev_inst = inst_;
  Pipeline prev_pipeline = pipeline_;
  const bool prev_last_was_delta = last_was_delta_;
  try {
    inst_.apply(delta);  // cannot fail: admitted above

    // Re-run the §4 pipeline on the edited original.  The transforms are
    // deterministic whole-instance passes whose *structure* depends only on
    // the sparsity pattern, so a coefficient-only delta yields a special
    // form that diffs against the previous one as a small coefficient delta
    // (structural edits renumber the output and make the diff fail over to
    // a re-initialisation).  The pipeline itself is O(n) with small
    // constants -- the dirty-ball solve it feeds is what was worth saving.
    Pipeline next = to_special_form(inst_);
    const std::optional<InstanceDelta> special_delta =
        diff_instances(pipeline_.special, next.special);
    pipeline_ = std::move(next);  // the id map now describes the edit

    if (special_delta.has_value()) {
      last_was_delta_ = true;
      inc_->apply(*special_delta);
      // The dynamic path's scheduler accounting: fresh messages scale with
      // the dirty ball, replayed ones with what it consumed from the cache
      // (both zero for the engine-C resolver, which never touches the
      // wire).
      sol_.net_stats = inc_->last_update().net;
      refresh_solution();
    } else {
      last_was_delta_ = false;
      solve_from_pipeline();
    }
  } catch (...) {
    // Roll the resolver back to the pre-call state.  inc_ already rolled
    // itself back (transactional apply), or was never replaced (a throwing
    // re-initialisation leaves the old solver in place), so restoring the
    // instance and pipeline re-establishes the full invariant.  sol_ is
    // written only after the solve committed, so it was never touched.
    inst_ = std::move(prev_inst);
    pipeline_ = std::move(prev_pipeline);
    last_was_delta_ = prev_last_was_delta;
    throw;
  }
  return sol_;
}

}  // namespace locmm
