// edit_stream -- a LocalResolver edit stream on a 100k-agent paired torus
// (special_grid_instance, 4 rows), default LocalParams (R = 4); at that
// size the O(n) finish tail is a visible share of each edit.  Closed
// loop, one caller.  Each edit is drawn by the seeded RNG: three coefficient
// edits for every membership churn (remove a constraint entry and re-add it
// with a fresh coefficient, which moves it to the row's last port).
//
// Oracle, at checkpoints outside the timed region: the resolver's solution
// must be bitwise what engine L computes from scratch on the edited
// instance.  A scratch pipeline must map the resolver's x_special back to
// its x, and for sampled agents -- agents inside the dirty balls of the
// latest edits plus uniformly drawn ones -- engine L's per-agent evaluator
// (solve_agent_on_graph, no warm state) on a fresh CommGraph of the scratch
// special form must reproduce x_special bit for bit.  A whole-instance
// scratch solve is out of reach: once edits break the torus's symmetry
// every agent is its own view class, at ~13 ms per view build.
//
// The traced run rebuilds LocalResolver::resolve's id-map fast path from
// public calls, one span per call, feeds it the same stream, and checks it
// stays bitwise equal to the resolver.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/solver_api.hpp"
#include "core/view_class_cache.hpp"
#include "core/view_solver.hpp"
#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "graph/comm_graph.hpp"
#include "lp/delta.hpp"
#include "support/prng.hpp"
#include "transform/transform.hpp"

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace locmm;

// Each slice has ten edits beyond its p99.
constexpr std::size_t kEditsPerSlice = 1000;

// Draws the next edit against the current instance and records the
// original agents it touches.
class EditGenerator {
 public:
  explicit EditGenerator(std::uint64_t seed) : rng_(seed) {}

  InstanceDelta next(const MaxMinInstance& cur, std::vector<AgentId>& touched) {
    const auto i = static_cast<ConstraintId>(
        rng_.below(static_cast<std::uint64_t>(cur.num_constraints())));
    const auto row = cur.constraint_row(i);
    InstanceDelta d;
    if (rng_.below(4) != 0) {
      const Entry e = row[rng_.below(row.size())];
      d.set_constraint_coeff(i, e.agent, rng_.uniform(0.5, 2.0));
    } else {
      d.remove_from_constraint(i, row[0].agent);
      d.add_to_constraint(i, row[0].agent, rng_.uniform(0.5, 2.0));
    }
    for (const Entry& e : row) touched.push_back(e.agent);
    return d;
  }

 private:
  Rng rng_;
};

// The scratch engine-L oracle (see the file comment).  Returns the number
// of mismatches: one for a map-back mismatch plus one per sampled agent.
std::int64_t scratch_check(const LocalSolution& sol,
                           const MaxMinInstance& inst, std::int32_t R,
                           const std::vector<AgentId>& recent, Rng& rng,
                           std::size_t per_edit, std::size_t uniform) {
  const Pipeline p = to_special_form(inst);
  std::int64_t mismatches = 0;
  if (!bitwise_equal(p.map_back(sol.x_special), sol.x)) {
    std::fprintf(stderr, "edit_stream: map-back of x_special differs\n");
    ++mismatches;
  }
  const CommGraph g(p.special);
  const std::int32_t D = view_radius(R);
  const auto n = static_cast<std::uint64_t>(p.special.num_agents());
  if (sol.x_special.size() != n) return mismatches + 1;

  std::vector<AgentId> sample;
  std::vector<std::int32_t> dist(static_cast<std::size_t>(g.num_nodes()), -1);
  std::vector<NodeId> frontier, ball;
  for (const AgentId v : recent) {
    const std::size_t ov = static_cast<std::size_t>(v);
    for (std::int32_t h = 0; h < p.id_map.agent_count[ov]; ++h) {
      const NodeId root = g.agent_node(p.id_map.agent_first[ov] + h);
      // Agents within the view radius: the ones the edit could change.
      ball.clear();
      frontier.assign(1, root);
      std::vector<NodeId> seen(1, root);
      dist[static_cast<std::size_t>(root)] = 0;
      for (std::int32_t d = 0; d < D && !frontier.empty(); ++d) {
        std::vector<NodeId> next;
        for (const NodeId u : frontier) {
          for (const HalfEdge& e : g.neighbors(u)) {
            if (dist[static_cast<std::size_t>(e.to)] >= 0) continue;
            dist[static_cast<std::size_t>(e.to)] = d + 1;
            seen.push_back(e.to);
            next.push_back(e.to);
          }
        }
        frontier.swap(next);
      }
      for (const NodeId u : seen) {
        if (g.type(u) == NodeType::kAgent) ball.push_back(u);
        dist[static_cast<std::size_t>(u)] = -1;
      }
      sample.push_back(static_cast<AgentId>(root));
      for (std::size_t k = 0; k < per_edit && !ball.empty(); ++k)
        sample.push_back(static_cast<AgentId>(ball[rng.below(ball.size())]));
    }
  }
  for (std::size_t k = 0; k < uniform; ++k)
    sample.push_back(static_cast<AgentId>(rng.below(n)));
  std::sort(sample.begin(), sample.end());
  sample.erase(std::unique(sample.begin(), sample.end()), sample.end());

  // Evaluate on four threads (each call is independent and read-only).
  std::vector<std::uint8_t> bad(sample.size(), 0);
  std::vector<std::thread> workers;
  const std::size_t W = 4;
  for (std::size_t w = 0; w < W; ++w) {
    workers.emplace_back([&, w] {
      for (std::size_t k = w; k < sample.size(); k += W) {
        const double x = solve_agent_on_graph(g, sample[k], R);
        const double y = sol.x_special[static_cast<std::size_t>(sample[k])];
        bad[k] = std::memcmp(&x, &y, sizeof x) != 0 ? 1 : 0;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  for (std::size_t k = 0; k < sample.size(); ++k) {
    if (bad[k] == 0) continue;
    if (mismatches < 4)
      std::fprintf(stderr, "edit_stream: agent %d differs from scratch\n",
                   sample[k]);
    ++mismatches;
  }
  return mismatches;
}

// LocalResolver::resolve's id-map fast path and finish_solution, rebuilt
// from the public calls they make so that each call gets its own span.
class TracedResolver {
 public:
  TracedResolver(const MaxMinInstance& inst, const LocalParams& params,
                 Tracer& tr)
      : params_(params), inst_(inst) {
    {
      Scope s(tr, "setup.pipeline");
      pipeline_ = to_special_form(inst_);
    }
    Scope s(tr, "setup.cold_solve");
    IncrementalSolver::Options o;
    o.R = params_.R;
    o.t_search = params_.t_search;
    o.threads = params_.threads;
    o.cache = &cache_;
    o.engine = DynamicEngine::kMemoizedDp;  // as LocalResolver for engine C
    inc_ = std::make_unique<IncrementalSolver>(pipeline_.special, o);
    finish(tr);
  }

  const LocalSolution& solution() const { return sol_; }

  // Returns an empty string on success, the reason otherwise.
  std::string resolve(const InstanceDelta& delta, Tracer& tr,
                      std::int64_t request) {
    Scope op(tr, "op.edit", request);
    {
      Scope s(tr, "lp.admit");
      if (!delta.check_applicable(inst_).empty()) return "delta rejected";
    }
    std::optional<MappedDelta> mapped;
    {
      Scope s(tr, "transform.map_delta");
      mapped = pipeline_.id_map.map_delta(delta, inst_);
    }
    if (!mapped.has_value()) return "edit left the id-map fast path";
    {
      Scope s(tr, "dynamic.apply");
      inc_->apply(mapped->special);
      const IncrementalSolver::UpdateStats& u = inc_->last_update();
      tr.add_child(s.index(), "dynamic.patch", u.apply_us);
      tr.add_child(s.index(), "dynamic.flood", u.flood_us);
      tr.add_child(s.index(), "dynamic.refine", u.refine_us);
      tr.add_child(s.index(), "dynamic.eval", u.eval_us);
      tr.add_child(s.index(), "dynamic.broadcast", u.broadcast_us);
    }
    {
      Scope s(tr, "lp.instance_apply");
      inst_.apply(delta);
      pipeline_.special.apply(mapped->special);
    }
    {
      Scope s(tr, "transform.map_delta");
      pipeline_.id_map.apply_gamma_updates(*mapped);
    }
    finish(tr);
    return {};
  }

  const IncrementalSolver::UpdateStats& last_update() const {
    return inc_->last_update();
  }

 private:
  void finish(Tracer& tr) {
    {
      Scope s(tr, "lp.finish");
      sol_.x_special = inc_->x();
      sol_.ratio_factor = pipeline_.ratio_factor;
      sol_.special_stats = pipeline_.special.stats();
      sol_.view_radius = view_radius(params_.R);
      sol_.omega_special = pipeline_.special.utility(sol_.x_special);
    }
    {
      Scope s(tr, "transform.map_back");
      sol_.x = pipeline_.map_back(sol_.x_special);
    }
    Scope s(tr, "lp.finish");
    sol_.omega = inst_.utility(sol_.x);
    const InstanceStats orig = inst_.stats();
    sol_.guarantee = theorem1_guarantee(std::max(orig.delta_i, 2),
                                        std::max(orig.delta_k, 2), params_.R);
  }

  LocalParams params_;
  MaxMinInstance inst_;
  Pipeline pipeline_;
  ViewClassCache cache_;
  std::unique_ptr<IncrementalSolver> inc_;
  LocalSolution sol_;
};

}  // namespace

Outcome run_edit_stream(const Options& opt) {
  Outcome out;
  const MaxMinInstance base = special_grid_instance(
      {.rows = 4, .cols = opt.tiny ? 250 : 25000}, opt.seed);
  const LocalParams params;  // R = 4, engine C (carried on engine L)
  const std::size_t warmup = opt.tiny ? 20 : 1000;
  EditGenerator gen(opt.seed * 0x9e3779b97f4a7c15ULL + 17);
  Rng oracle_rng(opt.seed + 1);
  std::vector<AgentId> recent;

  // Set-up: LocalResolver construction, three times; the median counts.
  std::vector<double> setups;
  std::optional<LocalResolver> res;
  for (int rep = 0; rep < (opt.trace ? 1 : 3); ++rep) {
    res.reset();
    const std::int64_t t0 = now_ns();
    res.emplace(base, params);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  Tracer tr(opt.trace);
  Tracer quiet(false);
  std::optional<TracedResolver> rebuilt;
  if (opt.trace) rebuilt.emplace(base, params, tr);

  // Layer counters of the traced window, summed over its edits.
  double dirty = 0, evals = 0, hits = 0, t_re = 0, t_use = 0;
  const auto on_traced_edit = [&] {
    const IncrementalSolver::UpdateStats& u = rebuilt->last_update();
    dirty += static_cast<double>(u.agents_dirty);
    evals += static_cast<double>(u.evals);
    hits += static_cast<double>(u.class_cache_hits);
    t_re += static_cast<double>(u.cone_t_recomputed);
    t_use += static_cast<double>(u.warm_t_reused);
  };

  // Applies one edit: `timed` says which side is measured (the resolver
  // untraced, or the rebuild traced); the other side is fed untimed.
  std::int64_t request = 0;
  const auto step = [&](bool timed_rebuild) {
    std::vector<AgentId> touched;
    const InstanceDelta d = gen.next(res->instance(), touched);
    recent.insert(recent.end(), touched.begin(), touched.end());
    if (recent.size() > 64) recent.erase(recent.begin(), recent.end() - 64);
    ++request;
    std::int64_t dt = 0;
    std::string why;
    if (timed_rebuild) {
      const std::int64_t t0 = now_ns();
      why = rebuilt->resolve(d, tr, request);
      dt = now_ns() - t0;
      res->resolve(d);
    } else {
      const std::int64_t t0 = now_ns();
      res->resolve(d);
      dt = now_ns() - t0;
      if (rebuilt) why = rebuilt->resolve(d, quiet, request);
    }
    ++out.attempted;
    if (!why.empty()) out.fail("edit_stream: " + why);
    return dt;
  };
  // Edits until `seconds` of edit time; records each latency.
  const auto window = [&](double seconds, bool timed_rebuild,
                          std::vector<double>& lat) {
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t busy = 0;
    while (busy < budget) {
      const std::int64_t dt = step(timed_rebuild);
      busy += dt;
      lat.push_back(static_cast<double>(dt));
      if (timed_rebuild) on_traced_edit();
    }
  };
  const auto checkpoint = [&](const char* where) {
    const std::int64_t bad =
        scratch_check(res->solution(), res->instance(), params.R, recent,
                      oracle_rng, opt.tiny ? 4 : 8, opt.tiny ? 32 : 256);
    if (bad != 0)
      out.fail(std::string("edit_stream: scratch oracle mismatch ") + where);
    if (rebuilt && !bitwise_equal(rebuilt->solution().x, res->solution().x))
      out.fail(std::string("edit_stream: traced rebuild diverged ") + where);
  };

  // Warm-up (caches, arenas, the t-store), then the first checkpoint.
  for (std::size_t k = 0; k < warmup; ++k) step(false);
  checkpoint("after warm-up");

  if (!opt.trace) {
    std::vector<double> lat;
    window(opt.seconds, false, lat);
    const double rss = peak_rss_mb(false);
    checkpoint("after the timed window");
    out.add("setup_s", median(setups), "s");
    out.add("latency_ms_p50",
            slice_quantile(lat, kEditsPerSlice, 0.5) * 1e-6, "ms");
    out.add("latency_ms_tail",
            slice_quantile(lat, kEditsPerSlice, 0.99) * 1e-6, "ms");
    out.add("throughput_per_s", slice_throughput(lat, kEditsPerSlice),
            "1/s");
    out.add("peak_rss_mb", rss, "MB");
    return out;
  }

  std::vector<double> untraced, traced;
  window(opt.seconds / 2, false, untraced);
  checkpoint("after the untraced window");
  window(opt.seconds / 2, true, traced);
  checkpoint("after the traced window");
  if (!opt.trace_path.empty() && !dump_spans({&tr}, opt.trace_path))
    out.fail("cannot write " + opt.trace_path);

  const TraceSummary sum = summarize({&tr}, "op.edit");
  const double n = static_cast<double>(traced.size());
  const auto per_edit_us = [&](const char* name, bool inclusive = false) {
    const auto& m = inclusive ? sum.total_ns : sum.self_ns;
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second / n * 1e-3;
  };
  const double ref = median(untraced);
  out.add("trace.coverage", median(sum.covered_ns) / ref, "ratio");
  out.add("trace.overhead", median(sum.root_ns) / ref - 1.0, "ratio");
  out.add("lp.admit_us", per_edit_us("lp.admit"), "us");
  out.add("transform.map_delta_us", per_edit_us("transform.map_delta"), "us");
  out.add("dynamic.apply_us", per_edit_us("dynamic.apply", true), "us");
  out.add("lp.instance_apply_us", per_edit_us("lp.instance_apply"), "us");
  out.add("transform.map_back_us", per_edit_us("transform.map_back"), "us");
  out.add("lp.finish_us", per_edit_us("lp.finish"), "us");
  out.add("dynamic.patch_us", per_edit_us("dynamic.patch"), "us");
  out.add("dynamic.flood_us", per_edit_us("dynamic.flood"), "us");
  out.add("dynamic.refine_us", per_edit_us("dynamic.refine"), "us");
  out.add("dynamic.eval_us", per_edit_us("dynamic.eval"), "us");
  out.add("dynamic.broadcast_us", per_edit_us("dynamic.broadcast"), "us");
  out.add("dynamic.agents_dirty", dirty / n, "count");
  out.add("dynamic.evals", evals / n, "count");
  out.add("dynamic.cache_hits", hits / n, "count");
  out.add("dynamic.t_recomputed", t_re / n, "count");
  out.add("dynamic.t_reused", t_use / n, "count");
  const auto setup_ms = [&](const char* name) {
    const TraceSummary s = summarize({&tr}, name);
    return s.root_ns.empty() ? 0.0 : s.root_ns.front() * 1e-6;
  };
  out.add("setup.pipeline_ms", setup_ms("setup.pipeline"), "ms");
  out.add("setup.cold_solve_ms", setup_ms("setup.cold_solve"), "ms");
  return out;
}

}  // namespace perfbench
