// cold_general -- repeated cold solve_local calls, engine C, R = 4, two
// pool threads, on a seeded corpus of 27 random_general instances (three
// per (delta_I, delta_K) in {2,3,4}^2, 400 agents each).  Closed loop, one
// caller; the corpus is solved round-robin a whole number of times.
//
// Oracles, all outside the timed region: every timed solve's x must be
// feasible, reach omega*/omega(x) <= the Theorem 1 guarantee against the
// certified simplex optimum, and be bitwise equal to a one-thread solve.
//
// The traced run rebuilds solve_local's engine-C path from the public
// calls it makes, one span per call, and checks that the rebuilt x is
// bitwise the library's.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/g_recursion.hpp"
#include "core/smoothing.hpp"
#include "core/solver_api.hpp"
#include "core/special_form.hpp"
#include "core/upper_bound.hpp"
#include "gen/generators.hpp"
#include "support/prng.hpp"
#include "support/thread_pool.hpp"
#include "transform/transform.hpp"

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace locmm;

constexpr std::int32_t kR = 4;
constexpr std::size_t kThreads = 2;
constexpr int kPerClass = 3;
// Four passes of 27 solves: each slice has ten solves beyond its p90.
constexpr std::size_t kPassesPerSlice = 4;

struct CorpusItem {
  MaxMinInstance inst;
  double omega_star = 0.0;
  std::vector<double> x_one_thread;  // bitwise reference
};

LocalParams solve_params() {
  LocalParams p;
  p.R = kR;
  p.engine = LocalEngine::kCentralized;
  p.threads = kThreads;
  return p;
}

// Runs fn in a forked child and returns the `count` values it computes, so
// nothing fn allocates or warms up reaches this process.  Call before any
// thread exists.
template <typename Fn>
std::vector<double> in_child(std::size_t count, Fn fn) {
  int fd[2];
  if (::pipe(fd) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fd[0]);
    std::vector<double> v;
    try {
      v = fn();
    } catch (const std::exception&) {
      ::_exit(1);
    }
    const std::size_t bytes = v.size() * sizeof(double);
    if (v.size() != count ||
        ::write(fd[1], v.data(), bytes) != static_cast<ssize_t>(bytes))
      ::_exit(1);
    ::_exit(0);
  }
  ::close(fd[1]);
  std::vector<double> out(count);
  auto* bytes = reinterpret_cast<char*>(out.data());
  std::size_t got = 0;
  const std::size_t want = out.size() * sizeof(double);
  while (got < want) {
    const ssize_t r = ::read(fd[0], bytes + got, want - got);
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  ::close(fd[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (got != want || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("forked child failed");
  return out;
}

// Certifies the simplex optimum of each instance in a forked child, so the
// dense tableau never counts toward this process's peak RSS.  NaN marks an
// instance whose certificate failed.
std::vector<double> certify_in_child(const std::vector<MaxMinInstance>& insts) {
  return in_child(insts.size(), [&] {
    std::vector<double> out;
    for (const MaxMinInstance& inst : insts) {
      double v = std::numeric_limits<double>::quiet_NaN();
      try {
        v = bench::certified_optimum(inst);
      } catch (const std::exception&) {
      }
      out.push_back(v);
    }
    return out;
  });
}

// kPerClass random_general instances per (delta_I, delta_K) class.  An
// instance whose simplex certificate fails is replaced by a fresh draw.
// x_one_thread is left for the caller.
std::vector<CorpusItem> make_corpus(const Options& opt) {
  Rng rng(opt.seed);
  std::vector<RandomGeneralParams> params;
  for (const std::int32_t di : {2, 3, 4}) {
    for (const std::int32_t dk : {2, 3, 4}) {
      for (int k = 0; k < kPerClass; ++k) {
        RandomGeneralParams p;
        p.num_agents = opt.tiny ? 40 : 400;
        p.delta_i = di;
        p.delta_k = dk;
        params.push_back(p);
      }
    }
  }
  std::vector<MaxMinInstance> insts;
  for (const RandomGeneralParams& p : params)
    insts.push_back(random_general(p, rng.next()));
  std::vector<double> omega = certify_in_child(insts);
  for (int attempt = 0; attempt < 8; ++attempt) {
    std::vector<std::size_t> redo;
    for (std::size_t i = 0; i < insts.size(); ++i)
      if (std::isnan(omega[i])) redo.push_back(i);
    if (redo.empty()) break;
    std::vector<MaxMinInstance> fresh;
    for (const std::size_t i : redo)
      fresh.push_back(random_general(params[i], rng.next()));
    const std::vector<double> w = certify_in_child(fresh);
    for (std::size_t j = 0; j < redo.size(); ++j) {
      insts[redo[j]] = std::move(fresh[j]);
      omega[redo[j]] = w[j];
    }
  }
  std::vector<CorpusItem> corpus;
  for (std::size_t i = 0; i < insts.size(); ++i) {
    if (std::isnan(omega[i]))
      throw std::runtime_error("no certifiable instance in 8 draws");
    CorpusItem item;
    item.inst = std::move(insts[i]);
    item.omega_star = omega[i];
    corpus.push_back(std::move(item));
  }
  return corpus;
}

// Set-up of a cold solve in a fresh process: the pool's start plus the
// first solve of one instance of each diagonal class (delta_I = delta_K =
// 2, 3, 4), with the first-touch allocation that brings.  Each repetition
// runs in its own forked child, so it sees no arena or page this process
// warmed.
double cold_setup_s(const std::vector<CorpusItem>& corpus) {
  return in_child(1, [&] {
    const std::int64_t t0 = now_ns();
    ThreadPool::global(kThreads);
    for (std::size_t i = 0; i < corpus.size(); i += 4 * kPerClass)
      solve_local(corpus[i].inst, solve_params());
    return std::vector<double>{static_cast<double>(now_ns() - t0) * 1e-9};
  })[0];
}

// The oracle of one timed solve; empty when it passes.
std::string check(const CorpusItem& item, const LocalSolution& sol) {
  if (!item.inst.is_feasible(sol.x)) return "infeasible x";
  if (!(sol.omega > 0.0)) return "zero utility";
  const double ratio = bench::ratio_of(item.omega_star, sol.omega);
  if (!(ratio <= sol.guarantee * (1.0 + 1e-9)))
    return "ratio " + std::to_string(ratio) + " above guarantee " +
           std::to_string(sol.guarantee);
  if (!bitwise_equal(sol.x, item.x_one_thread))
    return "x differs between 1 and 2 threads";
  return {};
}

// solve_local's engine-C path, call by call, with a span around each call.
// pool_probe_ns receives s + g rerun at one thread (outside the spans).
LocalSolution traced_solve(const MaxMinInstance& inst, Tracer& tr,
                           std::int64_t request, TSearchStats& stats,
                           double& pool_probe_ns) {
  const LocalParams params = solve_params();
  TSearchOptions topt = params.t_search;
  topt.stats = &stats;
  const std::int32_t r = params.R - 2;

  LocalSolution sol;
  Pipeline pipeline;
  std::optional<SpecialFormInstance> sf;
  std::vector<double> t, s;
  {
    Scope op(tr, "op.solve", request);
    {
      Scope sp(tr, "transform.pipeline");
      pipeline = to_special_form(inst);
    }
    {
      Scope sp(tr, "core.special_form");
      sf.emplace(pipeline.special);
    }
    {
      Scope sp(tr, "core.t");
      t = compute_t_all(*sf, r, topt, params.threads);
    }
    {
      Scope sp(tr, "core.smooth");
      s = smooth_min(*sf, t, r, params.threads);
    }
    {
      Scope sp(tr, "core.g");
      const GTables g = compute_g(*sf, s, r, params.threads, topt.stats);
      sol.x_special = output_x(g, r);
    }
    {
      Scope sp(tr, "transform.map_back");
      sol.ratio_factor = pipeline.ratio_factor;
      sol.special_stats = pipeline.special.stats();
      sol.omega_special = pipeline.special.utility(sol.x_special);
      sol.x = pipeline.map_back(sol.x_special);
      sol.omega = inst.utility(sol.x);
      const InstanceStats orig = inst.stats();
      sol.guarantee = theorem1_guarantee(std::max(orig.delta_i, 2),
                                         std::max(orig.delta_k, 2), params.R);
    }
  }
  const std::int64_t t0 = now_ns();
  const std::vector<double> s1 = smooth_min(*sf, t, r, 1);
  const std::vector<double> x1 = output_x(compute_g(*sf, s1, r, 1), r);
  pool_probe_ns += static_cast<double>(now_ns() - t0);
  return sol;
}

}  // namespace

Outcome run_cold_general(const Options& opt) {
  Outcome out;
  std::vector<CorpusItem> corpus = make_corpus(opt);
  const LocalParams params = solve_params();

  // Set-up, before this process solves anything: five fresh children;
  // the median counts.
  std::vector<double> setups;
  for (int rep = 0; rep < 5; ++rep) setups.push_back(cold_setup_s(corpus));

  LocalParams one = params;
  one.threads = 1;
  for (CorpusItem& item : corpus)
    item.x_one_thread = solve_local(item.inst, one).x;
  // Warm-up: one pass, untimed.
  for (const CorpusItem& item : corpus) solve_local(item.inst, params);

  // One closed-loop window: whole passes over the corpus until `seconds`
  // of solve time, so that every slice holds whole passes and the same mix
  // of instances.
  const auto run_window = [&](double seconds, std::vector<double>& lat) {
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t busy = 0;
    while (busy < budget) {
      for (const CorpusItem& item : corpus) {
        const std::int64_t t0 = now_ns();
        const LocalSolution sol = solve_local(item.inst, params);
        const std::int64_t dt = now_ns() - t0;
        busy += dt;
        lat.push_back(static_cast<double>(dt));
        ++out.attempted;
        const std::string why = check(item, sol);
        if (!why.empty()) out.fail("cold_general: " + why);
      }
    }
  };

  if (!opt.trace) {
    std::vector<double> lat;
    run_window(opt.seconds, lat);
    const std::size_t per_slice = kPassesPerSlice * corpus.size();
    out.add("setup_s", median(setups), "s");
    out.add("latency_ms_p50", slice_quantile(lat, per_slice, 0.5) * 1e-6, "ms");
    out.add("latency_ms_tail", slice_quantile(lat, per_slice, 0.9) * 1e-6,
            "ms");
    out.add("throughput_per_s", slice_throughput(lat, per_slice), "1/s");
    out.add("peak_rss_mb", peak_rss_mb(false), "MB");
    return out;
  }

  // Traced run: an untraced half-window for the reference median, then a
  // traced half-window of rebuilt solves.
  std::vector<double> untraced;
  run_window(opt.seconds / 2, untraced);

  Tracer tr(true);
  TSearchStats stats;
  double pool_probe_ns = 0.0;
  std::int64_t solves = 0;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(opt.seconds / 2 * 1e9);
  while (now_ns() - start < budget) {
    for (const CorpusItem& item : corpus) {
      const LocalSolution sol =
          traced_solve(item.inst, tr, solves, stats, pool_probe_ns);
      ++solves;
      ++out.attempted;
      // x_one_thread is bitwise solve_local's x (the untraced window checks
      // that), so this also pins the rebuild to the library.
      const std::string why = check(item, sol);
      if (!why.empty()) out.fail("cold_general (traced): " + why);
    }
  }
  if (!opt.trace_path.empty() && !dump_spans({&tr}, opt.trace_path))
    out.fail("cannot write " + opt.trace_path);

  const TraceSummary sum = summarize({&tr}, "op.solve");
  const double n = static_cast<double>(solves);
  const auto per_solve_ms = [&](const char* name) {
    const auto it = sum.self_ns.find(name);
    return it == sum.self_ns.end() ? 0.0 : it->second / n * 1e-6;
  };
  const double ref = median(untraced);
  out.add("trace.coverage", median(sum.covered_ns) / ref, "ratio");
  out.add("trace.overhead", median(sum.root_ns) / ref - 1.0, "ratio");
  out.add("transform.pipeline_ms", per_solve_ms("transform.pipeline"), "ms");
  out.add("core.special_form_ms", per_solve_ms("core.special_form"), "ms");
  out.add("core.t_ms", per_solve_ms("core.t"), "ms");
  out.add("core.smooth_ms", per_solve_ms("core.smooth"), "ms");
  out.add("core.g_ms", per_solve_ms("core.g"), "ms");
  out.add("transform.map_back_ms", per_solve_ms("transform.map_back"), "ms");
  out.add("core.t_checks", static_cast<double>(stats.t_checks.load()) / n,
          "count");
  out.add("core.f_evals", static_cast<double>(stats.f_evals.load()) / n,
          "count");
  out.add("core.omega_sweeps",
          static_cast<double>(stats.omega_sweeps.load()) / n, "count");
  out.add("core.g_evals", static_cast<double>(stats.g_evals.load()) / n,
          "count");
  out.add("support.pool_overhead_ms",
          per_solve_ms("core.smooth") + per_solve_ms("core.g") -
              pool_probe_ns / n * 1e-6,
          "ms");
  std::vector<double> ratios;
  for (const CorpusItem& item : corpus) {
    const double omega = item.inst.utility(item.x_one_thread);
    if (omega > 0.0)
      ratios.push_back(bench::ratio_of(item.omega_star, omega));
    else
      out.fail("cold_general: zero utility");
  }
  out.add("quality.ratio_mean", mean(ratios), "ratio");
  out.add("quality.ratio_max",
          ratios.empty() ? 0.0 : *std::max_element(ratios.begin(), ratios.end()),
          "ratio");
  return out;
}

}  // namespace perfbench
