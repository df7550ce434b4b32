// serve_mixed -- one SolverService, four tenants at R = 4: two thin-view
// 20k-agent wheels and two fat-view 4k-agent paired tori, each kind once
// with threads = 2 and once with threads = 3 (the mixed thread counts that
// make ThreadPool::global swap pools).
//
// Two client threads:
//   * writer, closed loop: picks a tenant by the seeded RNG, submits a burst
//     of 1-4 batches, then drains.  A batch is 1-3 coefficient edits or one
//     membership churn (3:1, drawn by the RNG); one submit in eight is a
//     malformed batch, whose rejection is the correct outcome.
//   * reader, open loop at kReadsPerSecond: each read is one utility() and
//     16 query_x() calls on a tenant drawn in proportion to its agent count,
//     timed from its due time (the median) and from its start (the p99).
//
// Oracle, after the measured window: each tenant's committed x must be
// bitwise what a scratch IncrementalSolver fed exactly the accepted batches
// computes; every read and every valid submit must succeed.
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/special_form.hpp"
#include "dynamic/incremental_solver.hpp"
#include "gen/generators.hpp"
#include "lp/delta.hpp"
#include "serve/solver_service.hpp"
#include "support/prng.hpp"

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace locmm;

// Well below the rate at which reads queue behind drains (a drain holds its
// tenant's mutex for milliseconds), so the generator keeps its schedule.
constexpr double kReadsPerSecond = 200.0;
constexpr std::int64_t kSpinNs = 300'000;
// Each slice has ten reads beyond its p99.
constexpr std::size_t kReadsPerSlice = 1000;
constexpr std::size_t kDrainsPerSlice = 500;
constexpr std::int32_t kR = 4;

struct TenantSpec {
  std::string name;
  const MaxMinInstance* inst;
  std::size_t threads;
};

InstanceDelta valid_batch(const SpecialFormInstance& sf, Rng& rng) {
  InstanceDelta d;
  if (rng.below(4) != 0) {
    const int edits = 1 + static_cast<int>(rng.below(3));
    for (int e = 0; e < edits; ++e) {
      const auto v = static_cast<AgentId>(
          rng.below(static_cast<std::uint64_t>(sf.num_agents())));
      const auto arcs = sf.arcs(v);
      const ConstraintArc arc = arcs[rng.below(arcs.size())];
      d.set_constraint_coeff(arc.id, v, rng.uniform(0.5, 2.0));
    }
  } else {
    const MaxMinInstance& inst = sf.instance();
    const auto i = static_cast<ConstraintId>(
        rng.below(static_cast<std::uint64_t>(inst.num_constraints())));
    const AgentId v = inst.constraint_row(i)[0].agent;
    d.remove_from_constraint(i, v);
    d.add_to_constraint(i, v, rng.uniform(0.5, 2.0));
  }
  return d;
}

// The admission dry run must reject each of these shapes.
InstanceDelta malformed_batch(const MaxMinInstance& inst, std::uint64_t kind) {
  InstanceDelta d;
  const AgentId a = inst.constraint_row(0)[0].agent;
  switch (kind % 5) {
    case 0:
      d.set_constraint_coeff(inst.num_constraints() + 7, 0, 1.0);
      break;
    case 1:
      d.set_constraint_coeff(0, inst.num_agents() + 3, 1.0);
      break;
    case 2:
      d.set_constraint_coeff(0, a, -1.0);
      break;
    case 3:
      d.set_constraint_coeff(0, a, std::numeric_limits<double>::quiet_NaN());
      break;
    default:
      d.add_to_constraint(0, a, 1.0);
      break;
  }
  return d;
}

// Samples of one measured window.
struct WindowStats {
  std::vector<double> read_ns;     // due time -> completion
  std::vector<double> service_ns;  // start -> completion
  std::vector<double> commit_ns;   // submit -> end of the committing drain
  std::vector<Timed> committed;    // edits committed by each drain
  double max_lateness_ns = 0.0;    // how late the open-loop generator ran
};

class Workload {
 public:
  explicit Workload(const Options& opt)
      : wheel_(layered_instance({.delta_k = 2,
                                 .layers = opt.tiny ? 500 : 10000,
                                 .width = 1,
                                 .twist = 0})),
        torus_(special_grid_instance({.rows = 4, .cols = opt.tiny ? 50 : 1000},
                                     opt.seed)),
        writer_rng_(opt.seed * 0x9e3779b97f4a7c15ULL + 1),
        reader_rng_(opt.seed * 0x9e3779b97f4a7c15ULL + 2) {
    specs_ = {{"wheel_t2", &wheel_, 2},
              {"wheel_t3", &wheel_, 3},
              {"torus_t2", &torus_, 2},
              {"torus_t3", &torus_, 3}};
  }

  // Creates every tenant in a fresh service; returns the seconds it took.
  double setup() {
    svc_ = std::make_unique<SolverService>();
    const std::int64_t t0 = now_ns();
    for (const TenantSpec& s : specs_) {
      TenantOptions o;
      o.R = kR;
      o.threads = s.threads;
      const ServeStatus st = svc_->create_tenant(s.name, *s.inst, o);
      if (!st.ok()) throw std::runtime_error("create_tenant: " + st.message);
    }
    const double dt = static_cast<double>(now_ns() - t0) * 1e-9;
    mirrors_.clear();
    accepted_.assign(specs_.size(), {});
    for (const TenantSpec& s : specs_) mirrors_.emplace_back(*s.inst);
    return dt;
  }

  // Writer and reader run concurrently for `seconds`.
  WindowStats window(double seconds, Tracer& wtr, Tracer& rtr) {
    WindowStats w;
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
    std::thread writer([&] {
      while (now_ns() < end) burst(w, wtr, start);
    });
    std::thread reader([&] {
      const double period_ns = 1e9 / kReadsPerSecond;
      for (std::int64_t k = 0;; ++k) {
        const auto due =
            start + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
        if (due >= end) break;
        // Sleep to just before the due time, then spin: the wake-up latency
        // of a plain sleep would otherwise dominate the median read.
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due - kSpinNs)));
        while (now_ns() < due) {
        }
        const std::int64_t t0 = now_ns();
        read(rtr, k);
        const std::int64_t t1 = now_ns();
        w.read_ns.push_back(static_cast<double>(t1 - due));
        w.service_ns.push_back(static_cast<double>(t1 - t0));
        w.max_lateness_ns =
            std::max(w.max_lateness_ns, static_cast<double>(t0 - due));
      }
    });
    writer.join();
    reader.join();
    return w;
  }

  // One read: utility() plus 16 query_x() on a random tenant.
  void read(Tracer& tr, std::int64_t request) {
    // Tenants are read in proportion to their agent counts, so the median
    // read falls inside one tenant kind's cost, not on the boundary between
    // the wheels' and the tori's.
    std::uint64_t total = 0;
    for (const TenantSpec& s : specs_) total += s.inst->num_agents();
    std::uint64_t r = reader_rng_.below(total);
    std::size_t t = 0;
    while (r >= static_cast<std::uint64_t>(specs_[t].inst->num_agents()))
      r -= static_cast<std::uint64_t>(specs_[t++].inst->num_agents());
    const TenantSpec& s = specs_[t];
    ++reads_;
    Scope op(tr, "op.read", request);
    QueryResult q;
    ServeStatus st;
    {
      Scope sp(tr, "serve.utility");
      st = svc_->utility(s.name, &q);
    }
    bool ok = st.ok() && std::isfinite(q.value) && q.value >= 0.0;
    const auto n = static_cast<std::uint64_t>(s.inst->num_agents());
    for (int k = 0; k < 16; ++k) {
      const auto a = static_cast<AgentId>(reader_rng_.below(n));
      {
        Scope sp(tr, "serve.query_x");
        st = svc_->query_x(s.name, a, &q);
      }
      ok = ok && st.ok() && std::isfinite(q.value) && q.value >= 0.0;
    }
    if (!ok) ++read_failures_;
  }

  // Checks every tenant against its scratch oracle; returns the number of
  // tenants whose committed state differs.
  std::int64_t verify() {
    std::vector<std::uint8_t> bad(specs_.size(), 0);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < specs_.size(); ++t) {
      workers.emplace_back([&, t] {
        const TenantSpec& s = specs_[t];
        IncrementalSolver::Options o;
        o.R = kR;
        IncrementalSolver oracle(*s.inst, o);
        for (const InstanceDelta& d : accepted_[t]) oracle.apply(d);
        TenantStats st;
        if (!svc_->stats(s.name, &st).ok() || st.queued_batches != 0 ||
            st.internal_errors != 0) {
          bad[t] = 1;
          return;
        }
        for (AgentId v = 0; v < s.inst->num_agents(); ++v) {
          QueryResult q;
          const double want = oracle.x()[static_cast<std::size_t>(v)];
          if (!svc_->query_x(s.name, v, &q).ok() || q.stale ||
              std::memcmp(&q.value, &want, sizeof want) != 0) {
            bad[t] = 1;
            return;
          }
        }
      });
    }
    for (std::thread& w : workers) w.join();
    std::int64_t n = 0;
    for (std::size_t t = 0; t < specs_.size(); ++t) {
      if (bad[t] == 0) continue;
      std::fprintf(stderr, "serve_mixed: tenant %s differs from its oracle\n",
                   specs_[t].name.c_str());
      ++n;
    }
    return n;
  }

  double coalesced_frac() const {
    double coalesced = 0, accepted = 0;
    for (const TenantSpec& s : specs_) {
      TenantStats st;
      if (!svc_->stats(s.name, &st).ok()) continue;
      coalesced += static_cast<double>(st.coalesced);
      accepted += static_cast<double>(st.accepted);
    }
    return accepted > 0 ? coalesced / accepted : 0.0;
  }

  std::int64_t operations() const { return reads_ + submits_; }
  std::int64_t failures() const { return read_failures_ + write_failures_; }

 private:
  // One closed-loop writer step: a burst of submits, then one drain.
  void burst(WindowStats& w, Tracer& tr, std::int64_t start) {
    const std::size_t t = writer_rng_.below(specs_.size());
    const std::string& name = specs_[t].name;
    const std::uint64_t batches = 1 + writer_rng_.below(4);
    std::vector<std::int64_t> submitted_at;
    std::int64_t edits = 0;
    for (std::uint64_t b = 0; b < batches; ++b) {
      ++submits_;
      if (writer_rng_.below(8) == 0) {
        const InstanceDelta d =
            malformed_batch(mirrors_[t].instance(), writer_rng_.below(5));
        Scope sp(tr, "serve.submit", submits_);
        if (svc_->submit(name, d).code != ServeCode::kMalformedDelta)
          ++write_failures_;
        continue;
      }
      const InstanceDelta d = valid_batch(mirrors_[t], writer_rng_);
      const std::int64_t t0 = now_ns();
      ServeStatus st;
      {
        Scope sp(tr, "serve.submit", submits_);
        st = svc_->submit(name, d);
      }
      if (!st.ok()) {
        ++write_failures_;
        continue;
      }
      mirrors_[t].apply(d);
      accepted_[t].push_back(d);
      submitted_at.push_back(t0);
      edits += static_cast<std::int64_t>(d.size());
    }
    ServeStatus st;
    {
      Scope sp(tr, "serve.drain", submits_);
      st = svc_->drain(name);
    }
    const std::int64_t done = now_ns();
    if (!st.ok()) ++write_failures_;
    for (const std::int64_t t0 : submitted_at)
      w.commit_ns.push_back(static_cast<double>(done - t0));
    w.committed.push_back(
        {static_cast<double>(done - start), static_cast<double>(edits)});
  }

  MaxMinInstance wheel_, torus_;
  std::vector<TenantSpec> specs_;
  std::unique_ptr<SolverService> svc_;
  // Writer-side copies of each tenant's committed + queued instance, so
  // valid batches stay valid; and the batches each tenant accepted.
  std::vector<SpecialFormInstance> mirrors_;
  std::vector<std::vector<InstanceDelta>> accepted_;
  Rng writer_rng_, reader_rng_;
  // Each counter belongs to one client thread; read after the join.
  std::int64_t submits_ = 0, write_failures_ = 0, reads_ = 0,
               read_failures_ = 0;
};

}  // namespace

Outcome run_serve_mixed(const Options& opt) {
  Outcome out;
  Workload wl(opt);

  std::vector<double> setups;
  // Set-up: every create_tenant call, five times; the median counts.
  for (int rep = 0; rep < (opt.trace ? 1 : 5); ++rep)
    setups.push_back(wl.setup());

  Tracer quiet_w(false), quiet_r(false);
  wl.window(opt.tiny ? 0.5 : 2.0, quiet_w, quiet_r);  // warm-up

  const auto finish = [&] {
    const std::int64_t bad = wl.verify() + wl.failures();
    out.attempted = wl.operations();
    if (bad > 0)
      out.fail("serve_mixed: a read, submit, drain or tenant oracle failed",
               bad);
  };

  if (!opt.trace) {
    const WindowStats w = wl.window(opt.seconds, quiet_w, quiet_r);
    const double rss = peak_rss_mb(false);
    finish();
    out.add("setup_s", median(setups), "s");
    out.add("latency_ms_p50", slice_quantile(w.read_ns, kReadsPerSlice, 0.5) * 1e-6,
            "ms");
    // The tail is timed from each read's start: it keeps the wait for the
    // tenant mutex behind a drain, but not the lateness a long wait passes
    // on to the reads due after it.  That cascade makes the due-time p99 a
    // count of a few stalls per window, 3-10 times apart between runs on a
    // shared host; it is reported in the traced run
    // (serve.read_wait_us_p99, loadgen.read_lateness_ms_max).
    out.add("latency_ms_tail",
            slice_quantile(w.service_ns, kReadsPerSlice, 0.99) * 1e-6, "ms");
    out.add("throughput_per_s", slice_rate(w.committed, kDrainsPerSlice),
            "1/s");
    out.add("peak_rss_mb", rss, "MB");
    return out;
  }

  const WindowStats plain = wl.window(opt.seconds / 2, quiet_w, quiet_r);
  Tracer wtr(true), rtr(true);
  wl.window(opt.seconds / 2, wtr, rtr);
  // Uncontended read cost: the writer is idle.
  Tracer solo(true);
  std::vector<double> solo_ns;
  for (std::int64_t k = 0; k < (opt.tiny ? 200 : 2000); ++k) {
    const std::int64_t t0 = now_ns();
    wl.read(solo, k);
    solo_ns.push_back(static_cast<double>(now_ns() - t0));
  }
  finish();
  if (!opt.trace_path.empty() &&
      !dump_spans({&wtr, &rtr, &solo}, opt.trace_path))
    out.fail("cannot write " + opt.trace_path);

  const TraceSummary reads = summarize({&rtr}, "op.read");
  const TraceSummary submits = summarize({&wtr}, "serve.submit");
  const TraceSummary drains = summarize({&wtr}, "serve.drain");
  const TraceSummary uncontended = summarize({&solo}, "op.read");
  const auto per_call_us = [](const TraceSummary& s, const char* name) {
    const auto it = s.total_ns.find(name);
    return it == s.total_ns.end()
               ? 0.0
               : it->second / static_cast<double>(s.count.at(name)) * 1e-3;
  };
  const double ref = median(plain.service_ns);
  out.add("trace.coverage", median(reads.covered_ns) / ref, "ratio");
  out.add("trace.overhead", median(reads.root_ns) / ref - 1.0, "ratio");
  out.add("serve.submit_us", per_call_us(submits, "serve.submit"), "us");
  out.add("serve.drain_us", per_call_us(drains, "serve.drain"), "us");
  out.add("serve.commit_us_p50", median(plain.commit_ns) * 1e-3, "us");
  out.add("serve.commit_us_p99", quantile(plain.commit_ns, 0.99) * 1e-3, "us");
  out.add("serve.coalesced_frac", wl.coalesced_frac(), "ratio");
  out.add("serve.utility_us", per_call_us(uncontended, "serve.utility"), "us");
  out.add("serve.query_x_us", per_call_us(uncontended, "serve.query_x"), "us");
  out.add("serve.read_wait_us_p99",
          (quantile(plain.read_ns, 0.99) - median(solo_ns)) *
              1e-3,
          "us");
  out.add("loadgen.read_lateness_ms_max", plain.max_lateness_ns * 1e-6, "ms");
  return out;
}

}  // namespace perfbench
