// dist_gather -- repeated engine-M solves (solve_special_message_passing)
// forked onto 2 ranks over shared-memory rings, on a 1000-agent wheel
// (layered_instance, width 1) at R = 3 with seeded constraint
// coefficients.  Closed loop, one caller.  The wheel is small enough for a
// window to hold over a hundred solves, so ten or more lie beyond the p90.
//
// Oracle, outside the timed region: each multi-process solve's x and
// RunStats must be bitwise equal to the in-process run of the same
// instance.
#include <memory>
#include <string>
#include <vector>

#include "core/view_solver.hpp"
#include "dist/gather.hpp"
#include "dist/transport.hpp"
#include "dist/wire.hpp"
#include "gen/generators.hpp"
#include "graph/comm_graph.hpp"
#include "graph/view_tree.hpp"
#include "lp/delta.hpp"
#include "support/prng.hpp"

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace locmm;

constexpr std::int32_t kR = 3;
// A 20 s window is one slice: its p90 has ten or more solves beyond it.
constexpr std::size_t kSolvesPerSlice = 100;

bool same_stats(const RunStats& a, const RunStats& b) {
  return a.rounds == b.rounds && a.messages == b.messages &&
         a.bytes == b.bytes && a.max_message_bytes == b.max_message_bytes &&
         a.fresh_messages == b.fresh_messages &&
         a.replayed_messages == b.replayed_messages &&
         a.fresh_bytes == b.fresh_bytes && a.replayed_bytes == b.replayed_bytes;
}

MaxMinInstance make_instance(const Options& opt) {
  MaxMinInstance inst = layered_instance(
      {.delta_k = 2, .layers = opt.tiny ? 100 : 500, .width = 1, .twist = 0});
  Rng rng(opt.seed);
  InstanceDelta d;
  for (ConstraintId i = 0; i < inst.num_constraints(); ++i)
    for (const Entry& e : inst.constraint_row(i))
      d.set_constraint_coeff(i, e.agent, rng.uniform(0.5, 2.0));
  inst.apply(d);
  return inst;
}

// Wire codec cost on the views engine M ships: for a few agents, the
// radius-k views for every gather depth k, encoded and decoded repeatedly.
// Returns ns per encoded byte per round trip; counts a failed round trip
// (decode rejected, or re-encoding differs) into `bad`.
double codec_ns_per_byte(const MaxMinInstance& inst, std::int64_t& bad) {
  const CommGraph g(inst);
  const std::int32_t D = view_radius(kR);
  std::vector<ViewTree> views;
  for (const AgentId v : {0, inst.num_agents() / 3, 2 * inst.num_agents() / 3})
    for (std::int32_t k = 1; k < D; ++k)
      views.push_back(ViewTree::build(g, g.agent_node(v), k));
  double bytes = 0.0;
  std::int64_t ns = 0;
  for (int rep = 0; rep < 50; ++rep) {
    for (const ViewTree& v : views) {
      const std::int64_t t0 = now_ns();
      const std::vector<std::uint8_t> enc = encode_view(v);
      ViewTree back;
      const WireDecodeStatus st = decode_view(enc, v.depth(), back);
      ns += now_ns() - t0;
      bytes += static_cast<double>(enc.size());
      if (st != WireDecodeStatus::kOk || encode_view(back) != enc) ++bad;
    }
  }
  return static_cast<double>(ns) / bytes;
}

}  // namespace

Outcome run_dist_gather(const Options& opt) {
  Outcome out;
  const MaxMinInstance inst = make_instance(opt);
  const MessageRunResult ref = solve_special_message_passing(inst, kR);
  DistOptions shm;
  shm.transport = TransportKind::kSharedMemory;
  shm.ranks = 2;

  const auto solve = [&] {
    const std::int64_t t0 = now_ns();
    const MessageRunResult m =
        solve_special_message_passing(inst, kR, {}, 1, nullptr, shm);
    const std::int64_t dt = now_ns() - t0;
    ++out.attempted;
    if (!bitwise_equal(m.x, ref.x))
      out.fail("dist_gather: x differs from the in-process run");
    else if (!same_stats(m.stats, ref.stats))
      out.fail("dist_gather: RunStats differ from the in-process run");
    return dt;
  };
  const auto window = [&](double seconds, std::vector<double>& lat) {
    const auto budget = static_cast<std::int64_t>(seconds * 1e9);
    std::int64_t busy = 0;
    while (busy < budget) {
      const std::int64_t dt = solve();
      busy += dt;
      lat.push_back(static_cast<double>(dt));
    }
  };

  // Set-up: what every multi-process solve pays before its first round --
  // result and ring mapping, rank fork and reaping -- timed as a one-round,
  // gather-only run of the same ranks over the same graph; nine times, the
  // median counts.
  std::vector<double> setups;
  {
    const CommGraph g(inst);
    const auto make = [](NodeId) {
      return std::make_unique<GatherProgram>(1, 0, TSearchOptions{});
    };
    for (int rep = 0; rep < 9; ++rep) {
      const std::int64_t t0 = now_ns();
      run_multiprocess(g, make, 1, inst.num_agents(), shm);
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }
  // Warm-up: two solves, untimed.
  for (int rep = 0; rep < 2; ++rep) solve();

  if (!opt.trace) {
    std::vector<double> lat;
    window(opt.seconds, lat);
    out.add("setup_s", median(setups), "s");
    out.add("latency_ms_p50",
            slice_quantile(lat, kSolvesPerSlice, 0.5) * 1e-6, "ms");
    out.add("latency_ms_tail",
            slice_quantile(lat, kSolvesPerSlice, 0.9) * 1e-6, "ms");
    out.add("throughput_per_s", slice_throughput(lat, kSolvesPerSlice),
            "1/s");
    out.add("peak_rss_mb", peak_rss_mb(true), "MB");
    return out;
  }

  std::vector<double> untraced;
  window(opt.seconds / 2, untraced);
  // Traced half: the solve is one call into dist; the in-process run of
  // the same instance, timed alongside, separates transport from compute.
  Tracer tr(true);
  std::vector<double> inproc_ns;
  const auto budget = static_cast<std::int64_t>(opt.seconds / 2 * 1e9);
  std::int64_t busy = 0;
  for (std::int64_t req = 0; busy < budget; ++req) {
    {
      Scope op(tr, "op.solve", req);
      Scope sp(tr, "dist.solve_multiprocess");
      busy += solve();
    }
    const std::int64_t t0 = now_ns();
    const MessageRunResult m = solve_special_message_passing(inst, kR);
    inproc_ns.push_back(static_cast<double>(now_ns() - t0));
    if (!bitwise_equal(m.x, ref.x)) out.fail("dist_gather: in-process x moved");
  }
  std::int64_t bad = 0;
  const double codec = codec_ns_per_byte(inst, bad);
  if (bad > 0) out.fail("dist_gather: a view failed the codec round trip", bad);
  if (!opt.trace_path.empty() && !dump_spans({&tr}, opt.trace_path))
    out.fail("cannot write " + opt.trace_path);

  const TraceSummary sum = summarize({&tr}, "op.solve");
  const double ref_ns = median(untraced);
  out.add("trace.coverage", median(sum.covered_ns) / ref_ns, "ratio");
  out.add("trace.overhead", median(sum.root_ns) / ref_ns - 1.0, "ratio");
  out.add("dist.rounds", ref.stats.rounds, "count");
  out.add("dist.messages", static_cast<double>(ref.stats.messages), "count");
  out.add("dist.bytes", static_cast<double>(ref.stats.bytes), "count");
  out.add("dist.max_message_bytes",
          static_cast<double>(ref.stats.max_message_bytes), "count");
  out.add("dist.inprocess_ms", median(inproc_ns) * 1e-6, "ms");
  out.add("dist.transport_ms", (ref_ns - median(inproc_ns)) * 1e-6, "ms");
  out.add("dist.codec_ns_per_byte", codec, "ns/B");
  return out;
}

}  // namespace perfbench
