// common.hpp -- shared plumbing of the perfbench workloads: options, the
// result record every workload fills, order statistics, and process
// resource probes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured window
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  bool tiny = false;      // self-test sizes: seconds-long, tiny instances
  std::string trace_path;  // where the traced run dumps its spans ("" = none)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports.  `attempted` counts the operations the
// workload issued; `failed` counts those whose output an oracle rejected
// (or that errored).  A run is `correct` only when nothing failed.
struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }

  // Records `n` failed operations; the first few reasons go to stderr.
  void fail(const std::string& why, std::int64_t n = 1) {
    if (failed < 8) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    failed += n;
  }
};

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// One timed event of a measured window: when it completed (ns after the
// window started) and what it counted.
struct Timed {
  double at_ns = 0.0;
  double value = 0.0;
};

// Splits samples, in the order they were taken, into consecutive slices of
// `per_slice` samples; a short remainder joins the last slice.
template <typename T>
std::vector<std::vector<T>> slices(const std::vector<T>& s,
                                   std::size_t per_slice) {
  const std::size_t n = std::max<std::size_t>(1, s.size() / per_slice);
  std::vector<std::vector<T>> out(n);
  for (std::size_t i = 0; i < s.size(); ++i)
    out[std::min(n - 1, i / per_slice)].push_back(s[i]);
  return out;
}

// A window's figures are taken over its slices: each slice gets its own
// statistic, and the first quartile across slices is reported (the third
// for rates, where higher is better).  Interference from other tenants of
// the machine only ever slows a slice down, so the quieter slices give the
// steadier figure.  Slices are sized by sample count, so that each holds at
// least ten samples beyond the tail percentile taken over it.
constexpr double kQuietSlices = 0.25;

// The q-quantile of each slice of latencies, summarized as above.
inline double slice_quantile(const std::vector<double>& s,
                             std::size_t per_slice, double q) {
  std::vector<double> per;
  for (const std::vector<double>& v : slices(s, per_slice))
    if (!v.empty()) per.push_back(quantile(v, q));
  return quantile(per, kQuietSlices);
}

// Operations per second of summed latency in each slice (the throughput of
// a closed loop, which is busy exactly that long), summarized as above.
inline double slice_throughput(const std::vector<double>& s,
                               std::size_t per_slice) {
  std::vector<double> per;
  for (const std::vector<double>& v : slices(s, per_slice)) {
    double busy = 0.0;
    for (const double x : v) busy += x;
    if (busy > 0.0) per.push_back(static_cast<double>(v.size()) / (busy * 1e-9));
  }
  return quantile(per, 1.0 - kQuietSlices);
}

// Summed counts per wall second in each slice of events, summarized as
// above.  A slice runs from the previous slice's last event to its own.
inline double slice_rate(const std::vector<Timed>& s, std::size_t per_slice) {
  std::vector<double> per;
  double from = 0.0;
  for (const std::vector<Timed>& v : slices(s, per_slice)) {
    if (v.empty()) continue;
    double sum = 0.0;
    for (const Timed& t : v) sum += t.value;
    if (v.back().at_ns > from) per.push_back(sum / ((v.back().at_ns - from) * 1e-9));
    from = v.back().at_ns;
  }
  return quantile(per, 1.0 - kQuietSlices);
}

// Bitwise equality of two double vectors (the repository's oracles compare
// solutions by bit pattern, not by tolerance).
inline bool bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Peak resident set of this process in MB; with `children`, plus the peak
// of the largest child reaped so far (the forked ranks of engine M).
double peak_rss_mb(bool children);

// The workloads.  Each generates its inputs from opt.seed, measures for
// opt.seconds, checks its outputs, and returns its metrics: the end-to-end
// set when !opt.trace, the per-layer set when opt.trace.
Outcome run_cold_general(const Options& opt);
Outcome run_edit_stream(const Options& opt);
Outcome run_serve_mixed(const Options& opt);
Outcome run_dist_gather(const Options& opt);

}  // namespace perfbench
