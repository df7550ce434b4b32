// trace.hpp -- in-memory span recorder for the traced (per-layer) runs.
//
// The benchmark times each layer from outside: it opens a span around every
// call it makes into a module's public functions.  A span records its name,
// start and end (steady clock, ns), the span that caused it, and the request
// (operation) it belongs to.  Spans stay in memory until the run ends, when
// they are dumped as CSV and reduced to per-layer self times: a span's self
// time is its duration minus the durations of its direct children.
//
// One Tracer per client thread; a disabled Tracer records nothing, so the
// workload code can keep its Scope objects on the untraced path too.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  const char* name = "";      // static string: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   // index into the same Tracer, -1 = root
  std::int64_t request = -1;  // operation id shared by one request's spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  bool enabled() const { return enabled_; }

  // Opens a span under the innermost open one; returns its index (-1 when
  // disabled).
  std::int32_t begin(const char* name, std::int64_t request);
  void end(std::int32_t idx);

  // Records an already-measured child of span `parent` (a duration some
  // layer reported about itself, e.g. IncrementalSolver::last_update()).
  // Children added this way are laid end to end from the parent's start.
  void add_child(std::int32_t parent, const char* name, double duration_us);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;            // stack of open span indices
  std::map<std::int32_t, std::int64_t> fill_;  // add_child cursor per parent
};

// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int64_t request = -1)
      : t_(t), idx_(t.begin(name, request)) {}
  ~Scope() { t_.end(idx_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int32_t index() const { return idx_; }

 private:
  Tracer& t_;
  std::int32_t idx_;
};

// Per-run reduction of one or more tracers' spans.
struct TraceSummary {
  std::map<std::string, double> self_ns;   // summed self time per span name
  std::map<std::string, double> total_ns;  // summed duration per span name
  std::map<std::string, std::int64_t> count;
  // Per root span (one operation): its duration and the summed self time
  // of every span below it -- the part some layer accounts for.
  std::vector<double> root_ns;
  std::vector<double> covered_ns;
};

// Reduces the spans whose root is named `root_name` (other roots and their
// descendants are ignored).
TraceSummary summarize(const std::vector<const Tracer*>& tracers,
                       const std::string& root_name);

// Writes every span as CSV (tracer,index,parent,request,name,start_ns,
// end_ns); returns false when the file cannot be written.
bool dump_spans(const std::vector<const Tracer*>& tracers,
                const std::string& path);

}  // namespace perfbench
