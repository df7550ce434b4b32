#include "trace.hpp"

#include <cstdio>

namespace perfbench {

std::int32_t Tracer::begin(const char* name, std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request >= 0 || s.parent < 0
                  ? request
                  : spans_[static_cast<std::size_t>(s.parent)].request;
  const auto idx = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(idx);
  spans_.back().start_ns = now_ns();
  return idx;
}

void Tracer::end(std::int32_t idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  // Scopes close in LIFO order, so idx is the innermost open span.
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

void Tracer::add_child(std::int32_t parent, const char* name,
                       double duration_us) {
  if (parent < 0) return;
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  auto [it, fresh] = fill_.try_emplace(parent, p.start_ns);
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = p.request;
  s.start_ns = it->second;
  s.end_ns = s.start_ns + static_cast<std::int64_t>(duration_us * 1e3);
  it->second = s.end_ns;
  spans_.push_back(s);
}

TraceSummary summarize(const std::vector<const Tracer*>& tracers,
                       const std::string& root_name) {
  TraceSummary out;
  for (const Tracer* t : tracers) {
    const std::vector<Span>& spans = t->spans();
    std::vector<double> child_ns(spans.size(), 0.0);
    std::vector<std::int32_t> root_of(spans.size(), -1);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
        // Parents precede children, so the parent's root is known.
        root_of[i] = root_of[static_cast<std::size_t>(s.parent)];
      } else {
        root_of[i] = static_cast<std::int32_t>(i);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (root_name != spans[static_cast<std::size_t>(root_of[i])].name)
        continue;
      const double dur = static_cast<double>(s.end_ns - s.start_ns);
      out.self_ns[s.name] += dur - child_ns[i];
      out.total_ns[s.name] += dur;
      out.count[s.name] += 1;
      if (s.parent < 0) {
        // Children never overlap, so the self times of everything below a
        // root sum to the durations of its direct children.
        out.root_ns.push_back(dur);
        out.covered_ns.push_back(child_ns[i]);
      }
    }
  }
  return out;
}

bool dump_spans(const std::vector<const Tracer*>& tracers,
                const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "tracer,index,parent,request,name,start_ns,end_ns\n");
  for (std::size_t t = 0; t < tracers.size(); ++t) {
    const std::vector<Span>& spans = tracers[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f, "%zu,%zu,%d,%lld,%s,%lld,%lld\n", t, i, s.parent,
                   static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
