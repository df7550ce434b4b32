// t_search.hpp -- the bisection for the upper bound t_u (paper §5.2), the
// one implementation behind engine C (compute_t_single, over a
// SpecialFormInstance) and engine L (view_solver.cpp, over the per-origin
// slices it harvests from a view or from the communication graph).
//
// The search reads its adjacency through four calls, each in port order:
//   arcs(v)            the constraints of agent v as ConstraintArc rows
//                      (partner id and both coefficients; `id` is unread),
//   siblings(v)        N(v), the other agents of v's objective,
//   inv_cap(v)         min_{i in Iv} 1 / a_iv,
//   t_search_upper(v)  the initial hi: inv_cap(v) first, then the siblings'
//                      inv_cap, summed in that order.
// Agent ids are whatever the adjacency keys its rows by (engine L keys them
// by origin); the search only hashes and compares them.  A span returned by
// arcs or siblings need only stay valid until the next call into the
// adjacency: the search reads each one before it asks for another.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "core/upper_bound.hpp"

namespace locmm::detail {

// Agent id -> state index within one layer of a cone: open addressing with
// linear probing.  Slots carry the layer's generation, so starting a layer
// costs O(1); the table only grows, to at most four times the largest layer
// fan-out seen.
class LayerIndex {
 public:
  // Starts a layer that will intern at most `max_keys` agents.
  void start(std::size_t max_keys) {
    const std::size_t cap =
        std::bit_ceil(std::max<std::size_t>(16, 2 * max_keys));
    if (slots_.size() < cap) {
      slots_.assign(cap, Slot{});
      shift_ = 64 - std::countr_zero(cap);
      gen_ = 0;
    }
    if (++gen_ == 0) {  // the generation wrapped: drop every stale tag
      std::fill(slots_.begin(), slots_.end(), Slot{});
      gen_ = 1;
    }
  }

  // The state of `v` in this layer, or `fresh` after recording it as v's.
  std::uint32_t intern(AgentId v, std::uint32_t fresh) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t h = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)) *
         0x9E3779B97F4A7C15ull) >>
        shift_);
    for (;; h = (h + 1) & mask) {
      Slot& slot = slots_[h];
      if (slot.gen != gen_) {
        slot = {gen_, v, fresh};
        return fresh;
      }
      if (slot.agent == v) return slot.state;
    }
  }

 private:
  struct Slot {
    std::uint32_t gen = 0;
    AgentId agent = 0;
    std::uint32_t state = 0;
  };
  std::vector<Slot> slots_;  // a power of two
  int shift_ = 0;            // 64 - log2(slots_.size())
  std::uint32_t gen_ = 0;
};

// The dependency cone of agent u, flattened: every state (v, d, role)
// reachable from the root condition (u, r, -) through (6)-(7), deduplicated.
// States are numbered in BFS order from the root and come in one layer per
// (d, role): (r,-), (r,+), (r-1,-), ..., (0,+).  Every dependency of a state
// lies in the next layer, so descending index order is an evaluation order.
// One instance per thread is rebuilt for each agent; its arrays are sized by
// the largest cone seen, never by n.
template <class Adj>
class TCone {
 public:
  void build(const Adj& adj, AgentId u, std::int32_t r);

  std::size_t size() const { return agent_.size(); }

  // Evaluates `states` (in evaluation order) at omega into vals, reading
  // every dependency from vals, and returns whether conditions (8)-(9) hold
  // on those states.
  bool evaluate(std::span<const std::uint32_t> states, double omega,
                std::vector<double>& vals) const;

 private:
  enum class Kind : std::uint8_t { kMinus, kPlus, kLeaf };  // leaf: (v, 0, +)
  struct Dep {
    std::uint32_t state;
    double a_partner;  // (7) coefficients of the arc; unused for (6)
    double a_self;
  };

  const Adj* adj_ = nullptr;
  double root_cap_ = 0.0;
  std::vector<AgentId> agent_;
  std::vector<Kind> kind_;
  std::vector<std::uint32_t> dep_begin_;  // into deps_; size() + 1 entries
  std::vector<Dep> deps_;
  LayerIndex index_;
};

template <class Adj>
void TCone<Adj>::build(const Adj& adj, AgentId u, std::int32_t r) {
  LOCMM_CHECK(r >= 0);
  adj_ = &adj;
  root_cap_ = adj.inv_cap(u);
  agent_.assign(1, u);
  kind_.assign(1, Kind::kMinus);
  dep_begin_.clear();
  deps_.clear();

  // Layer 2(r-d) holds the (d, -) states, layer 2(r-d)+1 the (d, +) ones.
  const std::int32_t leaf_layer = 2 * r + 1;
  std::size_t begin = 0;
  for (std::int32_t layer = 0; layer < leaf_layer; ++layer) {
    const std::size_t end = agent_.size();
    const bool plus = layer % 2 == 1;
    const Kind next = plus                        ? Kind::kMinus
                      : layer + 1 == leaf_layer ? Kind::kLeaf
                                                : Kind::kPlus;
    std::size_t fanout = 0;
    for (std::size_t s = begin; s < end; ++s) {
      const AgentId v = agent_[s];
      fanout += plus ? adj.arcs(v).size() : adj.siblings(v).size();
    }
    index_.start(fanout);
    auto intern = [&](AgentId v) {
      const auto fresh = static_cast<std::uint32_t>(agent_.size());
      const std::uint32_t state = index_.intern(v, fresh);
      if (state == fresh) {
        agent_.push_back(v);
        kind_.push_back(next);
      }
      return state;
    };
    for (std::size_t s = begin; s < end; ++s) {
      dep_begin_.push_back(static_cast<std::uint32_t>(deps_.size()));
      if (plus) {
        // (7): one dependency per incident constraint, in port order.
        for (const ConstraintArc& arc : adj.arcs(agent_[s])) {
          deps_.push_back({intern(arc.partner), arc.a_partner, arc.a_self});
        }
      } else {
        // (6): one dependency per sibling, in the objective's port order.
        for (AgentId w : adj.siblings(agent_[s])) {
          deps_.push_back({intern(w), 0.0, 0.0});
        }
      }
    }
    begin = end;
  }
  // The (0, +) leaves have no dependencies.
  dep_begin_.resize(agent_.size() + 1,
                    static_cast<std::uint32_t>(deps_.size()));
}

template <class Adj>
bool TCone<Adj>::evaluate(std::span<const std::uint32_t> states, double omega,
                          std::vector<double>& vals) const {
  bool ok = true;
  for (const std::uint32_t s : states) {
    const Dep* dep = deps_.data() + dep_begin_[s];
    const Dep* const dep_end = deps_.data() + dep_begin_[s + 1];
    double val;
    if (kind_[s] == Kind::kMinus) {
      double sum = 0.0;
      for (; dep != dep_end; ++dep) sum += vals[dep->state];
      val = std::max(0.0, omega - sum);  // (6)
      if (s == 0 && !(val <= root_cap_)) ok = false;  // condition (9)
    } else {
      if (kind_[s] == Kind::kLeaf) {
        val = adj_->inv_cap(agent_[s]);  // (5)
      } else {
        val = std::numeric_limits<double>::infinity();  // (7)
        for (; dep != dep_end; ++dep) {
          const double fm = vals[dep->state];
          val = std::min(val, (1.0 - dep->a_partner * fm) / dep->a_self);
        }
      }
      if (!(val >= 0.0)) ok = false;  // condition (8)
    }
    vals[s] = val;
  }
  return ok;
}

inline bool bits_differ(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b);
}

// Per-thread scratch of bisect_t.
template <class Adj>
struct TSearchScratch {
  TCone<Adj> cone;
  std::vector<double> lo_vals;  // every state's value at lo
  std::vector<double> hi_vals;  // every state's value at hi
  std::vector<double> vals;     // the values at the current probe
  std::vector<std::uint32_t> live;  // changing states, evaluation order
};

// t_u by bisection over the live set.  With positive finite coefficients
// every operation of (5)-(7) is monotone under IEEE round-to-nearest, so f+
// is non-increasing and f- non-decreasing in omega in floating point too.  A
// state whose values at lo and hi are bitwise equal is therefore constant on
// [lo, hi], and its conditions (8)-(9), which held at lo, hold at every
// probe inside.  Each probe re-evaluates only the states whose two values
// still differ; its outcome, and so every bracket and the returned t, are
// bitwise those of evaluating the whole cone at every probe.  Counts one
// search into opt.stats, if set.
template <class Adj>
double bisect_t(const Adj& adj, AgentId u, std::int32_t r,
                const TSearchOptions& opt) {
  thread_local TSearchScratch<Adj> scratch;
  TCone<Adj>& cone = scratch.cone;
  cone.build(adj, u, r);
  const std::size_t n = cone.size();
  std::vector<std::uint32_t>& live = scratch.live;
  live.resize(n);
  std::iota(live.rbegin(), live.rend(), 0u);  // every state, deepest first
  scratch.lo_vals.resize(n);
  scratch.hi_vals.resize(n);

  std::int64_t checks = 0;
  std::int64_t evals = 0;
  auto flush_stats = [&] {
    if (opt.stats == nullptr) return;
    opt.stats->t_searches.fetch_add(1, std::memory_order_relaxed);
    opt.stats->t_checks.fetch_add(checks, std::memory_order_relaxed);
    opt.stats->f_evals.fetch_add(evals, std::memory_order_relaxed);
  };

  double lo = 0.0;
  double hi = adj.t_search_upper(u);
  checks += 2;
  evals += 2 * static_cast<std::int64_t>(n);
  // omega = 0 is always feasible.
  LOCMM_CHECK(cone.evaluate(live, 0.0, scratch.lo_vals));
  if (cone.evaluate(live, hi, scratch.hi_vals)) {
    flush_stats();
    return hi;
  }

  // Keeps the states whose values at lo and hi still differ, after the side
  // the last probe moved took its values from `vals`.
  auto narrow = [&](std::vector<double>& moved,
                    const std::vector<double>& other) {
    std::size_t kept = 0;
    for (const std::uint32_t s : live) {
      moved[s] = scratch.vals[s];
      if (bits_differ(moved[s], other[s])) live[kept++] = s;
    }
    live.resize(kept);
  };
  // Constant states keep their value in `vals` from here on.
  scratch.vals = scratch.lo_vals;
  narrow(scratch.lo_vals, scratch.hi_vals);

  const double eps = opt.tol * std::max(1.0, hi);
  int iters = 0;
  while (hi - lo > eps && iters < opt.max_iters) {
    const double mid = 0.5 * (lo + hi);
    ++checks;
    evals += static_cast<std::int64_t>(live.size());
    if (cone.evaluate(live, mid, scratch.vals)) {
      lo = mid;
      narrow(scratch.lo_vals, scratch.hi_vals);
    } else {
      hi = mid;
      narrow(scratch.hi_vals, scratch.lo_vals);
    }
    ++iters;
  }
  flush_stats();
  // Return the feasible endpoint: all conditions (8)-(9) hold at lo exactly,
  // so the feasibility half of the analysis is preserved without error.
  return lo;
}

}  // namespace locmm::detail
