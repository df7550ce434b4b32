// deadline.hpp -- cooperative per-request compute budgets.
//
// A Deadline is a cancellation token the serving layer threads through a
// re-solve: long-running stages call tick()/check() at natural boundaries
// (per pipeline stage of an incremental apply) and abandon the work with
// DeadlineExceeded once the budget is gone.  The exception deliberately does
// NOT derive from CheckError: running out of time is a normal, contained
// serving outcome (the caller keeps the last committed state and repairs
// later), not a violated invariant.
//
// Two expiry modes:
//   * after_us(budget) -- wall-clock, what production serving uses;
//   * at_check(n)      -- deterministic, expires on the n-th tick()
//                         (0-based), so tests can drive an abandonment into
//                         every abort point of a transactional apply and
//                         prove the rollback bitwise, without racing a
//                         clock.
// The tick counter is atomic: ticks may come from thread-pool workers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace locmm {

// Thrown by deadline-aware stages when the budget expires.  The operation
// that threw is required to leave its state as if never started (the
// transactional-apply contract of dynamic/incremental_solver.hpp).
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what) {}
};

class Deadline {
 public:
  Deadline() = default;
  // The atomic tick counter would otherwise delete these; copying carries
  // the count over so a copied deadline keeps the same remaining budget.
  Deadline(const Deadline& o)
      : at_(o.at_),
        timed_(o.timed_),
        expire_at_check_(o.expire_at_check_),
        checks_(o.checks_.load(std::memory_order_relaxed)) {}
  Deadline& operator=(const Deadline& o) {
    at_ = o.at_;
    timed_ = o.timed_;
    expire_at_check_ = o.expire_at_check_;
    checks_.store(o.checks_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    return *this;
  }

  // Wall-clock budget from now.  A non-positive budget is already expired.
  static Deadline after_us(double budget_us) {
    Deadline d;
    d.timed_ = true;
    d.at_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double, std::micro>(
                    budget_us > 0.0 ? budget_us : 0.0));
    return d;
  }

  // Deterministic expiry on the n-th tick() (0-based): at_check(0) expires
  // on the very first tick, at_check(2) lets two ticks pass.  Test-oriented.
  static Deadline at_check(std::int64_t n) {
    Deadline d;
    d.expire_at_check_ = n;
    return d;
  }

  // Counts one budget probe and reports whether the deadline has passed.
  // Never throws; parallel workers use this to set a shared abort flag.
  bool tick() const {
    const std::int64_t seen = checks_.fetch_add(1, std::memory_order_relaxed);
    if (expire_at_check_ >= 0 && seen >= expire_at_check_) return true;
    return timed_ && std::chrono::steady_clock::now() >= at_;
  }

  // tick() + throw: stage boundaries in single-threaded control flow.
  void check(const char* stage) const {
    if (tick()) {
      throw DeadlineExceeded(std::string("deadline exceeded at ") + stage);
    }
  }

  std::int64_t ticks() const { return checks_.load(std::memory_order_relaxed); }

 private:
  std::chrono::steady_clock::time_point at_{};
  bool timed_ = false;
  std::int64_t expire_at_check_ = -1;
  mutable std::atomic<std::int64_t> checks_{0};
};

}  // namespace locmm
