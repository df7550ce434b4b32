#include "core/g_recursion.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "support/thread_pool.hpp"

namespace locmm {

GTables compute_g(const SpecialFormInstance& sf, const std::vector<double>& s,
                  std::int32_t r, std::size_t threads, TSearchStats* stats) {
  const auto n = static_cast<std::size_t>(sf.num_agents());
  LOCMM_CHECK(s.size() == n);
  LOCMM_CHECK(r >= 0);

  GTables g;
  g.plus.assign(static_cast<std::size_t>(r) + 1, std::vector<double>(n, 0.0));
  g.minus.assign(static_cast<std::size_t>(r) + 1, std::vector<double>(n, 0.0));

  for (std::int32_t d = 0; d <= r; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    if (d == 0) {
      parallel_for(n, threads, [&](std::size_t v) {
        g.plus[0][v] = sf.inv_cap(static_cast<AgentId>(v));  // (12)
      });
    } else {
      parallel_for(n, threads, [&](std::size_t v) {
        double val = std::numeric_limits<double>::infinity();
        for (const ConstraintArc& arc : sf.arcs(static_cast<AgentId>(v))) {
          val = std::min(
              val, (1.0 - arc.a_partner *
                              g.minus[sd - 1]
                                     [static_cast<std::size_t>(arc.partner)]) /
                       arc.a_self);  // (14)
        }
        g.plus[sd][v] = val;
      });
    }
    parallel_for(n, threads, [&](std::size_t v) {
      double sum = 0.0;
      for (AgentId w : sf.siblings(static_cast<AgentId>(v)))
        sum += g.plus[sd][static_cast<std::size_t>(w)];
      g.minus[sd][v] = std::max(0.0, s[v] - sum);  // (13)
    });
  }
  if (stats != nullptr) {
    stats->g_evals.fetch_add(2 * static_cast<std::int64_t>(n) * (r + 1),
                             std::memory_order_relaxed);
  }
  return g;
}

std::vector<double> output_x(const GTables& g, std::int32_t r) {
  LOCMM_CHECK(static_cast<std::size_t>(r) + 1 == g.plus.size());
  LOCMM_CHECK(g.plus.size() == g.minus.size());
  const std::size_t n = g.plus[0].size();
  const double two_R = 2.0 * static_cast<double>(r + 2);  // R = r + 2
  std::vector<double> x(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    double sum = 0.0;
    for (std::int32_t d = 0; d <= r; ++d) {
      const auto sd = static_cast<std::size_t>(d);
      sum += g.plus[sd][v] + g.minus[sd][v];
    }
    x[v] = sum / two_R;  // (18)
  }
  return x;
}

}  // namespace locmm
