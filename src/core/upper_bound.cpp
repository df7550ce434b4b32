#include "core/upper_bound.hpp"

#include <algorithm>
#include <limits>

#include "core/t_search.hpp"
#include "support/thread_pool.hpp"

namespace locmm {

// Defined in alt_tree.cpp; declared here to keep upper_bound.hpp free of the
// AltTree types (callers opt in through TSearchOptions::exact_lp).
double t_exact_lp(const SpecialFormInstance& sf, AgentId u, std::int32_t r);

double compute_t_single(const SpecialFormInstance& sf, AgentId u,
                        std::int32_t r, const TSearchOptions& opt) {
  LOCMM_CHECK(u >= 0 && u < sf.num_agents());
  return opt.exact_lp ? t_exact_lp(sf, u, r) : detail::bisect_t(sf, u, r, opt);
}

std::vector<double> compute_t_all(const SpecialFormInstance& sf,
                                  std::int32_t r, const TSearchOptions& opt,
                                  std::size_t threads) {
  std::vector<double> t(static_cast<std::size_t>(sf.num_agents()), 0.0);
  parallel_for(t.size(), threads, [&](std::size_t v) {
    t[v] = compute_t_single(sf, static_cast<AgentId>(v), r, opt);
  });
  return t;
}

FTables evaluate_f_global(const SpecialFormInstance& sf, std::int32_t r,
                          double omega) {
  const auto n = static_cast<std::size_t>(sf.num_agents());
  FTables ft;
  ft.plus.assign(static_cast<std::size_t>(r) + 1, std::vector<double>(n, 0.0));
  ft.minus.assign(static_cast<std::size_t>(r) + 1, std::vector<double>(n, 0.0));

  for (std::int32_t d = 0; d <= r; ++d) {
    const auto sd = static_cast<std::size_t>(d);
    if (d == 0) {
      for (std::size_t v = 0; v < n; ++v)
        ft.plus[0][v] = sf.inv_cap(static_cast<AgentId>(v));  // (5)
    } else {
      for (std::size_t v = 0; v < n; ++v) {
        double val = std::numeric_limits<double>::infinity();
        for (const ConstraintArc& arc : sf.arcs(static_cast<AgentId>(v))) {
          val = std::min(val, (1.0 - arc.a_partner *
                                         ft.minus[sd - 1][static_cast<std::size_t>(
                                             arc.partner)]) /
                                  arc.a_self);  // (7)
        }
        ft.plus[sd][v] = val;
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      double sum = 0.0;
      for (AgentId w : sf.siblings(static_cast<AgentId>(v)))
        sum += ft.plus[sd][static_cast<std::size_t>(w)];
      ft.minus[sd][v] = std::max(0.0, omega - sum);  // (6)
    }
  }
  return ft;
}

}  // namespace locmm
