#include "core/view_solver.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <unordered_map>
#include <utility>

#include "support/thread_pool.hpp"

namespace locmm {

std::int32_t view_radius(std::int32_t R) {
  LOCMM_CHECK(R >= 2);
  const std::int32_t r = R - 2;
  return 12 * r + 5;
}

namespace {

// Per-evaluation operation counters; flushed into the shared atomic
// TSearchStats once per agent so the hot loops stay contention-free.
struct LocalStats {
  std::int64_t f_evals = 0;
  std::int64_t g_evals = 0;
  std::int64_t t_searches = 0;
  std::int64_t t_checks = 0;
  std::int64_t omega_sweeps = 0;
  std::int64_t vector_sweeps = 0;

  void flush(TSearchStats* s, std::int64_t nodes) const {
    if (s == nullptr) return;
    s->f_evals.fetch_add(f_evals, std::memory_order_relaxed);
    s->g_evals.fetch_add(g_evals, std::memory_order_relaxed);
    s->t_searches.fetch_add(t_searches, std::memory_order_relaxed);
    s->t_checks.fetch_add(t_checks, std::memory_order_relaxed);
    s->omega_sweeps.fetch_add(omega_sweeps, std::memory_order_relaxed);
    s->vector_sweeps.fetch_add(vector_sweeps, std::memory_order_relaxed);
    s->view_nodes.fetch_add(nodes, std::memory_order_relaxed);
  }
};

// ===========================================================================
// Engine L / kNaive: literal transcription of the §5 recursions.
//
// Evaluates the algorithm for the root of one local view by re-expanding the
// f/g recursions on every call.  All methods address view-node indices;
// origins are never read.  Kept verbatim as the differential-testing oracle
// for the DP engine below.
// ===========================================================================
class ViewEvaluator {
 public:
  ViewEvaluator(const ViewTree& view, std::int32_t r,
                const TSearchOptions& opt, LocalStats* stats)
      : view_(view), r_(r), opt_(opt), stats_(stats) {}

  double x_root() {
    LOCMM_CHECK(view_.node(0).type == NodeType::kAgent);
    double sum = 0.0;
    for (std::int32_t d = 0; d <= r_; ++d) {
      sum += g_plus(0, d) + g_minus(0, d);
    }
    return sum / (2.0 * static_cast<double>(r_ + 2));  // (18), R = r + 2
  }

  double t_root() {
    LOCMM_CHECK(view_.node(0).type == NodeType::kAgent);
    return t_at(0);
  }

 private:
  // --- view topology helpers -------------------------------------------

  // min_{i in Iv} 1/a_iv from the view; requires all constraint ports of
  // `a` to be materialised.
  double inv_cap(std::int32_t a) {
    require_expanded(a);
    double cap = std::numeric_limits<double>::infinity();
    view_.for_each_neighbor(a, [&](std::int32_t, std::int32_t nbr,
                                   double coeff) {
      if (view_.node(nbr).type == NodeType::kConstraint)
        cap = std::min(cap, 1.0 / coeff);
    });
    return cap;
  }

  // The unique objective neighbour of agent `a`.
  std::int32_t objective_of(std::int32_t a) {
    require_expanded(a);
    std::int32_t k = -1;
    view_.for_each_neighbor(a, [&](std::int32_t, std::int32_t nbr, double) {
      if (view_.node(nbr).type == NodeType::kObjective) {
        LOCMM_CHECK_MSG(k < 0, "|Kv| != 1 in view (not special form)");
        k = nbr;
      }
    });
    LOCMM_CHECK_MSG(k >= 0, "agent without objective in view");
    return k;
  }

  // Calls fn(constraint_idx, a_self) per constraint neighbour, port order.
  template <typename Fn>
  void for_each_constraint(std::int32_t a, Fn&& fn) {
    require_expanded(a);
    view_.for_each_neighbor(a, [&](std::int32_t, std::int32_t nbr,
                                   double coeff) {
      if (view_.node(nbr).type == NodeType::kConstraint) fn(nbr, coeff);
    });
  }

  // Calls fn(sibling_idx) for the agents of objective `k` other than `a`,
  // in the objective's port order.
  template <typename Fn>
  void for_each_sibling(std::int32_t k, std::int32_t a, Fn&& fn) {
    require_expanded(k);
    view_.for_each_neighbor(k, [&](std::int32_t, std::int32_t nbr, double) {
      LOCMM_CHECK(view_.node(nbr).type == NodeType::kAgent);
      if (nbr != a) fn(nbr);
    });
  }

  // The other agent of constraint `c`, and its coefficient.
  void partner_of(std::int32_t c, std::int32_t a, std::int32_t& partner,
                  double& a_partner) {
    require_expanded(c);
    partner = -1;
    view_.for_each_neighbor(c, [&](std::int32_t, std::int32_t nbr,
                                   double coeff) {
      if (nbr != a) {
        LOCMM_CHECK_MSG(partner < 0, "|Vi| != 2 in view (not special form)");
        partner = nbr;
        a_partner = coeff;
      }
    });
    LOCMM_CHECK_MSG(partner >= 0, "constraint without partner in view");
  }

  void require_expanded(std::int32_t idx) {
    LOCMM_CHECK_MSG(view_.expanded(idx),
                    "evaluation reached the view frontier (depth "
                        << view_.node(idx).depth << " of " << view_.depth()
                        << "); view_radius() is too small");
  }

  // --- the f recursion and t (paper §5.1-§5.2) --------------------------

  double f_plus(std::int32_t a, std::int32_t d, double omega, bool& ok) {
    if (stats_ != nullptr) ++stats_->f_evals;
    double val;
    if (d == 0) {
      val = inv_cap(a);  // (5)
    } else {
      val = std::numeric_limits<double>::infinity();
      for_each_constraint(a, [&](std::int32_t c, double a_self) {
        std::int32_t p = -1;
        double a_partner = 0.0;
        partner_of(c, a, p, a_partner);
        val = std::min(val,
                       (1.0 - a_partner * f_minus(p, d - 1, omega, ok)) /
                           a_self);  // (7)
      });
    }
    if (!(val >= 0.0)) ok = false;  // condition (8)
    return val;
  }

  double f_minus(std::int32_t a, std::int32_t d, double omega, bool& ok) {
    if (stats_ != nullptr) ++stats_->f_evals;
    const std::int32_t k = objective_of(a);
    double sum = 0.0;
    for_each_sibling(k, a, [&](std::int32_t w) {
      sum += f_plus(w, d, omega, ok);
    });
    return std::max(0.0, omega - sum);  // (6)
  }

  // t at view-agent `a`: bisection on conditions (8)-(9); returns the
  // largest verified-feasible omega, exactly as engine C does.
  double t_at(std::int32_t a) {
    auto it = t_memo_.find(a);
    if (it != t_memo_.end()) return it->second;
    if (stats_ != nullptr) ++stats_->t_searches;

    const double cap = inv_cap(a);
    double hi = cap;
    for_each_sibling(objective_of(a), a,
                     [&](std::int32_t w) { hi += inv_cap(w); });

    auto check = [&](double omega) {
      if (stats_ != nullptr) ++stats_->t_checks;
      bool ok = true;
      const double fm = f_minus(a, r_, omega, ok);
      if (!(fm <= cap)) ok = false;  // condition (9)
      return ok;
    };

    double lo = 0.0;
    LOCMM_CHECK(check(0.0));
    double t;
    if (check(hi)) {
      t = hi;
    } else {
      const double eps = opt_.tol * std::max(1.0, hi);
      int iters = 0;
      while (hi - lo > eps && iters < opt_.max_iters) {
        const double mid = 0.5 * (lo + hi);
        if (check(mid)) {
          lo = mid;
        } else {
          hi = mid;
        }
        ++iters;
      }
      t = lo;
    }
    t_memo_.emplace(a, t);
    return t;
  }

  // --- smoothing (§5.3) --------------------------------------------------

  // s at view-agent `a`: min of t over view agents within tree distance
  // 4r+2 (= the radius-(4r+2) ball of the unfolding).
  double s_at(std::int32_t a) {
    auto it = s_memo_.find(a);
    if (it != s_memo_.end()) return it->second;

    double s = std::numeric_limits<double>::infinity();
    // Tree BFS from `a`; (node, parent-of-step) pairs avoid backtracking.
    std::vector<std::pair<std::int32_t, std::int32_t>> frontier{{a, -1}};
    std::vector<std::pair<std::int32_t, std::int32_t>> next;
    for (std::int32_t dist = 0; dist <= 4 * r_ + 2; ++dist) {
      for (const auto& [node, from] : frontier) {
        if (view_.node(node).type == NodeType::kAgent)
          s = std::min(s, t_at(node));
        if (dist == 4 * r_ + 2) continue;
        require_expanded(node);
        view_.for_each_neighbor(node, [&](std::int32_t, std::int32_t nbr,
                                          double) {
          if (nbr != from) next.emplace_back(nbr, node);
        });
      }
      frontier.swap(next);
      next.clear();
    }
    s_memo_.emplace(a, s);
    return s;
  }

  // --- the g recursion and output (§5.3) ---------------------------------

  double g_plus(std::int32_t a, std::int32_t d) {
    if (stats_ != nullptr) ++stats_->g_evals;
    if (d == 0) return inv_cap(a);  // (12)
    double val = std::numeric_limits<double>::infinity();
    for_each_constraint(a, [&](std::int32_t c, double a_self) {
      std::int32_t p = -1;
      double a_partner = 0.0;
      partner_of(c, a, p, a_partner);
      val = std::min(val, (1.0 - a_partner * g_minus(p, d - 1)) / a_self);
    });  // (14)
    return val;
  }

  double g_minus(std::int32_t a, std::int32_t d) {
    if (stats_ != nullptr) ++stats_->g_evals;
    const std::int32_t k = objective_of(a);
    double sum = 0.0;
    for_each_sibling(k, a, [&](std::int32_t w) { sum += g_plus(w, d); });
    return std::max(0.0, s_at(a) - sum);  // (13)
  }

  const ViewTree& view_;
  std::int32_t r_;
  TSearchOptions opt_;
  LocalStats* stats_;
  std::unordered_map<std::int32_t, double> t_memo_;
  std::unordered_map<std::int32_t, double> s_memo_;
};

}  // namespace

// ===========================================================================
// Engine L / kMemoizedDp: iterative bottom-up dynamic program over the
// *shared* structure of the unfolding.
//
// The truncated unfolding has up to Delta^(12r+5) nodes, but every quantity
// of the recursions (5)-(14) is position-independent (Example 2 of the
// paper): the neighbourhood of a view node -- and hence f±, g±, t, s at it
// -- is determined by the G-node it projects to (its origin), because ports
// and coefficients are inherited from G (Remarks 4-5 of §3).  The naive
// engine walks the view and therefore recomputes each (origin, depth) state
// astronomically many times, once per copy per probe; this engine keys
// every state by origin instead, collapsing the exponential view to the
// polynomial inner ball of G that the view actually projects.  All tables
// are flat vectors indexed by slot * (r+1) + d, where `slot` is a dense id
// assigned to each *touched* agent origin.  Per origin the shallowest view
// copy (ViewTree::representative, recorded during the BFS build) serves as
// the adjacency lookup point -- it is the most-expanded copy, so its
// neighbour list is exactly the origin's adjacency in G:
//
//   phase 1  mark the g-dependency cone of the root (which g±, s, t values
//            the output (18) reads), CHECK-ing view-frontier overruns where
//            the needed adjacency is not materialised;
//   phase 2  one BFS per s-needed agent over the reconstructed agent graph
//            (arc partners + siblings, 2r+1 steps = the radius-(4r+2)
//            comm-graph ball) collects the ball and the union of t-needed
//            agents;
//   phase 3  batched t-search: all needed agents bisect in lockstep;
//            searches whose next probe omega is bit-identical share a
//            single omega-table fill (one reverse-topological sweep over
//            depth-major buckets of the marked cone union).  Brackets are
//            per-agent and reproduce the naive bisection trajectory
//            bit-for-bit, so outputs are identical to the oracle.
//   phase 4  s = min t over each stored ball; one depth-major sweep fills
//            the g tables; (18) sums the root row.
//
// Adjacency is pre-sliced once per touched origin (constraint arcs with
// partner + both coefficients, sibling lists in port order), so the O(1)
// state updates read contiguous arrays instead of re-walking the view.
// Because every copy of an origin lists its neighbours in the origin's
// original port order, the min/sum reduction order -- and therefore every
// floating-point result -- is bit-identical to the naive engine's.
// ===========================================================================

namespace detail {

struct DpScratch {
  // SoA probe lanes: one reverse-topological sweep fills the f tables for
  // up to kLanes DISTINCT probe omegas at once, each omega occupying a
  // contiguous lane stripe (state-major, lane-minor: index
  // (slot * (r+1) + d) * kLanes + lane).  The per-state fmark bytes double
  // as lane masks -- bit l set means lane l's search cone needs the state
  // -- which is why kLanes is exactly 8.  Full-mask states (the common
  // case in fat views, where the lockstep bisections share their cones)
  // take a branch-free all-lane inner loop the compiler vectorizes; other
  // states fill only their marked lanes, so total f-work never exceeds the
  // one-sweep-per-omega baseline.
  static constexpr std::int32_t kLanes = 8;

  // --- origin-indexed, epoch-stamped (O(1) reset, grow-only) ------------
  // Entries are valid only when their epoch matches `epoch`; growth fills
  // epoch 0, which is never current.
  std::vector<std::int32_t> origin2slot;
  std::vector<std::uint32_t> slot_epoch;
  std::uint32_t epoch = 0;

  // --- slot-indexed (dense ids for touched agent origins) ---------------
  std::vector<std::int32_t> slot_origin;
  std::vector<std::uint8_t> slot_flags;
  std::vector<double> inv_cap;

  // Constraint arcs in port order: partner agent origin + both coefficients.
  std::vector<std::int64_t> arc_offsets;  // size slots+1
  std::vector<std::int32_t> arc_partner;
  std::vector<double> arc_a_self;
  std::vector<double> arc_a_partner;

  // Siblings (objective row minus self, as origins) in the objective's
  // port order.
  std::vector<std::int64_t> sib_offsets;  // size slots+1
  std::vector<std::int32_t> sib_origin;

  // --- flat (slot, depth) tables ----------------------------------------
  // f tables are lane-striped (see kLanes): index (slot*(r+1)+d)*kLanes+l.
  // The fmark bytes are per-state lane masks.  g tables stay single-lane
  // (one sweep total), index slot * (r+1) + d.
  std::vector<double> f_plus, f_minus;
  std::vector<std::uint8_t> fok_plus, fok_minus;  // condition-(8) cone flags
  std::vector<std::uint8_t> fmark_plus, fmark_minus;
  std::vector<double> g_plus, g_minus;
  std::vector<std::uint8_t> gmark_plus, gmark_minus;

  // --- per-slot t / s values --------------------------------------------
  std::vector<std::uint8_t> t_need;
  std::vector<double> t_val;
  std::vector<std::uint8_t> s_need;
  std::vector<double> s_val;

  // --- worklists and buckets --------------------------------------------
  std::vector<std::vector<std::int32_t>> fbucket_plus, fbucket_minus;
  std::vector<std::vector<std::int32_t>> gbucket_plus, gbucket_minus;
  std::vector<std::int32_t> s_list;  // slots needing s, discovery order
  std::vector<std::int32_t> t_list;  // slots needing t, discovery order
  std::vector<std::int64_t> ball_offsets;  // s_list-parallel slices into...
  std::vector<std::int32_t> ball_slots;    // ...the stored balls
  std::vector<std::uint8_t> in_ball;       // per-slot BFS visited marks
  std::vector<std::int32_t> bfs_cur, bfs_next;
  std::vector<std::pair<std::uint64_t, std::int32_t>> probes;

  struct TSearch {
    std::int32_t slot = -1;
    double cap = 0.0;
    double lo = 0.0;
    double hi = 0.0;
    double eps = 0.0;
    double result = 0.0;
    std::int32_t iters = 0;
    std::uint8_t stage = 0;  // 0: probe 0, 1: probe hi, 2: bisect, 3: done
  };
  std::vector<TSearch> searches;

  void reset(std::int32_t r) {
    ++epoch;
    if (epoch == 0) {  // wrapped: stale stamps could collide, wipe them
      slot_epoch.assign(slot_epoch.size(), 0);
      epoch = 1;
    }
    slot_origin.clear();
    slot_flags.clear();
    inv_cap.clear();
    arc_offsets.assign(1, 0);
    arc_partner.clear();
    arc_a_self.clear();
    arc_a_partner.clear();
    sib_offsets.assign(1, 0);
    sib_origin.clear();
    f_plus.clear();
    f_minus.clear();
    fok_plus.clear();
    fok_minus.clear();
    fmark_plus.clear();
    fmark_minus.clear();
    g_plus.clear();
    g_minus.clear();
    gmark_plus.clear();
    gmark_minus.clear();
    t_need.clear();
    t_val.clear();
    s_need.clear();
    s_val.clear();
    const auto depths = static_cast<std::size_t>(r) + 1;
    fbucket_plus.resize(depths);
    fbucket_minus.resize(depths);
    gbucket_plus.resize(depths);
    gbucket_minus.resize(depths);
    for (std::size_t d = 0; d < depths; ++d) {
      fbucket_plus[d].clear();
      fbucket_minus[d].clear();
      gbucket_plus[d].clear();
      gbucket_minus[d].clear();
    }
    s_list.clear();
    t_list.clear();
    ball_offsets.assign(1, 0);
    ball_slots.clear();
    in_ball.clear();
    probes.clear();
    searches.clear();
  }
};

}  // namespace detail

namespace {

class DpViewEvaluator {
  // slot_flags bits.
  static constexpr std::uint8_t kCapOk = 1u << 0;
  static constexpr std::uint8_t kArcsOk = 1u << 1;
  static constexpr std::uint8_t kSibsOk = 1u << 2;
  static constexpr std::uint8_t kArcsMalformed = 1u << 3;
  static constexpr std::uint8_t kSibsMalformed = 1u << 4;

  static constexpr std::int32_t kLanes = detail::DpScratch::kLanes;

 public:
  DpViewEvaluator(const ViewTree& view, std::int32_t r,
                  const TSearchOptions& opt, detail::DpScratch& sc,
                  LocalStats* stats)
      : view_(&view), r_(r), opt_(opt), sc_(sc), stats_(stats) {
    sc_.reset(r);
  }

  // Graph-backed construction: the same DP driven straight off the comm
  // graph, no materialised view.  Sound and BITWISE
  // identical to the view-backed run because the DP is origin-keyed
  // throughout (slot_of collapses every view copy to its origin already)
  // and a view's adjacency slices are exactly the graph rows in port order
  // -- the view build only ever re-serialises them.  Skipping the unfold
  // removes the dominant cost on fat views, where the radius-(12r+5) tree
  // holds orders of magnitude more copies than the graph ball has origins.
  DpViewEvaluator(const CommGraph& g, NodeId root, std::int32_t r,
                  const TSearchOptions& opt, detail::DpScratch& sc,
                  LocalStats* stats)
      : view_(nullptr), g_(&g), groot_(root), r_(r), opt_(opt), sc_(sc),
        stats_(stats) {
    sc_.reset(r);
  }

  // The output rule (18) for the root agent.
  double x_root() {
    const std::int32_t root = root_slot();
    for (std::int32_t d = 0; d <= r_; ++d) {
      mark_g_plus(root, d);
      mark_g_minus(root, d);
    }
    run_smoothing_and_t();
    fill_g_tables();
    double sum = 0.0;
    const std::int64_t row = static_cast<std::int64_t>(root) * (r_ + 1);
    for (std::int32_t d = 0; d <= r_; ++d) {
      sum += sc_.g_plus[static_cast<std::size_t>(row + d)] +
             sc_.g_minus[static_cast<std::size_t>(row + d)];
    }
    return sum / (2.0 * static_cast<double>(r_ + 2));  // (18), R = r + 2
  }

  double t_root() {
    const std::int32_t root = root_slot();
    if (!sc_.t_need[static_cast<std::size_t>(root)]) {
      sc_.t_need[static_cast<std::size_t>(root)] = 1;
      sc_.t_list.push_back(root);
    }
    run_t_searches();
    return sc_.t_val[static_cast<std::size_t>(root)];
  }

 private:
  // --- slots and adjacency slices ---------------------------------------

  std::int32_t root_slot() {
    if (g_ != nullptr) {
      LOCMM_CHECK(g_->type(groot_) == NodeType::kAgent);
      return slot_of(groot_);
    }
    LOCMM_CHECK(view_->node(0).type == NodeType::kAgent);
    return slot_of(view_->node(0).origin);
  }

  std::int32_t slot_of(NodeId origin) {
    const auto o = static_cast<std::size_t>(origin);
    if (o < sc_.origin2slot.size() && sc_.slot_epoch[o] == sc_.epoch)
      return sc_.origin2slot[o];
    return create_slot(origin);
  }

  // The shallowest (most-expanded) copy of `origin`, or -1 when the origin
  // never appears in the view.  Constraint/objective nodes adjacent to an
  // expanded agent copy always appear, so -1 only arises past the frontier.
  // View-backed mode only.
  std::int32_t rep_of(NodeId origin) const {
    return view_->representative(origin);
  }

  std::int32_t create_slot(NodeId origin) {
    const auto slot = static_cast<std::int32_t>(sc_.slot_origin.size());
    const auto o = static_cast<std::size_t>(origin);
    if (o >= sc_.origin2slot.size()) {
      sc_.origin2slot.resize(o + 1);
      sc_.slot_epoch.resize(o + 1, 0);
    }
    sc_.origin2slot[o] = slot;
    sc_.slot_epoch[o] = sc_.epoch;
    sc_.slot_origin.push_back(origin);

    std::uint8_t flags = 0;
    double cap = std::numeric_limits<double>::infinity();
    if (g_ != nullptr) {
      harvest_graph(origin, flags, cap);
    } else {
      harvest_view(origin, flags, cap);
    }

    sc_.arc_offsets.push_back(static_cast<std::int64_t>(sc_.arc_partner.size()));
    sc_.sib_offsets.push_back(static_cast<std::int64_t>(sc_.sib_origin.size()));
    sc_.slot_flags.push_back(flags);
    sc_.inv_cap.push_back(cap);

    const auto rows = (static_cast<std::size_t>(slot) + 1) *
                      (static_cast<std::size_t>(r_) + 1);
    const auto lane_rows = rows * static_cast<std::size_t>(kLanes);
    sc_.f_plus.resize(lane_rows);
    sc_.f_minus.resize(lane_rows);
    sc_.fok_plus.resize(lane_rows, 0);
    sc_.fok_minus.resize(lane_rows, 0);
    sc_.fmark_plus.resize(rows, 0);
    sc_.fmark_minus.resize(rows, 0);
    sc_.g_plus.resize(rows);
    sc_.g_minus.resize(rows);
    sc_.gmark_plus.resize(rows, 0);
    sc_.gmark_minus.resize(rows, 0);
    sc_.t_need.push_back(0);
    sc_.t_val.push_back(0.0);
    sc_.s_need.push_back(0);
    sc_.s_val.push_back(0.0);
    return slot;
  }

  // Harvests the slot's cap / arc / sibling slices from the materialised
  // view (the shallowest copy of `origin`).
  void harvest_view(NodeId origin, std::uint8_t& flags, double& cap) {
    const std::int32_t a = rep_of(origin);
    LOCMM_DCHECK(a >= 0 && view_->node(a).type == NodeType::kAgent);
    std::int32_t objective = -1;
    bool multi_objective = false;
    bool arcs_frontier = false, arcs_malformed = false;

    if (!view_->expanded(a)) return;
    flags |= kCapOk;
    const auto ids = view_->neighbor_ids(a);
    const auto coeffs = view_->neighbor_coeffs(a);
    for (std::size_t p = 0; p < ids.size(); ++p) {
      const std::int32_t nbr = ids[p];
      if (view_->node(nbr).type == NodeType::kConstraint) {
        cap = std::min(cap, 1.0 / coeffs[p]);
        // Any expanded copy of the constraint exposes both endpoints;
        // prefer the shallowest.
        const std::int32_t c = rep_of(view_->node(nbr).origin);
        LOCMM_DCHECK(c >= 0);
        if (!view_->expanded(c)) {
          arcs_frontier = true;
          continue;
        }
        // The unique partner agent of this |Vi| = 2 constraint.
        NodeId partner = -1;
        double a_partner = 0.0;
        const auto cids = view_->neighbor_ids(c);
        const auto ccoeffs = view_->neighbor_coeffs(c);
        for (std::size_t q = 0; q < cids.size(); ++q) {
          if (view_->node(cids[q]).origin == origin) continue;
          if (partner >= 0) {
            arcs_malformed = true;
            break;
          }
          partner = view_->node(cids[q]).origin;
          a_partner = ccoeffs[q];
        }
        if (partner < 0) arcs_malformed = true;
        if (!arcs_malformed) {
          sc_.arc_partner.push_back(partner);
          sc_.arc_a_self.push_back(coeffs[p]);
          sc_.arc_a_partner.push_back(a_partner);
        }
      } else if (view_->node(nbr).type == NodeType::kObjective) {
        if (objective >= 0) {
          multi_objective = true;
        } else {
          objective = rep_of(view_->node(nbr).origin);
          LOCMM_DCHECK(objective >= 0);
        }
      }
    }
    if (!arcs_frontier && !arcs_malformed) flags |= kArcsOk;
    if (arcs_malformed) flags |= kArcsMalformed;

    if (objective < 0 || multi_objective) {
      flags |= kSibsMalformed;
    } else if (view_->expanded(objective)) {
      bool sibs_malformed = false;
      for (const std::int32_t w : view_->neighbor_ids(objective)) {
        if (view_->node(w).type != NodeType::kAgent) {
          sibs_malformed = true;
          break;
        }
        if (view_->node(w).origin != origin)
          sc_.sib_origin.push_back(view_->node(w).origin);
      }
      if (sibs_malformed) {
        flags |= kSibsMalformed;
      } else {
        flags |= kSibsOk;
      }
    }
  }

  // The graph-backed twin of harvest_view: identical slice contents in
  // identical (port) order -- a view copy's neighbour list IS the graph row
  // of its origin, re-serialised by the unfold -- so every downstream value
  // lands bitwise the same.  A graph slot is never a frontier: every flag
  // is decided here and fail_frontier stays unreachable in graph mode.
  void harvest_graph(NodeId origin, std::uint8_t& flags, double& cap) {
    LOCMM_DCHECK(g_->type(origin) == NodeType::kAgent);
    flags |= kCapOk;
    NodeId objective = -1;
    bool multi_objective = false;
    bool arcs_malformed = false;
    for (const HalfEdge& e : g_->neighbors(origin)) {
      if (g_->type(e.to) == NodeType::kConstraint) {
        cap = std::min(cap, 1.0 / e.coeff);
        // The unique partner agent of this |Vi| = 2 constraint.
        NodeId partner = -1;
        double a_partner = 0.0;
        for (const HalfEdge& ce : g_->neighbors(e.to)) {
          if (ce.to == origin) continue;
          if (partner >= 0) {
            arcs_malformed = true;
            break;
          }
          partner = ce.to;
          a_partner = ce.coeff;
        }
        if (partner < 0) arcs_malformed = true;
        if (!arcs_malformed) {
          sc_.arc_partner.push_back(partner);
          sc_.arc_a_self.push_back(e.coeff);
          sc_.arc_a_partner.push_back(a_partner);
        }
      } else if (g_->type(e.to) == NodeType::kObjective) {
        if (objective >= 0) {
          multi_objective = true;
        } else {
          objective = e.to;
        }
      }
    }
    if (!arcs_malformed) flags |= kArcsOk;
    if (arcs_malformed) flags |= kArcsMalformed;

    if (objective < 0 || multi_objective) {
      flags |= kSibsMalformed;
    } else {
      bool sibs_malformed = false;
      for (const HalfEdge& oe : g_->neighbors(objective)) {
        if (g_->type(oe.to) != NodeType::kAgent) {
          sibs_malformed = true;
          break;
        }
        if (oe.to != origin) sc_.sib_origin.push_back(oe.to);
      }
      if (sibs_malformed) {
        flags |= kSibsMalformed;
      } else {
        flags |= kSibsOk;
      }
    }
  }

  void fail_frontier(std::int32_t slot) {
    LOCMM_CHECK(view_ != nullptr);  // graph slots are never frontiers
    const std::int32_t node =
        rep_of(sc_.slot_origin[static_cast<std::size_t>(slot)]);
    LOCMM_CHECK_MSG(false, "evaluation reached the view frontier (depth "
                               << (node >= 0 ? view_->node(node).depth : -1)
                               << " of " << view_->depth()
                               << "); view_radius() is too small");
  }

  void use_cap(std::int32_t slot) {
    if (!(sc_.slot_flags[static_cast<std::size_t>(slot)] & kCapOk))
      fail_frontier(slot);
  }

  void use_arcs(std::int32_t slot) {
    const std::uint8_t flags = sc_.slot_flags[static_cast<std::size_t>(slot)];
    if (flags & kArcsOk) return;
    LOCMM_CHECK_MSG(!(flags & kArcsMalformed),
                    "|Vi| != 2 in view (not special form)");
    fail_frontier(slot);
  }

  void use_sibs(std::int32_t slot) {
    const std::uint8_t flags = sc_.slot_flags[static_cast<std::size_t>(slot)];
    if (flags & kSibsOk) return;
    LOCMM_CHECK_MSG(!(flags & kSibsMalformed),
                    "|Kv| != 1 in view (not special form)");
    fail_frontier(slot);
  }

  std::int64_t at(std::int32_t slot, std::int32_t d) const {
    return static_cast<std::int64_t>(slot) * (r_ + 1) + d;
  }

  // --- phase 1: mark the g-dependency cone of the root ------------------

  void mark_g_plus(std::int32_t slot, std::int32_t d) {
    auto& mark = sc_.gmark_plus[static_cast<std::size_t>(at(slot, d))];
    if (mark) return;
    mark = 1;
    sc_.gbucket_plus[static_cast<std::size_t>(d)].push_back(slot);
    if (d == 0) {
      use_cap(slot);  // (12)
      return;
    }
    use_arcs(slot);  // (14) reads every incident constraint's partner
    for (std::int64_t j = sc_.arc_offsets[static_cast<std::size_t>(slot)];
         j < sc_.arc_offsets[static_cast<std::size_t>(slot) + 1]; ++j) {
      mark_g_minus(slot_of(sc_.arc_partner[static_cast<std::size_t>(j)]),
                   d - 1);
    }
  }

  void mark_g_minus(std::int32_t slot, std::int32_t d) {
    auto& mark = sc_.gmark_minus[static_cast<std::size_t>(at(slot, d))];
    if (mark) return;
    mark = 1;
    sc_.gbucket_minus[static_cast<std::size_t>(d)].push_back(slot);
    if (!sc_.s_need[static_cast<std::size_t>(slot)]) {  // (13) reads s_v
      sc_.s_need[static_cast<std::size_t>(slot)] = 1;
      sc_.s_list.push_back(slot);
    }
    use_sibs(slot);
    for (std::int64_t j = sc_.sib_offsets[static_cast<std::size_t>(slot)];
         j < sc_.sib_offsets[static_cast<std::size_t>(slot) + 1]; ++j) {
      mark_g_plus(slot_of(sc_.sib_origin[static_cast<std::size_t>(j)]), d);
    }
  }

  // --- phase 2: smoothing balls and the t-needed set --------------------

  // One BFS per s-needed agent over the reconstructed agent graph (arc
  // partners and siblings, i.e. 2 comm-graph hops per step): 2r+1 steps
  // reach exactly the agents of the radius-(4r+2) comm-graph ball, whose
  // origin set equals the unfolding ball of §5.3 (shortest paths never
  // backtrack).  Stores the ball (for the min in phase 4) and adds its
  // agents to the union of t-needed agents.
  void collect_smoothing_balls() {
    const std::int32_t steps = 2 * r_ + 1;
    for (const std::int32_t a : sc_.s_list) {
      const auto ball_begin = static_cast<std::size_t>(sc_.ball_slots.size());
      sc_.bfs_cur.assign(1, a);
      visit_ball(a);
      for (std::int32_t dist = 0; dist <= steps; ++dist) {
        for (const std::int32_t slot : sc_.bfs_cur) {
          if (dist == steps) continue;
          // Expanding needs the slot's full agent adjacency.
          use_arcs(slot);
          use_sibs(slot);
          for (std::int64_t j =
                   sc_.arc_offsets[static_cast<std::size_t>(slot)];
               j < sc_.arc_offsets[static_cast<std::size_t>(slot) + 1]; ++j) {
            const std::int32_t nbr =
                slot_of(sc_.arc_partner[static_cast<std::size_t>(j)]);
            if (visit_ball(nbr)) sc_.bfs_next.push_back(nbr);
          }
          for (std::int64_t j =
                   sc_.sib_offsets[static_cast<std::size_t>(slot)];
               j < sc_.sib_offsets[static_cast<std::size_t>(slot) + 1]; ++j) {
            const std::int32_t nbr =
                slot_of(sc_.sib_origin[static_cast<std::size_t>(j)]);
            if (visit_ball(nbr)) sc_.bfs_next.push_back(nbr);
          }
        }
        sc_.bfs_cur.swap(sc_.bfs_next);
        sc_.bfs_next.clear();
      }
      // Reset the visited marks via the collected ball (O(ball)).
      for (std::size_t j = ball_begin; j < sc_.ball_slots.size(); ++j)
        sc_.in_ball[static_cast<std::size_t>(sc_.ball_slots[j])] = 0;
      sc_.ball_offsets.push_back(
          static_cast<std::int64_t>(sc_.ball_slots.size()));
    }
  }

  // Marks `slot` as a member of the current ball; returns true on first
  // visit.  Also adds it to the t-needed union.
  bool visit_ball(std::int32_t slot) {
    if (sc_.in_ball.size() < sc_.slot_origin.size())
      sc_.in_ball.resize(sc_.slot_origin.size(), 0);
    if (sc_.in_ball[static_cast<std::size_t>(slot)]) return false;
    sc_.in_ball[static_cast<std::size_t>(slot)] = 1;
    sc_.ball_slots.push_back(slot);
    if (!sc_.t_need[static_cast<std::size_t>(slot)]) {
      sc_.t_need[static_cast<std::size_t>(slot)] = 1;
      sc_.t_list.push_back(slot);
    }
    return true;
  }

  // --- phase 3: batched t-search ----------------------------------------

  // Initialises one bisection per t-needed agent; the search bracket and
  // probe sequence are exactly the naive engine's, so results agree
  // bit-for-bit.  hi = sum of inv_cap over the objective row, own term
  // first (matching SpecialFormInstance::t_search_upper).
  void run_t_searches() {
    sc_.searches.clear();
    sc_.searches.reserve(sc_.t_list.size());
    for (const std::int32_t slot : sc_.t_list) {
      detail::DpScratch::TSearch ts;
      ts.slot = slot;
      use_cap(slot);
      ts.cap = sc_.inv_cap[static_cast<std::size_t>(slot)];
      double hi = ts.cap;
      use_sibs(slot);
      for (std::int64_t j = sc_.sib_offsets[static_cast<std::size_t>(slot)];
           j < sc_.sib_offsets[static_cast<std::size_t>(slot) + 1]; ++j) {
        const std::int32_t ws =
            slot_of(sc_.sib_origin[static_cast<std::size_t>(j)]);
        use_cap(ws);
        hi += sc_.inv_cap[static_cast<std::size_t>(ws)];
      }
      ts.hi = hi;
      ts.eps = opt_.tol * std::max(1.0, hi);
      sc_.searches.push_back(ts);
    }
    if (stats_ != nullptr)
      stats_->t_searches += static_cast<std::int64_t>(sc_.searches.size());

    std::size_t remaining = sc_.searches.size();
    while (remaining > 0) {
      // Group the active searches by the bit pattern of their next probe:
      // every group shares one omega-table fill, and up to kLanes DISTINCT
      // omegas batch into one SoA sweep.
      sc_.probes.clear();
      for (std::size_t i = 0; i < sc_.searches.size(); ++i) {
        const auto& ts = sc_.searches[i];
        if (ts.stage == 3) continue;
        const double omega = ts.stage == 0   ? 0.0
                             : ts.stage == 1 ? ts.hi
                                             : 0.5 * (ts.lo + ts.hi);
        sc_.probes.emplace_back(std::bit_cast<std::uint64_t>(omega),
                                static_cast<std::int32_t>(i));
      }
      std::sort(sc_.probes.begin(), sc_.probes.end());
      std::size_t i = 0;
      while (i < sc_.probes.size()) {
        double lane_omega[kLanes];
        std::size_t lane_begin[kLanes + 1];
        std::int32_t lanes = 0;
        while (i < sc_.probes.size() && lanes < kLanes) {
          lane_begin[lanes] = i;
          lane_omega[lanes] = std::bit_cast<double>(sc_.probes[i].first);
          std::size_t j = i;
          while (j < sc_.probes.size() &&
                 sc_.probes[j].first == sc_.probes[i].first) {
            ++j;
          }
          ++lanes;
          i = j;
        }
        lane_begin[lanes] = i;
        sweep_f(lane_omega, lane_begin, lanes);
        for (std::int32_t l = 0; l < lanes; ++l) {
          for (std::size_t m = lane_begin[l]; m < lane_begin[l + 1]; ++m) {
            auto& ts =
                sc_.searches[static_cast<std::size_t>(sc_.probes[m].second)];
            const std::int64_t root = at(ts.slot, r_) * kLanes + l;
            const bool ok =
                sc_.fok_minus[static_cast<std::size_t>(root)] != 0 &&
                sc_.f_minus[static_cast<std::size_t>(root)] <= ts.cap;  // (9)
            if (advance(ts, lane_omega[l], ok)) --remaining;
          }
        }
      }
    }
    for (const auto& ts : sc_.searches)
      sc_.t_val[static_cast<std::size_t>(ts.slot)] = ts.result;
  }

  // One bisection step; returns true when the search just finished.  The
  // stage machine reproduces the naive t_at() control flow exactly:
  // check(0) must pass, check(hi) short-circuits, then standard bisection
  // on [lo, hi] with the tolerance/iteration budget of TSearchOptions.
  bool advance(detail::DpScratch::TSearch& ts, double omega, bool ok) {
    if (stats_ != nullptr) ++stats_->t_checks;
    switch (ts.stage) {
      case 0:
        LOCMM_CHECK_MSG(ok, "omega = 0 must satisfy conditions (8)-(9)");
        ts.stage = 1;
        return false;
      case 1:
        if (ok) {
          ts.result = ts.hi;
          ts.stage = 3;
          return true;
        }
        break;
      default:
        if (ok) {
          ts.lo = omega;
        } else {
          ts.hi = omega;
        }
        ++ts.iters;
        break;
    }
    if (ts.hi - ts.lo > ts.eps && ts.iters < opt_.max_iters) {
      ts.stage = 2;
      return false;
    }
    ts.result = ts.lo;
    ts.stage = 3;
    return true;
  }

  // Fills the f±/fok tables for up to kLanes distinct omegas in ONE
  // reverse-topological sweep (SoA batching): lane l holds omega
  // lane_omega[l], whose searches sit in probes[lane_begin[l],
  // lane_begin[l+1]).  A marking pass gathers each lane's dependency cone
  // into the shared depth-major buckets, recording per-state LANE MASKS in
  // the fmark bytes (bit l = lane l needs this state).  The fill then walks
  // each bucketed state once: full-mask states take the branch-free
  // all-lane loop (contiguous stripes of kLanes doubles -- the compiler's
  // vectorization target), partial-mask states fill only their marked
  // lanes.  Per-lane floating-point op order is IDENTICAL to the scalar
  // single-omega sweep, so results are bitwise unchanged, and total f-work
  // equals the sum of the per-omega cones -- batching never inflates it.
  void sweep_f(const double* lane_omega, const std::size_t* lane_begin,
               std::int32_t lanes) {
    if (stats_ != nullptr) {
      stats_->omega_sweeps += lanes;  // per-distinct-omega semantics
      if (lanes >= 2) ++stats_->vector_sweeps;
    }
    for (std::int32_t l = 0; l < lanes; ++l) {
      const auto bit = static_cast<std::uint8_t>(1u << l);
      for (std::size_t m = lane_begin[l]; m < lane_begin[l + 1]; ++m) {
        mark_f_minus(
            sc_.searches[static_cast<std::size_t>(sc_.probes[m].second)].slot,
            r_, bit);
      }
    }
    const auto full =
        static_cast<std::uint8_t>((1u << lanes) - 1u);  // all-lane mask
    std::int64_t evals = 0;
    for (std::int32_t d = 0; d <= r_; ++d) {
      auto& plus_bucket = sc_.fbucket_plus[static_cast<std::size_t>(d)];
      for (const std::int32_t s : plus_bucket) {
        const std::uint8_t mask =
            sc_.fmark_plus[static_cast<std::size_t>(at(s, d))];
        const std::int64_t base = at(s, d) * kLanes;
        evals += std::popcount(static_cast<unsigned>(mask));
        if (d == 0) {
          const double val = sc_.inv_cap[static_cast<std::size_t>(s)];  // (5)
          const std::uint8_t ok = val >= 0.0 ? 1 : 0;  // condition (8)
          for (std::int32_t l = 0; l < lanes; ++l) {
            sc_.f_plus[static_cast<std::size_t>(base + l)] = val;
            sc_.fok_plus[static_cast<std::size_t>(base + l)] = ok;
          }
          continue;
        }
        if (mask == full) {
          // All lanes need this state: one pass over the arcs, a stripe of
          // lanes per arc -- the vectorizable hot path.
          double vals[kLanes];
          std::uint8_t oks[kLanes];
          for (std::int32_t l = 0; l < lanes; ++l) {
            vals[l] = std::numeric_limits<double>::infinity();
            oks[l] = 1;
          }
          for (std::int64_t j = sc_.arc_offsets[static_cast<std::size_t>(s)];
               j < sc_.arc_offsets[static_cast<std::size_t>(s) + 1]; ++j) {
            const std::int32_t ps =
                sc_.origin2slot[static_cast<std::size_t>(
                    sc_.arc_partner[static_cast<std::size_t>(j)])];
            const std::int64_t depb = at(ps, d - 1) * kLanes;
            const double ap =
                sc_.arc_a_partner[static_cast<std::size_t>(j)];
            const double as = sc_.arc_a_self[static_cast<std::size_t>(j)];
            for (std::int32_t l = 0; l < lanes; ++l) {
              oks[l] &= sc_.fok_minus[static_cast<std::size_t>(depb + l)];
              vals[l] = std::min(
                  vals[l],
                  (1.0 -
                   ap * sc_.f_minus[static_cast<std::size_t>(depb + l)]) /
                      as);  // (7)
            }
          }
          for (std::int32_t l = 0; l < lanes; ++l) {
            if (!(vals[l] >= 0.0)) oks[l] = 0;  // condition (8)
            sc_.f_plus[static_cast<std::size_t>(base + l)] = vals[l];
            sc_.fok_plus[static_cast<std::size_t>(base + l)] = oks[l];
          }
          continue;
        }
        // Partial mask: scalar chain per marked lane (same arc order).
        for (std::int32_t l = 0; l < lanes; ++l) {
          if ((mask & (1u << l)) == 0) continue;
          double val = std::numeric_limits<double>::infinity();
          std::uint8_t ok = 1;
          for (std::int64_t j = sc_.arc_offsets[static_cast<std::size_t>(s)];
               j < sc_.arc_offsets[static_cast<std::size_t>(s) + 1]; ++j) {
            const std::int32_t ps =
                sc_.origin2slot[static_cast<std::size_t>(
                    sc_.arc_partner[static_cast<std::size_t>(j)])];
            const std::int64_t dep = at(ps, d - 1) * kLanes + l;
            ok &= sc_.fok_minus[static_cast<std::size_t>(dep)];
            val = std::min(
                val, (1.0 - sc_.arc_a_partner[static_cast<std::size_t>(j)] *
                                sc_.f_minus[static_cast<std::size_t>(dep)]) /
                         sc_.arc_a_self[static_cast<std::size_t>(j)]);  // (7)
          }
          if (!(val >= 0.0)) ok = 0;  // condition (8)
          sc_.f_plus[static_cast<std::size_t>(base + l)] = val;
          sc_.fok_plus[static_cast<std::size_t>(base + l)] = ok;
        }
      }
      auto& minus_bucket = sc_.fbucket_minus[static_cast<std::size_t>(d)];
      for (const std::int32_t s : minus_bucket) {
        const std::uint8_t mask =
            sc_.fmark_minus[static_cast<std::size_t>(at(s, d))];
        const std::int64_t base = at(s, d) * kLanes;
        evals += std::popcount(static_cast<unsigned>(mask));
        if (mask == full) {
          double sums[kLanes];
          std::uint8_t oks[kLanes];
          for (std::int32_t l = 0; l < lanes; ++l) {
            sums[l] = 0.0;
            oks[l] = 1;
          }
          for (std::int64_t j = sc_.sib_offsets[static_cast<std::size_t>(s)];
               j < sc_.sib_offsets[static_cast<std::size_t>(s) + 1]; ++j) {
            const std::int32_t ws = sc_.origin2slot[static_cast<std::size_t>(
                sc_.sib_origin[static_cast<std::size_t>(j)])];
            const std::int64_t depb = at(ws, d) * kLanes;
            for (std::int32_t l = 0; l < lanes; ++l) {
              sums[l] += sc_.f_plus[static_cast<std::size_t>(depb + l)];
              oks[l] &= sc_.fok_plus[static_cast<std::size_t>(depb + l)];
            }
          }
          for (std::int32_t l = 0; l < lanes; ++l) {
            sc_.f_minus[static_cast<std::size_t>(base + l)] =
                std::max(0.0, lane_omega[l] - sums[l]);  // (6)
            sc_.fok_minus[static_cast<std::size_t>(base + l)] = oks[l];
          }
          continue;
        }
        for (std::int32_t l = 0; l < lanes; ++l) {
          if ((mask & (1u << l)) == 0) continue;
          double sum = 0.0;
          std::uint8_t ok = 1;
          for (std::int64_t j = sc_.sib_offsets[static_cast<std::size_t>(s)];
               j < sc_.sib_offsets[static_cast<std::size_t>(s) + 1]; ++j) {
            const std::int32_t ws = sc_.origin2slot[static_cast<std::size_t>(
                sc_.sib_origin[static_cast<std::size_t>(j)])];
            const std::int64_t dep = at(ws, d) * kLanes + l;
            sum += sc_.f_plus[static_cast<std::size_t>(dep)];
            ok &= sc_.fok_plus[static_cast<std::size_t>(dep)];
          }
          sc_.f_minus[static_cast<std::size_t>(base + l)] =
              std::max(0.0, lane_omega[l] - sum);  // (6)
          sc_.fok_minus[static_cast<std::size_t>(base + l)] = ok;
        }
      }
    }
    if (stats_ != nullptr) stats_->f_evals += evals;
    // Unmark via the buckets (O(touched), not O(table)).
    for (std::int32_t d = 0; d <= r_; ++d) {
      for (const std::int32_t s : sc_.fbucket_plus[static_cast<std::size_t>(d)])
        sc_.fmark_plus[static_cast<std::size_t>(at(s, d))] = 0;
      for (const std::int32_t s :
           sc_.fbucket_minus[static_cast<std::size_t>(d)])
        sc_.fmark_minus[static_cast<std::size_t>(at(s, d))] = 0;
      sc_.fbucket_plus[static_cast<std::size_t>(d)].clear();
      sc_.fbucket_minus[static_cast<std::size_t>(d)].clear();
    }
  }

  // Marks state (slot, d, ±) as needed by lane `bit` and recurses into its
  // dependencies.  A state enters its bucket on FIRST marking only; later
  // lanes just OR their bit in, but must still recurse -- their cone may
  // extend past states another lane already marked.
  void mark_f_plus(std::int32_t slot, std::int32_t d, std::uint8_t bit) {
    auto& mark = sc_.fmark_plus[static_cast<std::size_t>(at(slot, d))];
    if (mark & bit) return;
    if (mark == 0) sc_.fbucket_plus[static_cast<std::size_t>(d)].push_back(slot);
    mark |= bit;
    if (d == 0) {
      use_cap(slot);
      return;
    }
    use_arcs(slot);
    for (std::int64_t j = sc_.arc_offsets[static_cast<std::size_t>(slot)];
         j < sc_.arc_offsets[static_cast<std::size_t>(slot) + 1]; ++j) {
      mark_f_minus(slot_of(sc_.arc_partner[static_cast<std::size_t>(j)]),
                   d - 1, bit);
    }
  }

  void mark_f_minus(std::int32_t slot, std::int32_t d, std::uint8_t bit) {
    auto& mark = sc_.fmark_minus[static_cast<std::size_t>(at(slot, d))];
    if (mark & bit) return;
    if (mark == 0)
      sc_.fbucket_minus[static_cast<std::size_t>(d)].push_back(slot);
    mark |= bit;
    use_sibs(slot);
    for (std::int64_t j = sc_.sib_offsets[static_cast<std::size_t>(slot)];
         j < sc_.sib_offsets[static_cast<std::size_t>(slot) + 1]; ++j) {
      mark_f_plus(slot_of(sc_.sib_origin[static_cast<std::size_t>(j)]), d, bit);
    }
  }

  // --- phase 4: s values and the g tables -------------------------------

  void run_smoothing_and_t() {
    collect_smoothing_balls();
    run_t_searches();
    // s_v = min t over the stored radius-(4r+2) ball (§5.3).
    for (std::size_t i = 0; i < sc_.s_list.size(); ++i) {
      double s = std::numeric_limits<double>::infinity();
      for (std::int64_t j = sc_.ball_offsets[i]; j < sc_.ball_offsets[i + 1];
           ++j) {
        s = std::min(
            s, sc_.t_val[static_cast<std::size_t>(
                   sc_.ball_slots[static_cast<std::size_t>(j)])]);
      }
      sc_.s_val[static_cast<std::size_t>(sc_.s_list[i])] = s;
    }
  }

  // One bottom-up sweep over the marked g states: d ascending, g+ before
  // g- (exactly the dependency order of (12)-(14)).
  void fill_g_tables() {
    std::int64_t evals = 0;
    for (std::int32_t d = 0; d <= r_; ++d) {
      auto& plus_bucket = sc_.gbucket_plus[static_cast<std::size_t>(d)];
      for (const std::int32_t s : plus_bucket) {
        double val;
        if (d == 0) {
          val = sc_.inv_cap[static_cast<std::size_t>(s)];  // (12)
        } else {
          val = std::numeric_limits<double>::infinity();
          for (std::int64_t j = sc_.arc_offsets[static_cast<std::size_t>(s)];
               j < sc_.arc_offsets[static_cast<std::size_t>(s) + 1]; ++j) {
            const std::int32_t ps =
                sc_.origin2slot[static_cast<std::size_t>(
                    sc_.arc_partner[static_cast<std::size_t>(j)])];
            val = std::min(
                val, (1.0 - sc_.arc_a_partner[static_cast<std::size_t>(j)] *
                                sc_.g_minus[static_cast<std::size_t>(
                                    at(ps, d - 1))]) /
                         sc_.arc_a_self[static_cast<std::size_t>(j)]);  // (14)
          }
        }
        sc_.g_plus[static_cast<std::size_t>(at(s, d))] = val;
      }
      auto& minus_bucket = sc_.gbucket_minus[static_cast<std::size_t>(d)];
      for (const std::int32_t s : minus_bucket) {
        double sum = 0.0;
        for (std::int64_t j = sc_.sib_offsets[static_cast<std::size_t>(s)];
             j < sc_.sib_offsets[static_cast<std::size_t>(s) + 1]; ++j) {
          const std::int32_t ws = sc_.origin2slot[static_cast<std::size_t>(
              sc_.sib_origin[static_cast<std::size_t>(j)])];
          sum += sc_.g_plus[static_cast<std::size_t>(at(ws, d))];
        }
        sc_.g_minus[static_cast<std::size_t>(at(s, d))] =
            std::max(0.0, sc_.s_val[static_cast<std::size_t>(s)] - sum);  // (13)
      }
      evals += static_cast<std::int64_t>(plus_bucket.size()) +
               static_cast<std::int64_t>(minus_bucket.size());
    }
    if (stats_ != nullptr) stats_->g_evals += evals;
  }

  const ViewTree* view_ = nullptr;  // view-backed mode
  const CommGraph* g_ = nullptr;    // graph-backed mode
  NodeId groot_ = -1;               // root agent node in graph-backed mode
  std::int32_t r_;
  const TSearchOptions& opt_;
  detail::DpScratch& sc_;
  LocalStats* stats_;
};

}  // namespace

ViewEvalScratch::ViewEvalScratch() : impl_(new detail::DpScratch) {}
ViewEvalScratch::~ViewEvalScratch() = default;
ViewEvalScratch::ViewEvalScratch(ViewEvalScratch&&) noexcept = default;
ViewEvalScratch& ViewEvalScratch::operator=(ViewEvalScratch&&) noexcept =
    default;

double solve_agent_from_view(const ViewTree& view, std::int32_t R,
                             const TSearchOptions& opt,
                             ViewEvalScratch* scratch) {
  LOCMM_CHECK(R >= 2);
  LocalStats stats;
  double x;
  if (opt.engine == ViewEngine::kNaive) {
    ViewEvaluator eval(view, R - 2, opt, opt.stats ? &stats : nullptr);
    x = eval.x_root();
  } else {
    ViewEvalScratch local_scratch;
    DpViewEvaluator eval(view, R - 2, opt,
                         (scratch ? *scratch : local_scratch).impl(),
                         opt.stats ? &stats : nullptr);
    x = eval.x_root();
  }
  stats.flush(opt.stats, view.size());
  return x;
}

double solve_agent_on_graph(const CommGraph& g, AgentId v, std::int32_t R,
                            const TSearchOptions& opt,
                            ViewEvalScratch* scratch) {
  LOCMM_CHECK(R >= 2);
  // The view-free construction exists for the memoized DP only; the naive
  // engine is view-based by definition (it is the differential oracle for
  // exactly this equivalence).
  LOCMM_CHECK(opt.engine == ViewEngine::kMemoizedDp);
  LocalStats stats;
  ViewEvalScratch local_scratch;
  DpViewEvaluator eval(g, g.agent_node(v), R - 2, opt,
                       (scratch ? *scratch : local_scratch).impl(),
                       opt.stats ? &stats : nullptr);
  const double x = eval.x_root();
  stats.flush(opt.stats, 0);  // no view materialised
  return x;
}

double t_root_from_view(const ViewTree& view, std::int32_t r,
                        const TSearchOptions& opt, ViewEvalScratch* scratch) {
  LOCMM_CHECK(r >= 0);
  LocalStats stats;
  double t;
  if (opt.engine == ViewEngine::kNaive) {
    ViewEvaluator eval(view, r, opt, opt.stats ? &stats : nullptr);
    t = eval.t_root();
  } else {
    ViewEvalScratch local;
    ViewEvalScratch& sc = scratch ? *scratch : local;
    DpViewEvaluator eval(view, r, opt, sc.impl(),
                         opt.stats ? &stats : nullptr);
    t = eval.t_root();
  }
  stats.flush(opt.stats, view.size());
  return t;
}

std::vector<double> solve_special_local_views(const MaxMinInstance& special,
                                              std::int32_t R,
                                              const TSearchOptions& opt,
                                              std::size_t threads) {
  LOCMM_CHECK(R >= 2);
  LOCMM_CHECK(opt.engine == ViewEngine::kMemoizedDp);
  const CommGraph g(special);
  std::vector<double> x(static_cast<std::size_t>(special.num_agents()), 0.0);
  // Each agent writes its own slot, so the schedule cannot affect the
  // output.  The DP tables persist per thread across agents (and calls).
  parallel_for(x.size(), threads, [&](std::size_t v) {
    thread_local ViewEvalScratch scratch;
    x[v] = solve_agent_on_graph(g, static_cast<AgentId>(v), R, opt, &scratch);
  });
  return x;
}

}  // namespace locmm
