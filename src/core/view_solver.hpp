// view_solver.hpp -- engine L: the definitional local algorithm.
//
// Every agent computes its output x_v from its radius-D local view (the
// truncated unfolding of §3) *alone*, exactly as a node of the distributed
// system would after D communication rounds (§4.1: gather the local view,
// then simulate).  The view is materialised only where the model puts it on
// the wire (engine M, dist/gather.hpp) and for the kNaive oracle; whole-
// instance solves read the same neighbourhood straight off the
// communication graph (solve_agent_on_graph), bitwise equal.  Two
// interchangeable implementations of the recursions (5)-(7) and (12)-(14)
// live here, selected by TSearchOptions::engine:
//
//   * ViewEngine::kMemoizedDp (default) -- an iterative, memoized, bottom-up
//     dynamic program over the *shared structure* of the view tree.  Every
//     §5 quantity is position-independent (Example 2 of the paper), so all
//     copies of a G-node share one origin slot: the DP harvests each slot's
//     adjacency once, runs engine C's live-set bisection
//     (core/t_search.hpp) over those slices for every t it needs, and fills
//     g± in flat tables indexed by (origin slot) * (r+1) + d in one
//     depth-major sweep; all scratch storage is reused across agents via
//     ViewEvalScratch.  Total work is polynomial in the number of
//     *distinct* G-nodes the view projects to -- never exponential in r,
//     even though the view tree itself grows like Delta^D.
//
//   * ViewEngine::kNaive -- the literal tree-recursive transcription of the
//     paper's recursions, kept as the differential-testing oracle.  It
//     re-expands the recursion on every call and runs a fresh bisection per
//     agent, so it is exponentially slower across the omega probes of an
//     s-ball; tests assert the DP engine matches it, and engine C
//     (local_solver.hpp), bitwise.
//
// On an explicit view, neither implementation consults the global graph
// during evaluation, which makes engine L the faithfulness reference for
// the other engines.
//
// The view radius is
//     D(R) = 12 r + 5,   r = R - 2:
// x_v needs g values at agents up to distance 4r, whose smoothed bounds s
// read t at distance up to 4r + (4r+2), and each t reads its alternating
// tree, another 4r+3.  Evaluation CHECK-fails loudly if anything ever reads
// beyond the materialised view, so an under-sized D cannot silently corrupt
// results.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/upper_bound.hpp"
#include "graph/comm_graph.hpp"
#include "graph/view_tree.hpp"

namespace locmm {

namespace detail {
struct DpScratch;  // internal tables of the memoized DP engine
}

// Reusable scratch buffers for the DP engine: tables, adjacency slices,
// worklists.  Hand the same object to successive evaluations (one per
// thread) to avoid re-allocating per agent; any evaluation resets the
// contents but keeps the capacity.
class ViewEvalScratch {
 public:
  ViewEvalScratch();
  ~ViewEvalScratch();
  ViewEvalScratch(ViewEvalScratch&&) noexcept;
  ViewEvalScratch& operator=(ViewEvalScratch&&) noexcept;

  detail::DpScratch& impl() { return *impl_; }

 private:
  std::unique_ptr<detail::DpScratch> impl_;
};

// The local horizon of the §5 algorithm as implemented here.
std::int32_t view_radius(std::int32_t R);

// Computes the output of the agent at the root of `view` (which must be an
// agent node of a special-form instance's communication graph).  `scratch`
// is optional; passing one amortises allocations across calls.
double solve_agent_from_view(const ViewTree& view, std::int32_t R,
                             const TSearchOptions& opt = {},
                             ViewEvalScratch* scratch = nullptr);

// Computes agent `v`'s output straight off the communication graph --
// bitwise identical to solve_agent_from_view on v's radius-view_radius(R)
// view, without materialising it.  The memoized DP is origin-keyed (every
// view copy of an agent collapses to one slot) and a view's adjacency
// slices are exactly the graph rows in port order, so skipping the unfold
// changes no value anywhere; on fat views it removes the dominant cost.
// kMemoizedDp only (CHECK-enforced): the naive engine is view-based by
// definition.
double solve_agent_on_graph(const CommGraph& g, AgentId v, std::int32_t R,
                            const TSearchOptions& opt = {},
                            ViewEvalScratch* scratch = nullptr);

// Computes only the upper bound t_u for the agent at the root of `view`
// (radius 4r+3 suffices).  Used by the streaming engine (dist/streaming),
// which floods t/s/g as scalars instead of gathering radius-D views.
double t_root_from_view(const ViewTree& view, std::int32_t r,
                        const TSearchOptions& opt = {},
                        ViewEvalScratch* scratch = nullptr);

// Runs engine L for every agent of a special-form instance:
// solve_agent_on_graph per agent, in parallel.  Each output depends on its
// own agent's radius-view_radius(R) neighbourhood alone, so no view is built
// and no work is shared between agents.  kMemoizedDp only (CHECK-enforced);
// the kNaive oracle runs per agent on explicit views
// (solve_agent_from_view).  threads: 1 = serial, 0 = all hardware threads;
// the result is bitwise independent of `threads`.
std::vector<double> solve_special_local_views(const MaxMinInstance& special,
                                              std::int32_t R,
                                              const TSearchOptions& opt = {},
                                              std::size_t threads = 1);

}  // namespace locmm
