// streaming.hpp -- engine S: message-passing with scalar phases.
//
// Engine M ships radius-(12r+4) view blobs -- exponential in R.  But the §5
// algorithm only needs the *full* view to compute the per-agent upper bound
// t_v (the alternating tree A_v has depth 4r+3); everything after that --
// smoothing s and the g recursion -- is a sequence of neighbourhood
// reductions over already-computed numbers.  Engine S therefore streams the
// phases over the wire instead of gathering one monolithic view:
//
//   phase 1  (4r+3 rounds)  gather only the radius-(4r+3) view; every agent
//                           computes t_v from it (t_root_from_view);
//   phase 2  (4r+2 rounds)  2r+1 closed-neighbourhood min exchanges: agents
//                           flood their running min through *all* their
//                           constraint and objective relays (2 rounds per
//                           agent-adjacency hop: the agent side sends in
//                           the odd round, the relay side replies in the
//                           even one), ending with s_v = min t over the
//                           radius-(4r+2) ball;
//   phase 3  (4r+2 rounds)  2r+1 exchanges pipeline the g recursion
//                           (12)-(14): objective relays return sibling sums
//                           of g+ (one exchange per depth), constraint
//                           relays return the partner products
//                           a_{i,n(v,i)} g-_{n(v,i),d-1}; after the last
//                           reply every agent emits the output (18).
//
// Every reduction runs in the same port order as engines C/L, so the outputs
// are bit-identical, not merely close (tests/cross_engine_test.cpp compares
// bitwise).  Total:
//
//   streaming_rounds(R) = (4r+3) + (4r+2) + (4r+2) = 12r+7
//                       = view_radius(R) + 2,
//
// i.e. two extra rounds buy messages bounded by a radius-(4r+3) view (the
// phase-1 blobs) instead of radius-(12r+4): exponentially smaller for the
// same outputs.  Phases 2-3 send 8-byte scalars, one side of the bipartite
// communication graph per round (agents in odd offsets, relays in even
// ones; the g exchanges of phase 3 additionally restrict to the relay kind
// the recursion step reads through).
#pragma once

#include <cstdint>
#include <vector>

#include "core/upper_bound.hpp"
#include "dist/message_passing.hpp"
#include "dist/transport.hpp"

namespace locmm {

// The engine-S round count: 12(R-2) + 7 (7 / 19 / 31 for R = 2 / 3 / 4).
std::int32_t streaming_rounds(std::int32_t R);

// One engine-S per-node program (the implementation type lives in
// streaming.cpp).  Exposed so the dynamic replay path
// (dynamic/incremental_solver.hpp) can re-instantiate programs for the
// dirty-ball nodes of an edited instance; x() is the agent output once the
// program halts (0 for relay nodes).
std::unique_ptr<AgentNodeProgram> make_streaming_program(
    std::int32_t R, const TSearchOptions& opt = {});

// Runs engine S on a special-form instance (one run_engine call,
// dist/fault.hpp); result.stats.rounds = streaming_rounds(R).  threads:
// 1 = serial (default), 0 = all hardware threads; the output is bitwise
// independent of the thread count.  `faults` (optional, not owned) injects
// the given seeded fault scenario and runs detection / retransmission /
// degradation on top (dist/fault.hpp): with full recovery the outputs are
// bitwise identical to the fault-free run.  `dist` selects the transport
// exactly as in solve_special_message_passing (the shared-memory transport
// forks dist.ranks processes; faults must be nullptr there).
MessageRunResult solve_special_streaming(const MaxMinInstance& special,
                                         std::int32_t R,
                                         const TSearchOptions& opt = {},
                                         std::size_t threads = 1,
                                         const FaultPlan* faults = nullptr,
                                         const DistOptions& dist = {});

}  // namespace locmm
