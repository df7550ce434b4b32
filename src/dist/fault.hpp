// fault.hpp -- seeded fault injection and recovery for the message-passing
// substrate (engines M and S).
//
// The paper's setting is bounded-degree sensor networks, where lost,
// duplicated, reordered and corrupted messages -- and nodes that crash and
// come back -- are the normal case.  Local algorithms are exactly the class
// for which fault containment is provable: an agent's output is a pure
// function of its radius-D(R) view, so any fault the recovery machinery can
// confine to a ball of the schedule is invisible outside that ball.  This
// layer makes that claim executable:
//
//   inject    FaultPlan: a *pure function* from (seed, round, node, port,
//             attempt) to fault decisions, evaluated by hashing the
//             coordinates through support/hash.hpp.  No RNG stream, no
//             state: the same plan replays bit-identically regardless of
//             thread count or delivery order, which is what lets the chaos
//             tests assert bitwise equality against fault-free oracles.
//
//   detect    corruption operates on real bytes: the injector flips one bit
//             of the *encoded frame* (dist/wire.hpp corrupt_frame_detectably,
//             seeded by FaultPlan::corruption_bits), and every delivery is
//             guarded by the real decoder (decode_message_frame) -- frame
//             checksum plus the structural validation
//             (wire_view_well_formed) that subsumes the CHECK-protected
//             invariants of the receive path downstream (gather blob
//             splicing, streaming scalar kinds).  A corrupted
//             frame is rejected at the delivery boundary -- counted and
//             retransmit-requested -- and never reaches a NodeProgram.
//             Deliveries are watermarked by (round, port): a duplicate of
//             an already-delivered message is recognised and discarded, and
//             reordering within a round is absorbed by the port-indexed
//             inbox (slots are position-, not arrival-, addressed).
//
//   recover   lost and rejected messages trigger bounded retransmission:
//             extra sub-rounds within the synchronous round where only the
//             affected (sender, port) edges re-send, up to
//             FaultSpec::max_retransmits attempts (SyncNetwork::run with a
//             plan).  A node that crashes -- or exhausts its
//             retransmit budget on some inbound slot -- freezes: it stops
//             acting, and its silence taints neighbours outward at speed 1
//             (exactly the light cone of the synchronous model).  After the
//             run, run_fault_tolerant() re-seeds the frozen region through
//             the recorded history via SyncNetwork::replay(): the cone
//             re-executes on a fault-free control channel while the clean
//             region is served from cache, restoring the history -- and the
//             re-executed agents' outputs -- bit-identical to a fault-free
//             recorded run.
//
//   degrade   when a crashed node never restarts (CrashEvent::restart_round
//             < 0) or a retransmit budget was exhausted, the fault is
//             declared unrecoverable: every agent whose dependency cone was
//             tainted by it is flagged `degraded`, and its output falls
//             back to a local engine-L evaluation of its radius-D(R) ball
//             (the centrally-assisted fallback a deployment would run for a
//             dead sensor's neighbourhood).  The run completes with
//             accurate flags instead of aborting; un-degraded outputs are
//             still bitwise fault-free.
//
// Costs land in RunStats (dropped / corrupted / duplicated / reordered /
// retransmitted / recovered counters, recovery_rounds) and flow unchanged
// through LocalSolution::net_stats and UpdateStats::net.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/upper_bound.hpp"
#include "dist/message_passing.hpp"
#include "dist/transport.hpp"

namespace locmm {

// One node's crash schedule: the node dies at the start of `round` (it
// neither sends nor receives from then on).  `restart_round >= 0` means the
// node rejoins the network and replays its dependency cone from the
// recorded history after the run (recoverable); a negative restart means it
// stays dead and its forward light cone degrades.  The restart round is
// diagnostic -- recovery happens after the schedule either way -- but it
// must not precede the crash.
struct CrashEvent {
  NodeId node = -1;
  std::int32_t round = 1;          // crashes before sending in this round
  std::int32_t restart_round = -1;  // < 0: never restarts (unrecoverable)
};

// The knobs of one seeded fault scenario.  Rates are per-message (and
// per-attempt, for drop/corrupt: retransmissions roll the same dice).
struct FaultSpec {
  std::uint64_t seed = 1;
  double drop_rate = 0.0;       // P[message lost in transit]
  double corrupt_rate = 0.0;    // P[payload bit flipped in transit]
  double duplicate_rate = 0.0;  // P[delivered twice]
  double reorder_rate = 0.0;    // P[a receiver's round inbox arrives shuffled]
  // Retransmit attempts per lost/rejected slot before the receiver gives up
  // and degrades.  0 disables recovery entirely (every fault is terminal).
  std::int32_t max_retransmits = 8;
  std::vector<CrashEvent> crashes;
};

// A validated FaultSpec with the decision procedure attached.  Every query
// is a pure hash of its coordinates: deterministic, order-independent, and
// free of shared state (safe to consult from parallel delivery loops).
class FaultPlan {
 public:
  explicit FaultPlan(FaultSpec spec);

  const FaultSpec& spec() const { return spec_; }
  bool any_faults() const;

  // Fault decisions for the message leaving (node, port) in `round`, on its
  // `attempt`-th transmission (0 = first send, >= 1 = retransmits).
  bool drops(std::int32_t round, NodeId node, std::int32_t port,
             std::int32_t attempt) const;
  bool corrupts(std::int32_t round, NodeId node, std::int32_t port,
                std::int32_t attempt) const;
  // Which corruption to apply when corrupts() fired (see corrupt_message).
  std::uint64_t corruption_bits(std::int32_t round, NodeId node,
                                std::int32_t port) const;
  bool duplicates(std::int32_t round, NodeId node, std::int32_t port) const;
  // Whether `receiver`'s round-`round` inbox arrives in scrambled order.
  bool reorders(std::int32_t round, NodeId receiver) const;

  // The crash event scheduled to fire for `node` at `round`, if any.
  const CrashEvent* crash_at(NodeId node, std::int32_t round) const;

 private:
  double uniform(std::uint64_t salt, std::int32_t round, NodeId node,
                 std::int32_t port, std::int32_t attempt) const;

  FaultSpec spec_;
};

// Structural validity of a preorder view blob, checked without touching the
// CHECK-protected splice path: one subtree exactly (the reverse-preorder
// stack fold of ViewAssembler must consume every node and leave one root),
// sane degrees and ports on every node.  This is the validation boundary of
// the bugfix sweep: gather's assemble CHECKs stay as internal invariants
// because nothing malformed can get past this predicate at delivery time.
bool wire_view_well_formed(std::span<const WireNode> blob);

// (The corruption primitive itself lives with the codec: dist/wire.hpp
// corrupt_frame / corrupt_frame_detectably flip bits of the encoded frame,
// seeded by FaultPlan::corruption_bits.)

// Runs `rounds` rounds of the engine whose per-node programs `make` builds
// (engine M: view_radius(R) rounds; engine S: streaming_rounds(R)) and
// reads the agents' outputs off them.  A null `plan`, or one that injects
// no fault, is a plain run (recorded when `record` is set).  Under a plan
// the run records, then recovers: frozen nodes' cones re-execute through
// net.replay() on the recorded history, agents inside an unrecoverable cone
// fall back to engine L and are flagged.  The network is left with a
// recorded history that is bit-identical to a fault-free recorded run
// whenever recovery fully succeeded -- so dynamic replays can keep building
// on it (dynamic/incremental_solver.hpp relies on this).
MessageRunResult run_fault_tolerant(SyncNetwork& net, const FaultPlan* plan,
                                    const SyncNetwork::ProgramFactory& make,
                                    std::int32_t rounds, std::int32_t R,
                                    const TSearchOptions& opt = {},
                                    bool record = false);

// The one entry point engines M and S run through: `rounds` rounds of the
// programs `make` builds on special's communication graph -- forked onto
// dist.ranks processes (run_multiprocess) when `dist` crosses processes,
// otherwise in process on `threads` threads (run_fault_tolerant, under
// `faults` when given).  Fault injection is in-process only: the recovery
// replay needs the full history in one address space.
MessageRunResult run_engine(const MaxMinInstance& special,
                            const SyncNetwork::ProgramFactory& make,
                            std::int32_t rounds, std::int32_t R,
                            const TSearchOptions& opt, std::size_t threads,
                            const FaultPlan* faults, const DistOptions& dist);

}  // namespace locmm
