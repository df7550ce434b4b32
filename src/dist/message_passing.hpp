// message_passing.hpp -- the synchronous message-passing substrate (§1.2).
//
// The paper's model: a network of anonymous nodes in the port-numbering
// model, computing in synchronous rounds.  In each round every node (1)
// sends one message per port, (2) receives the messages its neighbours sent
// towards it, (3) updates its state.  A local algorithm is one that halts
// after a constant number of rounds, independent of the network size.
//
// SyncNetwork realises this model over a CommGraph: it owns the round loop,
// port-faithful delivery (a message sent on port p of u arrives at the
// neighbour's back-port, resolved by the same CommGraph::back_port the view
// unfolding uses), and the cost accounting the locality benches report
// (rounds, message count, measured bytes of the encoded frames, largest
// single message).  Node behaviour is supplied as NodeProgram instances --
// one per node, agents and constraint/objective relays alike -- which see
// *only* their LocalInput (type, degree, per-port coefficients) and their
// inboxes: nothing identifier-shaped ever reaches a program, so anything
// expressible here is definable in the port-numbering model by construction.
//
// Two engines run on this substrate:
//   * engine M (dist/gather.hpp)    -- gather the radius-D view, simulate
//                                      (the faithful realisation of §4.1);
//   * engine S (dist/streaming.hpp) -- pipeline the t/s/g phases as scalar
//                                      floods after a shallow gather
//                                      (exponentially smaller messages,
//                                      +2 rounds).
//
// Dynamic mode (paper §1.3): a local algorithm is automatically a
// *distributed dynamic* one -- after an edit, only nodes within the
// radius-D(R) ball of the touched edges need to act, and in the
// message-passing model only they need to re-send.  A recorded run
// (run(programs, rounds, /*record=*/true); the engines get there through
// run_fault_tolerant, dist/fault.hpp) persists every node's per-round
// outbox; replay(dirty_seeds, ...) then re-executes the recorded schedule
// with the edited graph, activating a node u at round dist(u, dirty) + 1
// -- the first round at which u's inbound dependency cone can intersect
// the edit -- and serving every other delivery from the cached history.
// Determinism of NodeProgram makes this exact: a node's round-k message is
// a pure function of its local input and its inbox history through round
// k-1, all of which is untouched outside the ball, so cached and
// freshly-recomputed messages agree bit for bit (asserted by
// tests/dynamic_dist_test.cpp against from-scratch runs).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "graph/comm_graph.hpp"
#include "support/wire_layout.hpp"

namespace locmm {

// One node of a serialized view subtree, preorder.  On the wire this is the
// 13-bytes-per-node layout of support/wire_layout.hpp (packed header +
// coefficient; dist/wire.hpp is the codec) -- the in-memory struct is wider
// for simplicity, which is exactly why the recorded message history stores
// encoded bytes rather than WireNode vectors (~2.5x smaller; see
// SyncNetwork::history_).
struct WireNode {
  NodeType type = NodeType::kAgent;
  std::int32_t degree = 0;
  std::int32_t constraint_degree = 0;  // agents only; 0 otherwise
  std::int32_t parent_port = -1;  // port at THIS node leading to the parent
  double parent_coeff = 0.0;      // coefficient on the parent edge
  std::int32_t num_children = 0;  // immediate preorder subtrees that follow
};

// A message on one port in one round: nothing (the port stays silent), one
// scalar, or one serialized view subtree.
struct Message {
  enum class Kind : std::uint8_t { kNone, kScalar, kView };

  Kind kind = Kind::kNone;
  double scalar = 0.0;
  std::vector<WireNode> view;  // preorder; used when kind == kView

  static Message make_scalar(double value) {
    Message m;
    m.kind = Kind::kScalar;
    m.scalar = value;
    return m;
  }

  static Message make_view(std::vector<WireNode> nodes) {
    Message m;
    m.kind = Kind::kView;
    m.view = std::move(nodes);
    return m;
  }

  // Measured wire size: the exact length of the frame the codec emits for
  // this message (dist/wire.hpp append_message_frame CHECKs the two never
  // drift).  Scalars ride a 17-byte checksummed frame, views a 13-byte
  // envelope plus kWireNodeBytes per node, and silent ports cost nothing --
  // so the RunStats byte columns report what a byte transport actually
  // carries (the multi-process ranks ship these very frames).
  std::int64_t byte_size() const {
    switch (kind) {
      case Kind::kNone: return 0;
      case Kind::kScalar: return kScalarFrameBytes;
      case Kind::kView:
        return view_frame_bytes(static_cast<std::int64_t>(view.size()));
    }
    return 0;
  }
};

// Everything a node is allowed to know at round 0: its own type, its ports
// and the coefficient written on each incident edge.  For agents, ports
// [0, constraint_degree) are constraint edges and the rest objective edges
// (the CommGraph port convention); for constraint/objective nodes
// constraint_degree is 0.  Deliberately free of identifiers.
struct LocalInput {
  NodeType type = NodeType::kAgent;
  std::int32_t degree = 0;
  std::int32_t constraint_degree = 0;
  std::vector<double> coeffs;  // per port, size == degree
};

// The round-0 knowledge of `node` in `g` (see LocalInput): what every
// scheduler, in process or forked, hands NodeProgram::init.
LocalInput local_input(const CommGraph& g, NodeId node);

// One node's program.  The scheduler drives rounds 1, 2, ...:
//   send(round)          -> the outgoing messages, one per port (return an
//                           empty vector to stay silent this round; a
//                           Kind::kNone entry silences a single port);
//   receive(round, inbox) -> the messages delivered this round, indexed by
//                           the receiving port (Kind::kNone where the
//                           neighbour stayed silent);
//   halted()             -> true once the node is done; a halted node no
//                           longer sends or receives.  The schedule length
//                           is fixed up front (view_radius(R),
//                           streaming_rounds(R)), and every program must
//                           have halted by its last round.
class NodeProgram {
 public:
  virtual ~NodeProgram() = default;

  virtual void init(const LocalInput& input) = 0;
  virtual std::vector<Message> send(std::int32_t round) = 0;
  virtual void receive(std::int32_t round, std::span<const Message> inbox) = 0;
  virtual bool halted() const = 0;
};

// A NodeProgram whose node computes a §5 agent output x_v.  Engines M and S
// implement it; the dynamic replay path (dynamic/incremental_solver.hpp)
// reads x() off re-executed agent nodes without knowing which engine
// produced them.
class AgentNodeProgram : public NodeProgram {
 public:
  virtual double x() const = 0;
};

// Cost accounting of one run, aggregated over all rounds.  `rounds` is the
// locality headline -- for the engines it depends only on R, never on the
// network size.  Deliveries are split into *fresh* (actually transmitted by
// an executing node) and *replayed* (served from the recorded inbox history
// of a previous run by replay()): a full run() is all fresh, and the §1.3
// benchmark claim is exactly that a replay's fresh side is bounded by the
// dirty ball while only the replayed side scales with what the ball
// consumes of its surroundings.  messages == fresh_messages +
// replayed_messages and bytes == fresh_bytes + replayed_bytes, always;
// max_message_bytes tracks fresh (wire) messages only.
//
// The fault block (all zero unless SyncNetwork::run was handed a
// FaultPlan, see dist/fault.hpp) counts what the injection layer did and
// what recovery cost.  messages / bytes count every wire transmission,
// retransmits included, so retransmitted_* is the recovery overhead
// *within* them; dropped / corrupted count per failed attempt (a slot
// dropped three times counts three); recovered_messages counts slots
// eventually delivered by a retransmit, unrecovered_slots the ones
// abandoned to the degradation path after max_retransmits;
// recovery_rounds is the number of extra retransmit sub-rounds the
// schedule paid.
struct RunStats {
  std::int32_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t max_message_bytes = 0;
  std::int64_t fresh_messages = 0;
  std::int64_t replayed_messages = 0;
  std::int64_t fresh_bytes = 0;
  std::int64_t replayed_bytes = 0;
  // Fault injection and recovery (dist/fault.hpp).
  std::int64_t dropped_messages = 0;
  std::int64_t corrupted_messages = 0;
  std::int64_t duplicated_messages = 0;
  std::int64_t reordered_messages = 0;
  std::int64_t retransmitted_messages = 0;
  std::int64_t retransmitted_bytes = 0;
  std::int64_t recovered_messages = 0;
  std::int64_t unrecovered_slots = 0;
  std::int32_t recovery_rounds = 0;
};

// One node's recorded outbox for one round, stored as the *encoded frames*
// the wire codec emits (dist/wire.hpp) rather than as Message objects: a
// WireNode is 32 bytes in memory but 13 on the wire, so a recorded engine-M
// history shrinks ~2.5x -- the difference between dynamic engine M stopping
// at R=3 and reaching R=4 at 10k agents (bench_dynamics' distributed rows).
// `offsets` has degree+1 entries framing port p's bytes at
// [offsets[p], offsets[p+1]); a zero-length frame is a silent port, an empty
// offsets vector a silent round.
struct EncodedOutbox {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> offsets;

  bool empty() const { return offsets.empty(); }
  void clear() {
    bytes.clear();
    offsets.clear();
  }
  std::span<const std::uint8_t> frame(std::int32_t port) const {
    const auto p = static_cast<std::size_t>(port);
    return {bytes.data() + offsets[p], bytes.data() + offsets[p + 1]};
  }
};

class FaultPlan;  // dist/fault.hpp

// What a run under a FaultPlan left behind, beyond the stats: which nodes
// froze (stopped participating) and which of them sit in an
// *unrecoverable* cone.
// A node freezes when it crashes, when one of its inbound slots exhausts
// the retransmit budget, or -- transitively, at speed 1 -- when a
// neighbour's silence makes its own round input incomplete: the synchronous
// model gives faults exactly this light cone, and freezing the whole cone
// is what keeps every *executed* program's history bitwise fault-free.
struct FaultOutcome {
  static constexpr std::int32_t kNeverFrozen =
      std::numeric_limits<std::int32_t>::max();
  // Per node: the last round whose send phase this node executed
  // (kNeverFrozen = ran the whole schedule).  A node frozen at round k sent
  // through round k and went silent from k+1 on.
  std::vector<std::int32_t> sent_through;
  // Per node: 1 when the freeze traces back to an unrecoverable event (a
  // never-restarting crash or an exhausted retransmit budget); agents in
  // this set are the ones recovery cannot restore and must degrade.
  std::vector<std::uint8_t> lost;
  // Every frozen node, in freeze order: the dirty seeds of the recovery
  // replay.  Empty == the run was clean end to end.
  std::vector<NodeId> frozen;

  bool clean() const { return frozen.empty(); }
};

// The outcome of one engine-M or engine-S run, however it ran: in process,
// under a fault plan, or forked onto ranks (dist/fault.hpp run_engine).
struct MessageRunResult {
  // Per-agent outputs, bitwise engine C's (tests/cross_engine_test.cpp).
  // Under faults an un-degraded agent's value is bitwise the fault-free
  // run's; a degraded agent's value is the engine-L evaluation of its
  // radius-D(R) ball, read off the graph (bitwise the fault-free value too).
  std::vector<double> x;
  // rounds = the schedule length (view_radius(R) for engine M,
  // streaming_rounds(R) for engine S), independent of n.  Under faults the
  // faulty run and its recovery replay are merged: messages == fresh +
  // replayed still holds, with the fault counters on top.
  RunStats stats;
  // Per agent, 1 = inside an unrecoverable cone (its value fell back to
  // engine L).  Empty when no fault is injected.
  std::vector<std::uint8_t> degraded;
  std::int64_t recovered_nodes = 0;  // nodes re-executed by the recovery
  std::int64_t degraded_agents = 0;
  bool fully_recovered = true;  // no agent degraded
};

// The synchronous scheduler.  Owns no node state: programs are supplied per
// run (one per CommGraph node, in node order).  threads: 1 = serial
// (default; results are bitwise independent of the thread count either way
// since every program only touches its own slots), 0 = all hardware threads.
class SyncNetwork {
 public:
  explicit SyncNetwork(const CommGraph& g, std::size_t threads = 1);

  // The network keeps a reference to `g` and, in dynamic mode, a message
  // history indexed by its ports: neither survives being moved over.
  SyncNetwork(const SyncNetwork&) = delete;
  SyncNetwork& operator=(const SyncNetwork&) = delete;

  // Runs exactly `rounds` rounds -- the engine's schedule length -- and
  // CHECK-fails unless every program that was not frozen has halted by
  // then.  Calls init on every program first.  With `record`, every node's
  // per-round outbox is persisted as encoded wire frames (memory: one copy
  // of the run's total traffic *at wire size*, ~2.5x below Message
  // storage) so later replay() calls can serve clean nodes' messages from
  // cache.
  //
  // With a `plan` (dist/fault.hpp: drops, corruption, duplicates,
  // reordering, crashes), delivery consults it and retransmits lost or
  // rejected messages from the sender's outbox in bounded sub-rounds, and
  // the run always records: the recovery replay re-executes against that
  // history.  `out` (required with a plan) says which nodes froze and
  // which are unrecoverable; every *executed* program received a complete,
  // fault-free inbox in every round (anything less froze it first), so its
  // state and its history rows are bitwise what a fault-free run would
  // have produced.  Callers normally want run_fault_tolerant
  // (dist/fault.hpp), which chains the recovery replay and the
  // degradation fallback on top.
  RunStats run(std::vector<std::unique_ptr<NodeProgram>>& programs,
               std::int32_t rounds, bool record = false,
               const FaultPlan* plan = nullptr, FaultOutcome* out = nullptr);

  // Whether a recorded history is available, and how many rounds it spans.
  bool has_history() const { return recorded_rounds_ > 0; }
  std::int32_t recorded_rounds() const { return recorded_rounds_; }

  // Makes one NodeProgram for the given node (replay instantiates programs
  // lazily: only activated nodes ever get one).  Replay calls it from
  // parallel workers, so the factory must be safe to invoke concurrently
  // (the engine factories are: they only read configuration).
  using ProgramFactory = std::function<std::unique_ptr<NodeProgram>(NodeId)>;

  struct ReplayResult {
    RunStats stats;
    // The nodes that were re-executed, in activation (round, id) order, and
    // their programs (parallel vectors).  Every program was driven through
    // the full recorded schedule and has halted; callers read outputs off
    // them (e.g. AgentNodeProgram::x).  Nodes not listed here were never
    // touched: their cached messages are provably still correct.
    std::vector<NodeId> executed;
    std::vector<std::unique_ptr<NodeProgram>> programs;
  };

  // Re-runs the recorded schedule after an instance edit, re-executing only
  // the nodes whose round-k inbound dependency cone can intersect the edit:
  // node u activates at round dist(u, dirty_seeds) + 1 (its earlier
  // behaviour is bitwise determined by unedited inputs), is fast-forwarded
  // through rounds 1..activation-1 by replaying its cached inboxes, and
  // from activation on sends fresh messages that overwrite the history in
  // place -- so after replay() the history is bit-identical to what a full
  // recorded run on the edited instance would have produced, and edits can
  // be chained indefinitely.
  //
  // `dirty_seeds`: the nodes whose local input changed (both endpoints of
  // every edited edge).  `pre_dist`: optional per-node distances to the
  // dirty region in the PRE-edit graph (empty = topology unchanged).
  // Structural deltas MUST pass it: a removed edge can leave nodes that
  // were reachable only through it arbitrarily far from every seed in the
  // post-edit graph while their cached messages still encode paths through
  // the removed edge -- the same pre+post-graph flood
  // IncrementalSolver::apply runs for its dirty ball.  Activation uses
  // min(post-edit distance, pre_dist).
  //
  // After a structural edit rebuilt the CommGraph (node counts are stable
  // under membership edits), call refresh_topology() first.  Replay
  // parallelises like run() -- activation fast-forwards, sends and receives
  // ride parallel_for over the executed set, with per-node stats
  // accumulators reduced deterministically -- so ball-sized work still
  // shrinks with the ball, and a crash-recovery replay of a large cone
  // (dist/fault.hpp) does not serialize.  Output and stats are bitwise
  // independent of the thread count.
  ReplayResult replay(std::span<const NodeId> dirty_seeds,
                      const ProgramFactory& make,
                      std::span<const std::int32_t> pre_dist = {});

  // Re-derives the cached port topology (edge offsets, back ports) from the
  // graph after a structural edit rebuilt it.  The history rows of nodes
  // whose adjacency changed become stale, but those nodes are dirty seeds
  // of the edit by definition, so the next replay() overwrites their rows
  // from round 1 before anything reads them.
  void refresh_topology();

  const CommGraph& graph() const { return g_; }

 private:
  std::int32_t back_port_of(NodeId u, std::int32_t port) const {
    return back_ports_[static_cast<std::size_t>(
        edge_offsets_[static_cast<std::size_t>(u)] + port)];
  }

  // Assembles the round-`round` inbox of `u` from the history (the outbox
  // rows of u's neighbours), counting cache-served slots into `stats`:
  // slots whose sender already re-sent this replay were counted as fresh at
  // send time and are not re-counted.  `activation` maps nodes to their
  // activation round (0 = not activated).
  void assemble_inbox(NodeId u, std::int32_t round,
                      const std::vector<std::int32_t>& activation,
                      std::vector<Message>& inbox, RunStats& stats) const;

  const CommGraph& g_;
  std::size_t threads_;
  // back_port(u, p) for every directed edge, precomputed (re-derived by
  // refresh_topology after structural edits) so per-round delivery is
  // O(messages) instead of re-scanning the receiver's port list per
  // message.  Indexed like the CommGraph edge array: slot(u) + p.
  std::vector<std::int64_t> edge_offsets_;
  std::vector<std::int32_t> back_ports_;

  // Dynamic mode: history_[u][k-1] is the outbox u sent in round k, stored
  // as encoded wire frames (one frame per port; empty row = silent round;
  // see EncodedOutbox for the ~2.5x memory win over Message storage).
  // Outbox- rather than inbox-indexed so replay can re-route deliveries
  // through the post-edit back ports: a receiver whose port numbering
  // shifted re-executes anyway, while its clean neighbours' cached rows stay
  // addressed by their own (unchanged) ports.  assemble_inbox decodes on
  // read (LOCMM_CHECK: history bytes are an internal invariant, not a fault
  // boundary).
  std::vector<std::vector<EncodedOutbox>> history_;
  std::int32_t recorded_rounds_ = 0;
};

}  // namespace locmm
