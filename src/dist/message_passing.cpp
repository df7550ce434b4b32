#include "dist/message_passing.hpp"

#include <algorithm>
#include <atomic>

#include "dist/fault.hpp"
#include "dist/wire.hpp"
#include "support/thread_pool.hpp"

namespace locmm {

namespace {

// Encodes one outbox into its history row (all frames concatenated, offsets
// framing them per port).  An empty outbox encodes as an empty row.
void encode_outbox(const std::vector<Message>& out, EncodedOutbox& row) {
  row.clear();
  if (out.empty()) return;
  row.offsets.reserve(out.size() + 1);
  row.offsets.push_back(0);
  for (const Message& m : out) {
    append_message_frame(m, row.bytes);
    row.offsets.push_back(static_cast<std::uint32_t>(row.bytes.size()));
  }
}

}  // namespace

SyncNetwork::SyncNetwork(const CommGraph& g, std::size_t threads)
    : g_(g), threads_(threads) {
  refresh_topology();
}

void SyncNetwork::refresh_topology() {
  const auto n = static_cast<std::size_t>(g_.num_nodes());
  edge_offsets_.assign(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u)
    edge_offsets_[u + 1] =
        edge_offsets_[u] + g_.degree(static_cast<NodeId>(u));
  back_ports_.resize(static_cast<std::size_t>(edge_offsets_[n]));
  for (std::size_t u = 0; u < n; ++u) {
    const std::int32_t deg = g_.degree(static_cast<NodeId>(u));
    for (std::int32_t p = 0; p < deg; ++p)
      back_ports_[static_cast<std::size_t>(edge_offsets_[u] + p)] =
          g_.back_port(static_cast<NodeId>(u), p);
  }
}

LocalInput local_input(const CommGraph& g, NodeId node) {
  LOCMM_CHECK(node >= 0 && node < g.num_nodes());
  LocalInput in;
  in.type = g.type(node);
  in.degree = g.degree(node);
  in.constraint_degree =
      in.type == NodeType::kAgent ? g.constraint_degree(node) : 0;
  in.coeffs.reserve(static_cast<std::size_t>(in.degree));
  for (const HalfEdge& e : g.neighbors(node)) in.coeffs.push_back(e.coeff);
  return in;
}

RunStats SyncNetwork::run(std::vector<std::unique_ptr<NodeProgram>>& programs,
                          std::int32_t rounds, bool record,
                          const FaultPlan* plan, FaultOutcome* out) {
  const NodeId n = g_.num_nodes();
  LOCMM_CHECK_MSG(static_cast<NodeId>(programs.size()) == n,
                  "need one program per node: " << programs.size() << " vs "
                                                << n);
  LOCMM_CHECK_MSG(rounds >= 1, "run needs the schedule length (the engines' "
                               "round counts); got " << rounds);
  LOCMM_CHECK_MSG(plan == nullptr || out != nullptr,
                  "a run under a FaultPlan reports a FaultOutcome");
  if (plan != nullptr) {
    for (const CrashEvent& ev : plan->spec().crashes)
      LOCMM_CHECK_MSG(ev.node >= 0 && ev.node < n,
                      "crash schedule names node " << ev.node
                          << " outside [0, " << n << ")");
  }
  const auto sn = static_cast<std::size_t>(n);

  // A faulty run always records: the recovery replay re-executes against
  // this history.
  record = record || plan != nullptr;
  if (record) {
    history_.assign(sn, {});
    recorded_rounds_ = 0;
  }
  FaultOutcome local;
  FaultOutcome& fo = out != nullptr ? *out : local;
  fo.sent_through.assign(sn, FaultOutcome::kNeverFrozen);
  fo.lost.assign(sn, 0);
  fo.frozen.clear();

  parallel_for(sn, threads_, [&](std::size_t u) {
    programs[u]->init(local_input(g_, static_cast<NodeId>(u)));
  });

  // Per-node outboxes and inboxes, reused across rounds.  Every inbox is
  // degree-sized; delivery overwrites each slot every round (silent ports
  // are reset to Kind::kNone), so no state leaks between rounds.
  std::vector<std::vector<Message>> outbox(sn);
  std::vector<std::vector<Message>> inbox(sn);
  for (std::size_t u = 0; u < sn; ++u)
    inbox[u].resize(
        static_cast<std::size_t>(g_.degree(static_cast<NodeId>(u))));

  // A delivery the wire refused (dropped, or rejected by the decoder): the
  // sender's outbox still holds the message, so retransmission is just
  // another delivery of the same slot.
  struct Pending {
    std::size_t from;
    std::size_t port;
    std::size_t to;
    std::size_t to_port;
  };
  std::vector<Pending> pending, still_pending;
  std::vector<std::int32_t> delivered(sn, 0);
  std::vector<std::uint8_t> corrupted_frame;

  RunStats stats;
  for (std::int32_t round = 1; round <= rounds; ++round) {
    stats.rounds = round;

    // Crash onset: a node scheduled to crash this round dies before its
    // send.  A never-restarting crash is unrecoverable: the node is lost,
    // and everything its silence taints below inherits that.
    if (plan != nullptr) {
      for (const CrashEvent& ev : plan->spec().crashes) {
        if (ev.round != round) continue;
        const auto u = static_cast<std::size_t>(ev.node);
        if (fo.sent_through[u] != FaultOutcome::kNeverFrozen) continue;
        fo.sent_through[u] = round - 1;
        if (ev.restart_round < 0) fo.lost[u] = 1;
        fo.frozen.push_back(ev.node);
      }
    }

    // Send phase: halted and frozen nodes stay silent; everyone else
    // contributes one message per port (or an empty vector for a silent
    // round).  Recording encodes the outbox into its history row right
    // here, before delivery gets to move the messages out -- per-node rows,
    // so workers share no write target.  The rows hold what each node
    // truly sent (faults below only touch wire copies), exactly what the
    // recovery replay depends on.
    parallel_for(sn, threads_, [&](std::size_t u) {
      outbox[u].clear();
      if (fo.sent_through[u] >= round && !programs[u]->halted()) {
        outbox[u] = programs[u]->send(round);
        LOCMM_CHECK_MSG(
            outbox[u].empty() ||
                static_cast<std::int32_t>(outbox[u].size()) ==
                    g_.degree(static_cast<NodeId>(u)),
            "send() must return one message per port or nothing: got "
                << outbox[u].size() << " for degree "
                << g_.degree(static_cast<NodeId>(u)));
      }
      if (record) {
        history_[u].emplace_back();
        encode_outbox(outbox[u], history_[u].back());
      }
    });

    // Delivery: the message leaving port p of u arrives at u's neighbour on
    // the port leading back to u -- the same back_port resolution the view
    // unfolding uses, so gathered and directly-built views agree port for
    // port.  Only actually-sent (non-kNone) messages count; messages /
    // bytes count wire transmissions, so every retransmit below counts
    // again.
    for (std::size_t u = 0; u < sn; ++u)
      for (Message& m : inbox[u]) m.kind = Message::Kind::kNone;
    std::fill(delivered.begin(), delivered.end(), 0);
    pending.clear();
    for (std::size_t u = 0; u < sn; ++u) {
      if (outbox[u].empty()) continue;
      const auto neigh = g_.neighbors(static_cast<NodeId>(u));
      for (std::size_t p = 0; p < outbox[u].size(); ++p) {
        Message& m = outbox[u][p];
        if (m.kind == Message::Kind::kNone) continue;
        const std::int64_t sz = m.byte_size();
        ++stats.messages;
        stats.bytes += sz;
        stats.max_message_bytes = std::max(stats.max_message_bytes, sz);
        const auto to = static_cast<std::size_t>(neigh[p].to);
        const auto to_port = static_cast<std::size_t>(
            back_ports_[static_cast<std::size_t>(
                edge_offsets_[u] + static_cast<std::int64_t>(p))]);
        if (plan == nullptr) {
          // The history row was encoded at send time, so a fault-free
          // delivery gets to move.
          inbox[to][to_port] = std::move(m);
          continue;
        }
        const auto from_node = static_cast<NodeId>(u);
        const auto port = static_cast<std::int32_t>(p);
        if (plan->drops(round, from_node, port, 0)) {
          ++stats.dropped_messages;
          pending.push_back({u, p, to, to_port});
          continue;
        }
        if (plan->corrupts(round, from_node, port, 0)) {
          // The wire flips one bit of the *encoded frame* (taken from the
          // history row the send phase just wrote); the delivery guard --
          // the real decoder -- must catch it.  Every frame bit is
          // checksummed, so only a 64-bit digest collision could hide a
          // flip; corrupt_frame_detectably regenerates the bit choice on
          // such a collision rather than ever letting corruption travel,
          // and the CHECK here pins the guarantee at the delivery boundary
          // so nothing corrupted can reach a NodeProgram (whose
          // receive-path CHECKs stay internal invariants, not a fault
          // boundary).
          const auto f = history_[u].back().frame(port);
          corrupted_frame.assign(f.begin(), f.end());
          corrupt_frame_detectably(
              corrupted_frame, plan->corruption_bits(round, from_node, port));
          Message rejected;
          LOCMM_CHECK_MSG(
              decode_message_frame(corrupted_frame, rejected) !=
                  WireDecodeStatus::kOk,
              "corrupted frame evaded the delivery guard");
          ++stats.corrupted_messages;
          pending.push_back({u, p, to, to_port});
          continue;
        }
        // Under a plan the outbox must survive delivery: retransmits read
        // it.
        inbox[to][to_port] = m;
        ++delivered[to];
        // A duplicate carries the same (round, port) watermark as the
        // original and is discarded on arrival -- the port-indexed inbox is
        // position-addressed, so nothing can double up.
        if (plan->duplicates(round, from_node, port))
          ++stats.duplicated_messages;
      }
    }

    if (plan != nullptr) {
      // Reordering within the round: also absorbed by position addressing
      // (slots are port-, not arrival-, indexed), but counted as observed.
      for (std::size_t u = 0; u < sn; ++u)
        if (delivered[u] >= 2 &&
            plan->reorders(round, static_cast<NodeId>(u)))
          stats.reordered_messages += delivered[u];

      // Retransmit sub-rounds: only the failed edges re-send, up to
      // max_retransmits extra attempts, each one an extra synchronous
      // sub-round of the schedule (the timeout/backoff of a real transport,
      // collapsed to its round-count cost).
      for (std::int32_t attempt = 1;
           !pending.empty() && attempt <= plan->spec().max_retransmits;
           ++attempt) {
        ++stats.recovery_rounds;
        still_pending.clear();
        for (const Pending& pe : pending) {
          const Message& m = outbox[pe.from][pe.port];
          const std::int64_t sz = m.byte_size();
          ++stats.messages;
          stats.bytes += sz;
          ++stats.retransmitted_messages;
          stats.retransmitted_bytes += sz;
          const auto from_node = static_cast<NodeId>(pe.from);
          const auto port = static_cast<std::int32_t>(pe.port);
          if (plan->drops(round, from_node, port, attempt)) {
            ++stats.dropped_messages;
            still_pending.push_back(pe);
            continue;
          }
          if (plan->corrupts(round, from_node, port, attempt)) {
            ++stats.corrupted_messages;
            still_pending.push_back(pe);
            continue;
          }
          inbox[pe.to][pe.to_port] = m;
          ++stats.recovered_messages;
        }
        pending.swap(still_pending);
      }
    }

    // Budget exhausted: nothing inside the schedule can restore a message
    // the wire refused max_retransmits + 1 times.  The receiver's round
    // input is incomplete, so it freezes after its own (already clean)
    // send of this round, and it is lost: recovery cannot re-derive what
    // an unrecoverable channel never carried.
    for (const Pending& pe : pending) {
      ++stats.unrecovered_slots;
      auto& st = fo.sent_through[pe.to];
      if (st == FaultOutcome::kNeverFrozen) {
        st = round;
        fo.frozen.push_back(static_cast<NodeId>(pe.to));
      }
      fo.lost[pe.to] = 1;
    }

    // Taint propagation, one step per round -- the speed-1 light cone of
    // the synchronous model.  A neighbour of a node that went silent
    // *before* this round is missing an inbound slot now: it freezes after
    // its own send and inherits the silent node's lostness.  (Conservative:
    // the silent node might have sent nothing on this edge anyway.)  Nodes
    // appended here have sent_through == round, so the `< round` guard
    // keeps them from propagating further until the next round.
    for (std::size_t i = 0; i < fo.frozen.size(); ++i) {
      const NodeId u = fo.frozen[i];
      const auto su = static_cast<std::size_t>(u);
      if (fo.sent_through[su] >= round) continue;
      for (const HalfEdge& e : g_.neighbors(u)) {
        const auto w = static_cast<std::size_t>(e.to);
        if (fo.sent_through[w] == FaultOutcome::kNeverFrozen) {
          fo.sent_through[w] = round;
          fo.frozen.push_back(e.to);
        }
        if (fo.sent_through[w] >= round)
          fo.lost[w] = static_cast<std::uint8_t>(fo.lost[w] | fo.lost[su]);
      }
    }

    // Receive phase: only never-frozen nodes consume.  Every one of them
    // has a complete, validated inbox -- anything less froze it above --
    // so executed programs march through bitwise fault-free state.
    parallel_for(sn, threads_, [&](std::size_t u) {
      if (fo.sent_through[u] != FaultOutcome::kNeverFrozen) return;
      if (programs[u]->halted()) return;
      programs[u]->receive(round, std::span<const Message>(inbox[u]));
    });
  }

  for (std::size_t u = 0; u < sn; ++u) {
    if (fo.sent_through[u] != FaultOutcome::kNeverFrozen) continue;
    LOCMM_CHECK_MSG(programs[u]->halted(),
                    "node " << u << " did not halt within the " << rounds
                            << "-round schedule");
  }
  if (record) recorded_rounds_ = rounds;
  stats.fresh_messages = stats.messages;
  stats.fresh_bytes = stats.bytes;
  return stats;
}

void SyncNetwork::assemble_inbox(NodeId u, std::int32_t round,
                                 const std::vector<std::int32_t>& activation,
                                 std::vector<Message>& inbox,
                                 RunStats& stats) const {
  const auto neigh = g_.neighbors(u);
  inbox.resize(neigh.size());
  for (std::size_t q = 0; q < neigh.size(); ++q) {
    const NodeId w = neigh[q].to;
    const std::int32_t p = back_port_of(u, static_cast<std::int32_t>(q));
    const EncodedOutbox& row =
        history_[static_cast<std::size_t>(w)][static_cast<std::size_t>(round) -
                                              1];
    if (row.empty()) {
      inbox[q].kind = Message::Kind::kNone;
      continue;
    }
    // The history stores encoded frames (~2.5x below Message storage);
    // cache service decodes on read.  History bytes are written only by the
    // codec itself, so a decode failure is a broken internal invariant, not
    // a fault-boundary event.
    const auto f = row.frame(p);
    const WireDecodeStatus st = decode_message_frame(f, inbox[q]);
    LOCMM_CHECK_MSG(st == WireDecodeStatus::kOk,
                    "recorded history frame failed to decode ("
                        << wire_decode_status_name(st) << ")");
    if (inbox[q].kind == Message::Kind::kNone) continue;
    // A sender that already re-sent this round overwrote its row with a
    // fresh message, counted at send time; everything else is cache-served.
    const std::int32_t a = activation[static_cast<std::size_t>(w)];
    if (a == 0 || a > round) {
      ++stats.replayed_messages;
      stats.replayed_bytes += static_cast<std::int64_t>(f.size());
    }
  }
}

SyncNetwork::ReplayResult SyncNetwork::replay(
    std::span<const NodeId> dirty_seeds, const ProgramFactory& make,
    std::span<const std::int32_t> pre_dist) {
  LOCMM_CHECK_MSG(has_history(),
                  "replay() needs a prior run(..., record=true)");
  const auto sn = static_cast<std::size_t>(g_.num_nodes());
  LOCMM_CHECK(pre_dist.empty() || pre_dist.size() == sn);
  const std::int32_t T = recorded_rounds_;

  ReplayResult res;
  res.stats.rounds = T;
  if (dirty_seeds.empty()) return res;

  // Activation round per node: 1 + min(post-edit dist, pre-edit dist) to
  // the dirty seeds, 0 when the node never needs to act (distance >= T: its
  // round-k behaviour depends only on its radius-(k-1) ball, which the edit
  // never reaches within the schedule).
  std::vector<std::int32_t> activation(sn, 0);
  {
    const std::vector<std::int32_t> dist = g_.bfs_distances(dirty_seeds, T - 1);
    for (std::size_t u = 0; u < sn; ++u)
      if (dist[u] >= 0) activation[u] = dist[u] + 1;
    if (!pre_dist.empty()) {
      for (std::size_t u = 0; u < sn; ++u) {
        const std::int32_t pd = pre_dist[u];
        if (pd < 0 || pd >= T) continue;
        if (activation[u] == 0 || pd + 1 < activation[u])
          activation[u] = pd + 1;
      }
    }
  }

  // Nodes bucketed by activation round.
  std::vector<std::vector<NodeId>> activates_at(static_cast<std::size_t>(T) +
                                                1);
  for (std::size_t u = 0; u < sn; ++u) {
    if (activation[u] > 0)
      activates_at[static_cast<std::size_t>(activation[u])].push_back(
          static_cast<NodeId>(u));
  }

  // Per-executed-node scratch: an inbox buffer, and a RunStats accumulator
  // each parallel phase below writes alone.  The serial reduction at the
  // end folds the accumulators in executed order, so every count (and the
  // max) is bitwise independent of the thread count.
  std::vector<std::vector<Message>> inboxes;
  std::vector<RunStats> acc;

  for (std::int32_t round = 1; round <= T; ++round) {
    // Activate: instantiate, init, and fast-forward through the cached
    // inbox history, one worker per activated node.  Fresh messages of
    // earlier rounds already overwrote their history rows, so the cache is
    // always current here; fast-forwards only read rows of rounds < this
    // one, which no concurrent worker writes.
    const std::vector<NodeId>& act =
        activates_at[static_cast<std::size_t>(round)];
    const std::size_t base = res.executed.size();
    res.executed.insert(res.executed.end(), act.begin(), act.end());
    res.programs.resize(base + act.size());
    inboxes.resize(base + act.size());
    acc.resize(base + act.size());
    parallel_for(act.size(), threads_, [&](std::size_t i) {
      const NodeId u = act[i];
      res.programs[base + i] = make(u);
      NodeProgram& prog = *res.programs[base + i];
      prog.init(local_input(g_, u));
      for (std::int32_t j = 1; j < round && !prog.halted(); ++j) {
        assemble_inbox(u, j, activation, inboxes[base + i], acc[base + i]);
        prog.receive(j, std::span<const Message>(inboxes[base + i]));
      }
    });

    // Send phase: every executed node's history row for this round is
    // overwritten with what it sends NOW -- possibly nothing (halted or
    // silent), which clears any stale cached row so clean-cone readers and
    // later activations can never observe a pre-edit message from a
    // re-executed node.  Rows are per-node: workers share no write target.
    parallel_for(res.executed.size(), threads_, [&](std::size_t i) {
      const NodeId u = res.executed[i];
      NodeProgram& prog = *res.programs[i];
      EncodedOutbox& row = history_[static_cast<std::size_t>(
          u)][static_cast<std::size_t>(round) - 1];
      if (prog.halted()) {
        row.clear();
        return;
      }
      std::vector<Message> out = prog.send(round);
      LOCMM_CHECK_MSG(out.empty() || static_cast<std::int32_t>(out.size()) ==
                                         g_.degree(u),
                      "send() must return one message per port or nothing: "
                      "got " << out.size() << " for degree " << g_.degree(u));
      for (const Message& m : out) {
        if (m.kind == Message::Kind::kNone) continue;
        const std::int64_t sz = m.byte_size();
        ++acc[i].fresh_messages;
        acc[i].fresh_bytes += sz;
        acc[i].max_message_bytes = std::max(acc[i].max_message_bytes, sz);
      }
      encode_outbox(out, row);
    });

    // Receive phase: only executing nodes consume anything; their inboxes
    // splice fresh rows (all written behind the barrier above) with cached
    // rows of clean senders.
    parallel_for(res.executed.size(), threads_, [&](std::size_t i) {
      const NodeId u = res.executed[i];
      NodeProgram& prog = *res.programs[i];
      if (prog.halted()) return;
      assemble_inbox(u, round, activation, inboxes[i], acc[i]);
      prog.receive(round, std::span<const Message>(inboxes[i]));
    });
  }

  for (std::size_t i = 0; i < res.programs.size(); ++i) {
    LOCMM_CHECK_MSG(res.programs[i]->halted(),
                    "replay: node " << res.executed[i]
                                    << " did not halt within the recorded "
                                    << T << " rounds");
  }
  // Deterministic reduction, in executed (activation) order.
  for (const RunStats& a : acc) {
    res.stats.fresh_messages += a.fresh_messages;
    res.stats.fresh_bytes += a.fresh_bytes;
    res.stats.replayed_messages += a.replayed_messages;
    res.stats.replayed_bytes += a.replayed_bytes;
    res.stats.max_message_bytes =
        std::max(res.stats.max_message_bytes, a.max_message_bytes);
  }
  res.stats.messages =
      res.stats.fresh_messages + res.stats.replayed_messages;
  res.stats.bytes = res.stats.fresh_bytes + res.stats.replayed_bytes;
  return res;
}

}  // namespace locmm
