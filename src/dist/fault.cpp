#include "dist/fault.hpp"

#include <algorithm>
#include <utility>

#include "core/view_solver.hpp"
#include "support/hash.hpp"

namespace locmm {

namespace {

// Distinct decision streams per fault kind: the same (round, node, port,
// attempt) coordinates must answer independently for drop vs corrupt vs
// duplicate, so each query salts the seed differently before mixing.
constexpr std::uint64_t kDropSalt = 0x64726f7065640001ull;
constexpr std::uint64_t kCorruptSalt = 0x636f727275707402ull;
constexpr std::uint64_t kCorruptBitsSalt = 0x636f727242697403ull;
constexpr std::uint64_t kDuplicateSalt = 0x6475706c69636104ull;
constexpr std::uint64_t kReorderSalt = 0x72656f7264657205ull;

std::uint64_t decision_hash(std::uint64_t seed, std::uint64_t salt,
                            std::int32_t round, NodeId node, std::int32_t port,
                            std::int32_t attempt) {
  std::uint64_t h = mix64(seed ^ salt);
  h = hash_combine(h, static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(round)));
  h = hash_combine(h, static_cast<std::uint64_t>(node));
  h = hash_combine(h, static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(port)));
  h = hash_combine(h, static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(attempt)));
  return h;
}

// The top 53 bits as a uniform double in [0, 1).
double to_unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void check_rate(double rate, const char* name) {
  LOCMM_CHECK_MSG(rate >= 0.0 && rate <= 1.0,
                  name << " must be in [0, 1], got " << rate);
}

}  // namespace

FaultPlan::FaultPlan(FaultSpec spec) : spec_(std::move(spec)) {
  check_rate(spec_.drop_rate, "drop_rate");
  check_rate(spec_.corrupt_rate, "corrupt_rate");
  check_rate(spec_.duplicate_rate, "duplicate_rate");
  check_rate(spec_.reorder_rate, "reorder_rate");
  LOCMM_CHECK_MSG(spec_.max_retransmits >= 0,
                  "max_retransmits must be >= 0, got "
                      << spec_.max_retransmits);
  for (const CrashEvent& ev : spec_.crashes) {
    LOCMM_CHECK_MSG(ev.round >= 1,
                    "crash round must be >= 1, got " << ev.round);
    LOCMM_CHECK_MSG(ev.restart_round < 0 || ev.restart_round >= ev.round,
                    "restart round " << ev.restart_round
                        << " precedes crash round " << ev.round);
  }
}

bool FaultPlan::any_faults() const {
  return spec_.drop_rate > 0.0 || spec_.corrupt_rate > 0.0 ||
         spec_.duplicate_rate > 0.0 || spec_.reorder_rate > 0.0 ||
         !spec_.crashes.empty();
}

bool FaultPlan::drops(std::int32_t round, NodeId node, std::int32_t port,
                      std::int32_t attempt) const {
  return spec_.drop_rate > 0.0 &&
         to_unit(decision_hash(spec_.seed, kDropSalt, round, node, port,
                               attempt)) < spec_.drop_rate;
}

bool FaultPlan::corrupts(std::int32_t round, NodeId node, std::int32_t port,
                         std::int32_t attempt) const {
  return spec_.corrupt_rate > 0.0 &&
         to_unit(decision_hash(spec_.seed, kCorruptSalt, round, node, port,
                               attempt)) < spec_.corrupt_rate;
}

std::uint64_t FaultPlan::corruption_bits(std::int32_t round, NodeId node,
                                         std::int32_t port) const {
  return decision_hash(spec_.seed, kCorruptBitsSalt, round, node, port, 0);
}

bool FaultPlan::duplicates(std::int32_t round, NodeId node,
                           std::int32_t port) const {
  return spec_.duplicate_rate > 0.0 &&
         to_unit(decision_hash(spec_.seed, kDuplicateSalt, round, node, port,
                               0)) < spec_.duplicate_rate;
}

bool FaultPlan::reorders(std::int32_t round, NodeId receiver) const {
  return spec_.reorder_rate > 0.0 &&
         to_unit(decision_hash(spec_.seed, kReorderSalt, round, receiver, 0,
                               0)) < spec_.reorder_rate;
}

const CrashEvent* FaultPlan::crash_at(NodeId node, std::int32_t round) const {
  for (const CrashEvent& ev : spec_.crashes)
    if (ev.node == node && ev.round == round) return &ev;
  return nullptr;
}

// ---------------------------------------------------------------------------
// The delivery-boundary validation.
// ---------------------------------------------------------------------------

bool wire_view_well_formed(std::span<const WireNode> blob) {
  if (blob.empty()) return false;
  // Field sanity first, so the structural fold below never trusts a count
  // it has not vetted.  Every wire node hangs below an edge, so it has a
  // parent port within its own degree, and (non-backtracking rule) at most
  // degree - 1 preorder children.  constraint_degree partitions an agent's
  // ports and is zero for relays.
  for (const WireNode& w : blob) {
    const auto type_byte = static_cast<std::uint8_t>(w.type);
    if (type_byte > static_cast<std::uint8_t>(NodeType::kObjective))
      return false;
    if (w.degree < 1) return false;
    if (w.parent_port < 0 || w.parent_port >= w.degree) return false;
    if (w.num_children < 0 || w.num_children > w.degree - 1) return false;
    if (w.constraint_degree < 0 || w.constraint_degree > w.degree)
      return false;
    if (w.type != NodeType::kAgent && w.constraint_degree != 0) return false;
  }
  // Exactly one preorder subtree: the same reverse fold
  // ViewAssembler::assemble runs, but as a predicate -- this is what lets
  // the assemble CHECKs stay internal invariants (nothing malformed gets
  // past the delivery boundary to reach them).
  std::vector<std::int32_t> stack;
  for (std::int32_t i = static_cast<std::int32_t>(blob.size()) - 1; i >= 0;
       --i) {
    const std::int32_t nc = blob[static_cast<std::size_t>(i)].num_children;
    for (std::int32_t c = 0; c < nc; ++c) {
      if (stack.empty()) return false;
      stack.pop_back();
    }
    stack.push_back(i);
  }
  return stack.size() == 1;
}

// ---------------------------------------------------------------------------
// run_fault_tolerant -- injection, recovery, degradation -- and run_engine.
// ---------------------------------------------------------------------------

MessageRunResult run_fault_tolerant(SyncNetwork& net, const FaultPlan* plan,
                                    const SyncNetwork::ProgramFactory& make,
                                    std::int32_t rounds, std::int32_t R,
                                    const TSearchOptions& opt, bool record) {
  LOCMM_CHECK_MSG(R >= 2, "R must be >= 2");
  if (plan != nullptr && !plan->any_faults()) plan = nullptr;
  const CommGraph& g = net.graph();
  const auto sn = static_cast<std::size_t>(g.num_nodes());

  std::vector<std::unique_ptr<NodeProgram>> programs;
  programs.reserve(sn);
  for (NodeId u = 0; u < g.num_nodes(); ++u) programs.push_back(make(u));

  MessageRunResult res;
  FaultOutcome fo;
  res.stats = net.run(programs, rounds, record, plan, &fo);

  // Recovery: the frozen cone re-executes through the recorded history on a
  // fault-free control channel.  replay() serves the clean region from
  // cache and overwrites frozen rows with what those nodes truly compute,
  // so afterwards the history -- and every re-executed program's state --
  // is bitwise identical to a fault-free recorded run.  Lost nodes
  // re-execute too: that restores the *history* (so dynamic updates can
  // keep building on it); their agents are still flagged below, because
  // the physical node never produced those values.
  SyncNetwork::ReplayResult rep;
  std::vector<std::int64_t> executed_slot(sn, -1);
  if (!fo.clean()) {
    rep = net.replay(fo.frozen, make);
    res.recovered_nodes = static_cast<std::int64_t>(rep.executed.size());
    for (std::size_t i = 0; i < rep.executed.size(); ++i)
      executed_slot[static_cast<std::size_t>(rep.executed[i])] =
          static_cast<std::int64_t>(i);
    res.stats.fresh_messages += rep.stats.fresh_messages;
    res.stats.fresh_bytes += rep.stats.fresh_bytes;
    res.stats.replayed_messages += rep.stats.replayed_messages;
    res.stats.replayed_bytes += rep.stats.replayed_bytes;
    res.stats.max_message_bytes =
        std::max(res.stats.max_message_bytes, rep.stats.max_message_bytes);
    res.stats.messages =
        res.stats.fresh_messages + res.stats.replayed_messages;
    res.stats.bytes = res.stats.fresh_bytes + res.stats.replayed_bytes;
  }

  const std::int32_t num_agents = g.num_agents();
  res.x.assign(static_cast<std::size_t>(num_agents), 0.0);
  if (plan != nullptr)
    res.degraded.assign(static_cast<std::size_t>(num_agents), 0);
  ViewEvalScratch scratch;
  for (std::int32_t v = 0; v < num_agents; ++v) {
    const NodeId node = g.agent_node(v);
    const auto svn = static_cast<std::size_t>(node);
    const auto sv = static_cast<std::size_t>(v);
    if (fo.lost[svn] != 0) {
      // Unrecoverable cone: the agent's true in-network value consumed a
      // message no retransmit could restore (or flowed through a node that
      // never came back).  Degrade to the engine-L evaluation of its
      // radius-D(R) ball, read off the graph -- the centrally-assisted
      // fallback a deployment runs for a dead sensor's neighbourhood.
      // Bitwise the value engines M and S compute fault-free.
      res.degraded[sv] = 1;
      ++res.degraded_agents;
      res.x[sv] = solve_agent_on_graph(g, v, R, opt, &scratch);
      continue;
    }
    const std::int64_t slot = executed_slot[svn];
    const NodeProgram* prog =
        slot >= 0 ? rep.programs[static_cast<std::size_t>(slot)].get()
                  : programs[svn].get();
    res.x[sv] = static_cast<const AgentNodeProgram*>(prog)->x();
  }
  res.fully_recovered = res.degraded_agents == 0;
  return res;
}

MessageRunResult run_engine(const MaxMinInstance& special,
                            const SyncNetwork::ProgramFactory& make,
                            std::int32_t rounds, std::int32_t R,
                            const TSearchOptions& opt, std::size_t threads,
                            const FaultPlan* faults, const DistOptions& dist) {
  const CommGraph g(special);
  if (dist.transport != TransportKind::kInProcess) {
    LOCMM_CHECK_MSG(faults == nullptr,
                    "fault injection is in-process only (the recovery replay "
                    "needs the full history in one address space)");
    return run_multiprocess(g, make, rounds, special.num_agents(), dist);
  }
  SyncNetwork net(g, threads);
  return run_fault_tolerant(net, faults, make, rounds, R, opt);
}

}  // namespace locmm
