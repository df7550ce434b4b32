#include "dynamic/incremental_solver.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <unordered_set>

#include "core/local_solver.hpp"
#include "core/view_solver.hpp"
#include "dist/fault.hpp"
#include "dist/gather.hpp"
#include "dist/streaming.hpp"
#include "support/timer.hpp"

namespace locmm {

IncrementalSolver::IncrementalSolver(const MaxMinInstance& special)
    : IncrementalSolver(special, Options{}) {}

IncrementalSolver::IncrementalSolver(const MaxMinInstance& special,
                                     const Options& opt)
    : opt_(opt), sf_(special), g_(sf_.instance()) {
  LOCMM_CHECK_MSG(opt_.R >= 2, "R must be >= 2");
  LOCMM_CHECK_MSG(opt_.cold_faults == nullptr ||
                      opt_.engine != DynamicEngine::kMemoizedDp,
                  "cold_faults needs a distributed engine (M / S)");
  D_ = view_radius(opt_.R);

  node_stamp_.assign(static_cast<std::size_t>(g_.num_nodes()), 0);
  agent_stamp_.assign(static_cast<std::size_t>(g_.num_agents()), 0);

  const auto n = static_cast<std::size_t>(g_.num_agents());
  x_.assign(n, 0.0);

  if (opt_.engine == DynamicEngine::kMemoizedDp) {
    cold_solve_tables();
  } else {
    // Distributed cold solve: one recorded SyncNetwork run of the selected
    // engine.  The history it leaves behind is the whole update state --
    // replays splice the clean cone from it.  The network is built even for
    // an empty instance (the cold run is a no-op): apply_distributed can
    // then rely on net_ unconditionally, and an edit addressed against the
    // empty instance dies in sf_.apply's batch validation rather than on a
    // null network.  Under cold_faults the run repairs its history by
    // replaying the frozen region fault-free: a full recovery leaves net_'s
    // history bitwise equal to a fault-free recording, so every subsequent
    // apply() replays off it unchanged.  An empty instance drops the plan:
    // its crash schedule could only name nodes that do not exist.
    net_ = std::make_unique<SyncNetwork>(g_, opt_.threads);
    const std::int32_t rounds = opt_.engine == DynamicEngine::kMessagePassing
                                    ? D_
                                    : streaming_rounds(opt_.R);
    MessageRunResult run = run_fault_tolerant(
        *net_, g_.num_nodes() > 0 ? opt_.cold_faults : nullptr,
        [this](NodeId u) { return make_program(u); }, rounds, opt_.R,
        opt_.t_search, /*record=*/true);
    cold_net_ = run.stats;
    if (run.fully_recovered) {
      x_ = std::move(run.x);
    } else {
      // Graceful degradation: the repaired history is NOT trustworthy as
      // replay state (degraded agents carry fallback values), so drop the
      // network and restart cold into the engine-C tables, which every
      // later apply() then uses.  Exact, and O(ball) per update.
      net_.reset();
      opt_.engine = DynamicEngine::kMemoizedDp;
      degraded_to_local_ = true;
      cold_solve_tables();
    }
  }

  // Row sums in utility()'s own fold, so the tree's minimum is bitwise
  // utility(x_).
  objective_sums_ = MinTree(sf_.instance().objective_values(x_));
}

void IncrementalSolver::cold_solve_tables() {
  SpecialRunResult run = solve_special_centralized(sf_, opt_.R, opt_.t_search,
                                                   opt_.threads);
  t_ = MinTree(std::move(run.t));
  s_ = std::move(run.s);
  g_plus_ = std::move(run.g.plus);
  g_minus_ = std::move(run.g.minus);
  x_ = std::move(run.x);

  const auto n = static_cast<std::size_t>(g_.num_agents());
  t_stamp_.assign(static_cast<std::size_t>(g_.num_nodes()), 0);
  ball_pos_.assign(n, 0);
  s_seen_.assign(n, 0);
}

void IncrementalSolver::collect_dirty(const CommGraph& g,
                                      const std::vector<NodeId>& seeds,
                                      std::vector<AgentId>& dirty) {
  // Fresh node stamps per flood (distances differ between the pre- and
  // post-edit graphs); the agent stamp persists across the two floods of
  // one update, so `dirty` accumulates the union without duplicates.
  const std::uint32_t flood_epoch = ++epoch_;
  const std::uint32_t agent_epoch = epoch_ - (epoch_ % 2 == 0 ? 1 : 0);
  auto take_agent = [&](NodeId node) {
    if (g.type(node) != NodeType::kAgent) return;
    auto& stamp = agent_stamp_[static_cast<std::size_t>(node)];
    if (stamp >= agent_epoch) return;
    stamp = agent_epoch;
    dirty.push_back(static_cast<AgentId>(node));
  };

  bfs_cur_.clear();
  bfs_next_.clear();
  for (const NodeId s : seeds) {
    auto& stamp = node_stamp_[static_cast<std::size_t>(s)];
    if (stamp == flood_epoch) continue;
    stamp = flood_epoch;
    bfs_cur_.push_back(s);
    take_agent(s);
  }
  for (std::int32_t dist = 0; dist < D_ && !bfs_cur_.empty(); ++dist) {
    for (const NodeId u : bfs_cur_) {
      for (const HalfEdge& e : g.neighbors(u)) {
        auto& stamp = node_stamp_[static_cast<std::size_t>(e.to)];
        if (stamp == flood_epoch) continue;
        stamp = flood_epoch;
        bfs_next_.push_back(e.to);
        take_agent(e.to);
      }
    }
    bfs_cur_.swap(bfs_next_);
    bfs_next_.clear();
  }
}

void IncrementalSolver::flood_t_cone(const CommGraph& g,
                                     const std::vector<NodeId>& seeds) {
  // 4r+3 comm-graph hops bound every coefficient the t recursion (and its
  // bisection bracket) reads; see the declaration comment.
  const std::int32_t depth = 4 * (opt_.R - 2) + 3;
  const std::uint32_t flood_epoch = ++t_epoch_;
  bfs_cur_.clear();
  bfs_next_.clear();
  for (const NodeId s : seeds) {
    auto& stamp = t_stamp_[static_cast<std::size_t>(s)];
    if (stamp == flood_epoch) continue;
    stamp = flood_epoch;
    bfs_cur_.push_back(s);
    if (g.type(s) == NodeType::kAgent) t_cone_.push_back(static_cast<AgentId>(s));
  }
  for (std::int32_t dist = 0; dist < depth && !bfs_cur_.empty(); ++dist) {
    for (const NodeId u : bfs_cur_) {
      for (const HalfEdge& e : g.neighbors(u)) {
        auto& stamp = t_stamp_[static_cast<std::size_t>(e.to)];
        if (stamp == flood_epoch) continue;
        stamp = flood_epoch;
        bfs_next_.push_back(e.to);
        if (g.type(e.to) == NodeType::kAgent)
          t_cone_.push_back(static_cast<AgentId>(e.to));
      }
    }
    bfs_cur_.swap(bfs_next_);
    bfs_next_.clear();
  }
}

std::unique_ptr<NodeProgram> IncrementalSolver::make_program(
    NodeId /*node*/) const {
  if (opt_.engine == DynamicEngine::kMessagePassing)
    return std::make_unique<GatherProgram>(D_, opt_.R, opt_.t_search);
  return make_streaming_program(opt_.R, opt_.t_search);
}

const std::vector<double>& IncrementalSolver::apply(
    const InstanceDelta& delta, const Deadline* deadline) {
  LOCMM_CHECK_MSG(deadline == nullptr ||
                      opt_.engine == DynamicEngine::kMemoizedDp,
                  "deadline-bounded apply is an engine-C feature; the "
                  "distributed replays have no abandon points");
  last_ = {};
  last_.agents_reused = g_.num_agents();
  rewritten_.clear();
  if (delta.empty()) return x_;

  // Admission before anything mutates or even advances (flood stamps): a
  // rejected delta leaves the solver bitwise untouched.
  const std::vector<std::string> violations = sf_.check_applicable(delta);
  LOCMM_CHECK_MSG(violations.empty(),
                  "delta rejected: " << violations.front()
                                     << (violations.size() > 1
                                             ? " (+" +
                                                   std::to_string(
                                                       violations.size() - 1) +
                                                   " more)"
                                             : ""));

  // Dirty seeds: both endpoints of every touched edge.  Row/agent counts
  // never change under membership edits, so node ids are stable across the
  // pre- and post-edit graphs and one seed list serves both floods.
  std::vector<NodeId> seeds;
  delta.for_each_touched_edge(
      [&](RowKind kind, std::int32_t row, AgentId agent) {
        seeds.push_back(kind == RowKind::kConstraint
                            ? g_.constraint_node(row)
                            : g_.objective_node(row));
        seeds.push_back(g_.agent_node(agent));
      });
  std::sort(seeds.begin(), seeds.end());
  seeds.erase(std::unique(seeds.begin(), seeds.end()), seeds.end());

  if (opt_.engine == DynamicEngine::kMemoizedDp) {
    apply_tables(seeds, delta, deadline);
  } else {
    apply_distributed(seeds, delta);
  }

  // Objective sums: every objective of a rewritten agent, plus the
  // objective rows the batch edits (membership moves change a row without
  // necessarily changing the moved agent's x).
  Timer sums_timer;
  objectives_.clear();
  for (const AgentId v : rewritten_) objectives_.push_back(sf_.objective(v));
  delta.for_each_touched_edge([&](RowKind kind, std::int32_t row, AgentId) {
    if (kind == RowKind::kObjective) objectives_.push_back(row);
  });
  std::sort(objectives_.begin(), objectives_.end());
  objectives_.erase(std::unique(objectives_.begin(), objectives_.end()),
                    objectives_.end());
  for (const ObjectiveId k : objectives_) {
    objective_sums_.set(static_cast<std::size_t>(k),
                        sf_.instance().objective_value(k, x_));
  }
  last_.sums_rewritten = static_cast<std::int64_t>(objectives_.size());
  last_.broadcast_us += sums_timer.micros();

  if (TSearchStats* s = opt_.t_search.stats; s != nullptr) {
    s->agents_dirty.fetch_add(last_.agents_dirty, std::memory_order_relaxed);
    s->agents_reused.fetch_add(last_.agents_reused,
                               std::memory_order_relaxed);
  }
  return x_;
}

void IncrementalSolver::apply_distributed(const std::vector<NodeId>& seeds,
                                          const InstanceDelta& delta) {
  // Pre-edit distances for structural deltas: a removed edge can leave
  // nodes that were reachable only through it arbitrarily far from every
  // seed in the post-edit graph while their cached messages still encode
  // paths through it -- the replay must activate them too (the same
  // pre+post-graph flood the engine-C path runs for its dirty ball).
  std::vector<std::int32_t> pre_dist;
  Timer flood_timer;
  if (delta.structural()) {
    pre_dist = g_.bfs_distances(std::span<const NodeId>(seeds),
                                net_->recorded_rounds() - 1);
  }
  last_.flood_us += flood_timer.micros();

  Timer apply_timer;
  sf_.apply(delta);
  if (delta.structural()) {
    g_.apply_delta(delta, sf_.instance());
    LOCMM_CHECK(static_cast<std::size_t>(g_.num_nodes()) ==
                node_stamp_.size());
    net_->refresh_topology();
  } else {
    for (const CoeffEdit& e : delta.coeff_edits) {
      const NodeId row = e.kind == RowKind::kConstraint
                             ? g_.constraint_node(e.row)
                             : g_.objective_node(e.row);
      g_.set_edge_coefficient(row, g_.agent_node(e.agent), e.coeff);
    }
  }
  last_.apply_us = apply_timer.micros();

  Timer eval_timer;
  SyncNetwork::ReplayResult rep = net_->replay(
      seeds, [this](NodeId u) { return make_program(u); }, pre_dist);
  last_.eval_us = eval_timer.micros();
  last_.net = rep.stats;

  for (std::size_t i = 0; i < rep.executed.size(); ++i) {
    const NodeId u = rep.executed[i];
    if (g_.type(u) != NodeType::kAgent) continue;
    rewritten_.push_back(static_cast<AgentId>(u));
    x_[static_cast<std::size_t>(u)] =
        static_cast<const AgentNodeProgram*>(rep.programs[i].get())->x();
  }
  std::sort(rewritten_.begin(), rewritten_.end());
  last_.agents_dirty = static_cast<std::int64_t>(rewritten_.size());
  last_.agents_reused = g_.num_agents() - last_.agents_dirty;
  last_.evals = last_.agents_dirty;
}

double IncrementalSolver::staged_t(AgentId u) const {
  return in_ball(u) ? t_new_[ball_index(u)]
                    : t_.values()[static_cast<std::size_t>(u)];
}

double IncrementalSolver::staged_g_plus(std::int32_t d, AgentId u) const {
  const auto sd = static_cast<std::size_t>(d);
  return in_ball(u) ? g_plus_new_[sd * rewritten_.size() + ball_index(u)]
                    : g_plus_[sd][static_cast<std::size_t>(u)];
}

double IncrementalSolver::staged_g_minus(std::int32_t d, AgentId u) const {
  const auto sd = static_cast<std::size_t>(d);
  return in_ball(u) ? g_minus_new_[sd * rewritten_.size() + ball_index(u)]
                    : g_minus_[sd][static_cast<std::size_t>(u)];
}

void IncrementalSolver::apply_tables(const std::vector<NodeId>& seeds,
                                     const InstanceDelta& delta,
                                     const Deadline* deadline) {
  const std::int32_t r = opt_.R - 2;

  // Near-wrap renumbering: the stamp arrays only ever compare against the
  // current epoch, so zeroing them and restarting the counter is invisible
  // -- one O(n) fill per ~4 billion updates keeps a long-lived solver
  // running forever (each update claims at most 3 epochs).
  constexpr std::uint32_t kEpochRenumber = 0xFFFFFF00u;
  if (epoch_ >= kEpochRenumber) {
    std::fill(node_stamp_.begin(), node_stamp_.end(), 0u);
    std::fill(agent_stamp_.begin(), agent_stamp_.end(), 0u);
    epoch_ = 0;
  }
  if (t_epoch_ >= kEpochRenumber) {
    std::fill(t_stamp_.begin(), t_stamp_.end(), 0u);
    t_epoch_ = 0;
  }
  t_cone_.clear();

  // The per-update agent-dedup epoch spans the (up to) two floods below;
  // collect_dirty claims epoch numbers pairwise, so force the counter onto
  // an even boundary first: both floods then share one agent epoch, which
  // then marks ball membership.
  if (epoch_ % 2 != 0) ++epoch_;
  ball_epoch_ = epoch_ + 1;

  // Everything up to the sf_.apply below reads the PRE-edit state, so a
  // deadline expiring here abandons with nothing to roll back (flood
  // stamps are scratch, not observable solve state).
  if (deadline != nullptr) deadline->check("admission");

  Timer flood_timer;
  if (delta.structural()) {
    // Pre-edit ball and t cone: agents that can *lose* sight of a removed
    // edge (the new graph may put them beyond reach of every seed).
    // Coefficient-only deltas keep the topology, so their pre- and
    // post-edit floods coincide and the post floods suffice.
    collect_dirty(g_, seeds, rewritten_);
    flood_t_cone(g_, seeds);
  }
  last_.flood_us += flood_timer.micros();

  // Rollback state, captured before the mutation: a structural delta
  // snapshots only the rows and agents it touches (O(ball) copies, matching
  // the O(ball) splice it precedes); a coefficient-only delta records the
  // inverse edits (first write per entry wins, so duplicate edits in one
  // batch still restore the original value).
  std::optional<SpecialFormPatch> pre_edit;
  InstanceDelta inverse;
  if (delta.structural()) {
    pre_edit = sf_.snapshot_for(delta);
  } else {
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(delta.coeff_edits.size());
    for (const CoeffEdit& e : delta.coeff_edits) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(e.kind == RowKind::kObjective) << 63) |
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.row))
           << 32) |
          static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.agent));
      if (!seen.insert(key).second) continue;
      const auto row = e.kind == RowKind::kConstraint
                           ? sf_.instance().constraint_row(e.row)
                           : sf_.instance().objective_row(e.row);
      for (const Entry& en : row) {
        if (en.agent == e.agent) {
          inverse.coeff_edits.push_back({e.kind, e.row, e.agent, en.coeff});
          break;
        }
      }
    }
  }

  Timer apply_timer;
  sf_.apply(delta);
  if (delta.structural()) {
    g_.apply_delta(delta, sf_.instance());
    LOCMM_CHECK(static_cast<std::size_t>(g_.num_nodes()) ==
                node_stamp_.size());
  } else {
    for (const CoeffEdit& e : delta.coeff_edits) {
      const NodeId row = e.kind == RowKind::kConstraint
                             ? g_.constraint_node(e.row)
                             : g_.objective_node(e.row);
      g_.set_edge_coefficient(row, g_.agent_node(e.agent), e.coeff);
    }
  }
  last_.apply_us = apply_timer.micros();

  const std::vector<AgentId>& ball = rewritten_;
  try {
    if (deadline != nullptr) deadline->check("graph patch");

    flood_timer.reset();
    collect_dirty(g_, seeds, rewritten_);  // post-edit ball
    std::sort(rewritten_.begin(), rewritten_.end());
    flood_t_cone(g_, seeds);  // post-edit t cone
    std::sort(t_cone_.begin(), t_cone_.end());
    t_cone_.erase(std::unique(t_cone_.begin(), t_cone_.end()), t_cone_.end());
    last_.flood_us += flood_timer.micros();

    const std::size_t nb = ball.size();
    for (std::size_t i = 0; i < nb; ++i) {
      ball_pos_[static_cast<std::size_t>(ball[i])] =
          static_cast<std::int32_t>(i);
    }
    last_.agents_dirty = static_cast<std::int64_t>(nb);
    last_.agents_reused = g_.num_agents() - last_.agents_dirty;
    last_.cone_t_recomputed = static_cast<std::int64_t>(t_cone_.size());
    last_.warm_t_reused = last_.agents_dirty - last_.cone_t_recomputed;
    last_.evals = last_.agents_dirty;

    // Every value below is staged per ball position; the tables are read
    // for agents outside the ball (whose entries the edit cannot reach) and
    // written only after the last deadline probe.
    Timer eval_timer;
    t_new_.resize(nb);
    for (std::size_t i = 0; i < nb; ++i)
      t_new_[i] = t_.values()[static_cast<std::size_t>(ball[i])];
    for (const AgentId u : t_cone_) {
      if (deadline != nullptr) deadline->check("t re-bisection");
      LOCMM_DCHECK(in_ball(u));  // radius 4r+3 < D(R) around the same seeds
      t_new_[ball_index(u)] = compute_t_single(sf_, u, r, opt_.t_search);
    }
    if (deadline != nullptr) deadline->check("smoothing");

    // s_v: the minimum of t over the agents within 2r+1 agent hops (arc
    // partners and siblings) -- smooth_min's 2r+1 rounds of neighbourhood
    // minima, taken per agent.  A minimum is exact, so the two agree
    // bitwise.
    s_new_.resize(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      double m = staged_t(ball[i]);
      s_walk_.assign(1, ball[i]);
      s_seen_[static_cast<std::size_t>(ball[i])] = 1;
      const auto visit = [&](AgentId w) {
        auto& seen = s_seen_[static_cast<std::size_t>(w)];
        if (seen != 0) return;
        seen = 1;
        s_walk_.push_back(w);
        m = std::min(m, staged_t(w));
      };
      std::size_t begin = 0;
      for (std::int32_t step = 0; step < 2 * r + 1; ++step) {
        const std::size_t end = s_walk_.size();
        for (std::size_t j = begin; j < end; ++j) {
          for (const ConstraintArc& arc : sf_.arcs(s_walk_[j]))
            visit(arc.partner);
          for (const AgentId w : sf_.siblings(s_walk_[j])) visit(w);
        }
        begin = end;
      }
      for (const AgentId w : s_walk_) s_seen_[static_cast<std::size_t>(w)] = 0;
      s_new_[i] = m;
    }
    if (deadline != nullptr) deadline->check("g recursion");

    // g± depth by depth, g+ before g- (compute_g's order and arithmetic),
    // then the output (18) with output_x's reduction order.
    const auto depths = static_cast<std::size_t>(r) + 1;
    g_plus_new_.resize(depths * nb);
    g_minus_new_.resize(depths * nb);
    for (std::int32_t d = 0; d <= r; ++d) {
      double* const gp = g_plus_new_.data() + static_cast<std::size_t>(d) * nb;
      double* const gm = g_minus_new_.data() + static_cast<std::size_t>(d) * nb;
      for (std::size_t i = 0; i < nb; ++i) {
        if (d == 0) {
          gp[i] = sf_.inv_cap(ball[i]);  // (12)
          continue;
        }
        double val = std::numeric_limits<double>::infinity();
        for (const ConstraintArc& arc : sf_.arcs(ball[i])) {
          val = std::min(
              val, (1.0 - arc.a_partner * staged_g_minus(d - 1, arc.partner)) /
                       arc.a_self);  // (14)
        }
        gp[i] = val;
      }
      for (std::size_t i = 0; i < nb; ++i) {
        double sum = 0.0;
        for (const AgentId w : sf_.siblings(ball[i]))
          sum += staged_g_plus(d, w);
        gm[i] = std::max(0.0, s_new_[i] - sum);  // (13)
      }
    }
    const double two_R = 2.0 * static_cast<double>(r + 2);
    x_new_.resize(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      double sum = 0.0;
      for (std::size_t d = 0; d < depths; ++d)
        sum += g_plus_new_[d * nb + i] + g_minus_new_[d * nb + i];
      x_new_[i] = sum / two_R;  // (18)
    }
    last_.eval_us = eval_timer.micros();
    if (deadline != nullptr) deadline->check("commit");
  } catch (...) {
    // Commit-or-rollback: undo the instance + graph mutation, leaving the
    // solver bitwise as before the call (the tables and x_ were never
    // written -- the commit runs strictly after the last throw point).  The
    // structural path restores the touched rows from the O(ball) patch and
    // re-splices the graph against the restored instance (apply_delta is
    // symmetric: the touched node set is the same either way); the
    // coefficient path applies the recorded inverse.
    if (pre_edit.has_value()) {
      sf_.restore(*pre_edit);
      g_.apply_delta(delta, sf_.instance());
    } else {
      sf_.apply(inverse);
      for (const CoeffEdit& e : inverse.coeff_edits) {
        const NodeId row = e.kind == RowKind::kConstraint
                               ? g_.constraint_node(e.row)
                               : g_.objective_node(e.row);
        g_.set_edge_coefficient(row, g_.agent_node(e.agent), e.coeff);
      }
    }
    last_ = {};
    last_.agents_reused = g_.num_agents();
    rewritten_.clear();
    throw;
  }

  // Commit: pure writes from here on.
  Timer commit_timer;
  const std::size_t nb = ball.size();
  for (const AgentId u : t_cone_)
    t_.set(static_cast<std::size_t>(u), t_new_[ball_index(u)]);
  for (std::size_t i = 0; i < nb; ++i) {
    const auto v = static_cast<std::size_t>(ball[i]);
    s_[v] = s_new_[i];
    for (std::size_t d = 0; d <= static_cast<std::size_t>(r); ++d) {
      g_plus_[d][v] = g_plus_new_[d * nb + i];
      g_minus_[d][v] = g_minus_new_[d * nb + i];
    }
    x_[v] = x_new_[i];
  }
  last_.broadcast_us = commit_timer.micros();
  if (TSearchStats* s = opt_.t_search.stats; s != nullptr) {
    s->g_evals.fetch_add(2 * static_cast<std::int64_t>(nb) * (r + 1),
                         std::memory_order_relaxed);
  }
}

}  // namespace locmm
