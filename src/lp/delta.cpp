#include "lp/delta.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>
#include <unordered_map>

namespace locmm {

const char* to_string(RowKind k) {
  switch (k) {
    case RowKind::kConstraint: return "constraint";
    case RowKind::kObjective: return "objective";
  }
  return "?";
}

namespace {

// The spliced-CSR pair an edit addresses: row entries + agent incidence,
// selected by RowKind.  Both live inside MaxMinInstance; the helpers below
// splice the touched row and agent only -- O(row degree), never O(nnz).
struct RowArrays {
  SplicedRows<Entry>& rows;
  SplicedRows<Incidence>& agents;
};

std::int64_t find_in_row(const RowArrays& a, std::int32_t row, AgentId v) {
  const auto entries = a.rows.row(static_cast<std::size_t>(row));
  for (std::size_t j = 0; j < entries.size(); ++j) {
    if (entries[j].agent == v) return static_cast<std::int64_t>(j);
  }
  return -1;
}

std::int64_t find_in_agent(const RowArrays& a, AgentId v, std::int32_t row) {
  const auto inc = a.agents.row(static_cast<std::size_t>(v));
  for (std::size_t j = 0; j < inc.size(); ++j) {
    if (inc[j].row == row) return static_cast<std::int64_t>(j);
  }
  return -1;
}

// The mutation helpers below run only after check_applicable has admitted
// the whole batch, so their lookups cannot fail on well-formed callers; the
// CHECKs that remain guard the internal CSR invariants, not the input.

void remove_membership(RowArrays a, const MembershipEdit& e) {
  const std::int64_t rj = find_in_row(a, e.row, e.agent);
  LOCMM_CHECK(rj >= 0);
  a.rows.erase(static_cast<std::size_t>(e.row), static_cast<std::size_t>(rj));
  const std::int64_t aj = find_in_agent(a, e.agent, e.row);
  LOCMM_CHECK(aj >= 0);
  a.agents.erase(static_cast<std::size_t>(e.agent),
                 static_cast<std::size_t>(aj));
}

void add_membership(RowArrays a, const MembershipEdit& e) {
  // Appended at the end of the row: the new entry takes the last port,
  // exactly where InstanceBuilder would put it.
  a.rows.push_back(static_cast<std::size_t>(e.row), Entry{e.agent, e.coeff});
  // Agent side: the builder scans rows in id order, so the incidence list is
  // sorted ascending by row; insert at the position that keeps it so.
  const auto inc = a.agents.row(static_cast<std::size_t>(e.agent));
  std::size_t pos = 0;
  while (pos < inc.size() && inc[pos].row < e.row) ++pos;
  a.agents.insert(static_cast<std::size_t>(e.agent), pos,
                  Incidence{e.row, e.coeff});
}

void edit_coefficient(RowArrays a, const CoeffEdit& e) {
  const std::int64_t rj = find_in_row(a, e.row, e.agent);
  LOCMM_CHECK(rj >= 0);
  a.rows.mutable_row(
      static_cast<std::size_t>(e.row))[static_cast<std::size_t>(rj)]
      .coeff = e.coeff;
  const std::int64_t aj = find_in_agent(a, e.agent, e.row);
  LOCMM_CHECK(aj >= 0);
  a.agents.mutable_row(
      static_cast<std::size_t>(e.agent))[static_cast<std::size_t>(aj)]
      .coeff = e.coeff;
}

// 64-bit keys for the dry-run simulation maps: (kind, row, agent) for
// memberships, (kind, id) for per-row / per-agent growth accounting.
std::uint64_t edge_key(RowKind k, std::int32_t row, AgentId agent) {
  return (static_cast<std::uint64_t>(k == RowKind::kObjective) << 63) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(row)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(agent));
}
std::uint64_t id_key(RowKind k, std::int32_t id) {
  return (static_cast<std::uint64_t>(k == RowKind::kObjective) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(id));
}

}  // namespace

std::vector<std::string> InstanceDelta::check_applicable(
    const MaxMinInstance& inst) const {
  std::vector<std::string> out;
  auto complain = [&out](const auto& streamable) {
    std::ostringstream os;
    streamable(os);
    out.push_back(os.str());
  };

  // Batch-local state: membership overrides keyed by (kind, row, agent),
  // and net growth per touched row / per touched agent incidence list.  The
  // instance is consulted lazily (one row scan per distinct edge), so the
  // dry run costs O(batch * row degree) like apply() itself -- never O(n).
  std::unordered_map<std::uint64_t, bool> present;
  std::unordered_map<std::uint64_t, std::int64_t> row_growth;
  std::unordered_map<std::uint64_t, std::int64_t> agent_growth;

  auto rows_of = [&inst](RowKind k) {
    return k == RowKind::kConstraint ? inst.num_constraints()
                                     : inst.num_objectives();
  };
  auto ids_ok = [&](RowKind k, std::int32_t row, AgentId agent) {
    bool ok = true;
    if (row < 0 || row >= rows_of(k)) {
      complain([&](std::ostringstream& os) {
        os << to_string(k) << " row " << row << " out of range";
      });
      ok = false;
    }
    if (agent < 0 || agent >= inst.num_agents()) {
      complain([&](std::ostringstream& os) {
        os << "agent " << agent << " out of range";
      });
      ok = false;
    }
    return ok;
  };
  auto entry_in_instance = [&](RowKind k, std::int32_t row, AgentId agent) {
    const auto entries = k == RowKind::kConstraint ? inst.constraint_row(row)
                                                   : inst.objective_row(row);
    for (const Entry& e : entries) {
      if (e.agent == agent) return true;
    }
    return false;
  };
  auto is_present = [&](RowKind k, std::int32_t row, AgentId agent) {
    const auto it = present.find(edge_key(k, row, agent));
    if (it != present.end()) return it->second;
    return entry_in_instance(k, row, agent);
  };
  auto coeff_ok = [&](RowKind k, std::int32_t row, AgentId agent, double c,
                      const char* verb) {
    if (c > 0.0 && std::isfinite(c)) return true;
    complain([&](std::ostringstream& os) {
      os << "delta " << verb << " " << to_string(k) << " row " << row
         << ", agent " << agent << " with "
         << (c > 0.0 ? "non-finite" : "non-positive") << " coefficient " << c;
    });
    return false;
  };

  for (const MembershipEdit& e : removes) {
    if (!ids_ok(e.kind, e.row, e.agent)) continue;
    if (!is_present(e.kind, e.row, e.agent)) {
      complain([&](std::ostringstream& os) {
        os << "delta removes agent " << e.agent << " from "
           << to_string(e.kind) << " row " << e.row
           << ", but it is not there";
      });
      continue;
    }
    present[edge_key(e.kind, e.row, e.agent)] = false;
    --row_growth[id_key(e.kind, e.row)];
    --agent_growth[edge_key(e.kind, 0, e.agent)];
  }
  for (const MembershipEdit& e : adds) {
    if (!ids_ok(e.kind, e.row, e.agent)) continue;
    const bool well_formed = coeff_ok(e.kind, e.row, e.agent, e.coeff, "adds");
    if (is_present(e.kind, e.row, e.agent)) {
      complain([&](std::ostringstream& os) {
        os << "delta adds agent " << e.agent << " to " << to_string(e.kind)
           << " row " << e.row << ", but it is already there";
      });
      continue;
    }
    if (!well_formed) continue;
    present[edge_key(e.kind, e.row, e.agent)] = true;
    ++row_growth[id_key(e.kind, e.row)];
    ++agent_growth[edge_key(e.kind, 0, e.agent)];
  }
  for (const CoeffEdit& e : coeff_edits) {
    if (!ids_ok(e.kind, e.row, e.agent)) continue;
    coeff_ok(e.kind, e.row, e.agent, e.coeff, "sets");
    if (!is_present(e.kind, e.row, e.agent)) {
      complain([&](std::ostringstream& os) {
        os << "delta edits " << to_string(e.kind) << " row " << e.row
           << ", agent " << e.agent << ", but the entry does not exist";
      });
    }
  }

  // Post-batch local invariants of everything touched (the whole-instance
  // contract of validate(), restricted to the batch's footprint).
  for (const auto& [key, growth] : row_growth) {
    const RowKind k = (key >> 32) != 0 ? RowKind::kObjective
                                       : RowKind::kConstraint;
    const auto row = static_cast<std::int32_t>(key & 0xFFFFFFFFu);
    const auto size = static_cast<std::int64_t>(
        (k == RowKind::kConstraint ? inst.constraint_row(row).size()
                                   : inst.objective_row(row).size()));
    if (size + growth < 1) {
      complain([&](std::ostringstream& os) {
        os << "delta leaves " << to_string(k) << " row " << row << " empty";
      });
    }
  }
  for (const auto& [key, growth] : agent_growth) {
    const RowKind k = (key >> 63) != 0 ? RowKind::kObjective
                                       : RowKind::kConstraint;
    const auto agent = static_cast<AgentId>(key & 0xFFFFFFFFu);
    const auto size = static_cast<std::int64_t>(
        (k == RowKind::kConstraint ? inst.agent_constraints(agent).size()
                                   : inst.agent_objectives(agent).size()));
    if (size + growth < 1) {
      complain([&](std::ostringstream& os) {
        os << "delta leaves agent " << agent << " without "
           << (k == RowKind::kConstraint ? "constraints" : "objectives");
      });
    }
  }
  return out;
}

void MaxMinInstance::apply(const InstanceDelta& delta) {
  // Admit-then-mutate: the dry run validates the whole batch against the
  // untouched instance, and the mutation below cannot fail afterwards --
  // the strong exception guarantee (a rejected delta throws with the
  // instance bitwise unchanged).
  const std::vector<std::string> violations = delta.check_applicable(*this);
  LOCMM_CHECK_MSG(violations.empty(),
                  "delta rejected: " << violations.front()
                                     << (violations.size() > 1
                                             ? " (+" +
                                                   std::to_string(
                                                       violations.size() - 1) +
                                                   " more)"
                                             : ""));

  RowArrays con{constraint_rows_, agent_constraint_rows_};
  RowArrays obj{objective_rows_, agent_objective_rows_};
  auto arrays = [&](RowKind k) -> RowArrays& {
    return k == RowKind::kConstraint ? con : obj;
  };
  for (const MembershipEdit& e : delta.removes) {
    remove_membership(arrays(e.kind), e);
  }
  for (const MembershipEdit& e : delta.adds) {
    add_membership(arrays(e.kind), e);
  }
  for (const CoeffEdit& e : delta.coeff_edits) {
    edit_coefficient(arrays(e.kind), e);
  }
}

std::optional<InstanceDelta> diff_instances(const MaxMinInstance& from,
                                            const MaxMinInstance& to) {
  if (from.num_agents() != to.num_agents() ||
      from.num_constraints() != to.num_constraints() ||
      from.num_objectives() != to.num_objectives()) {
    return std::nullopt;
  }
  InstanceDelta delta;
  auto diff_rows = [&](RowKind kind, std::int32_t rows, auto row_of_from,
                       auto row_of_to) -> bool {
    for (std::int32_t r = 0; r < rows; ++r) {
      const auto a = row_of_from(r);
      const auto b = row_of_to(r);
      if (a.size() != b.size()) return false;
      for (std::size_t j = 0; j < a.size(); ++j) {
        if (a[j].agent != b[j].agent) return false;
        // Exact bit compare, so applying the diff reproduces `to` bitwise
        // (and 0.0 vs -0.0 counts as a change, conservatively).
        if (std::memcmp(&a[j].coeff, &b[j].coeff, sizeof(double)) != 0) {
          delta.coeff_edits.push_back({kind, r, a[j].agent, b[j].coeff});
        }
      }
    }
    return true;
  };
  if (!diff_rows(RowKind::kConstraint, from.num_constraints(),
                 [&](std::int32_t r) { return from.constraint_row(r); },
                 [&](std::int32_t r) { return to.constraint_row(r); })) {
    return std::nullopt;
  }
  if (!diff_rows(RowKind::kObjective, from.num_objectives(),
                 [&](std::int32_t r) { return from.objective_row(r); },
                 [&](std::int32_t r) { return to.objective_row(r); })) {
    return std::nullopt;
  }
  return delta;
}

StatsTracker::StatsTracker(const MaxMinInstance& inst)
    : agents_(inst.num_agents()),
      constraints_(inst.num_constraints()),
      objectives_(inst.num_objectives()) {
  for (ConstraintId i = 0; i < inst.num_constraints(); ++i)
    constraint_rows_.add(inst.constraint_row(i).size());
  for (ObjectiveId k = 0; k < inst.num_objectives(); ++k)
    objective_rows_.add(inst.objective_row(k).size());
  for (AgentId v = 0; v < inst.num_agents(); ++v) {
    agent_iv_.add(inst.agent_constraints(v).size());
    agent_kv_.add(inst.agent_objectives(v).size());
  }
}

void StatsTracker::SizeCounts::add(std::size_t size) {
  if (size >= of_size.size()) of_size.resize(size + 1, 0);
  ++of_size[size];
  total += static_cast<std::int64_t>(size);
  max = std::max(max, static_cast<std::int32_t>(size));
}

void StatsTracker::SizeCounts::remove(std::size_t size) {
  LOCMM_CHECK(size < of_size.size() && of_size[size] > 0);
  --of_size[size];
  total -= static_cast<std::int64_t>(size);
  while (max > 0 && of_size[static_cast<std::size_t>(max)] == 0) --max;
}

void StatsTracker::touched(const InstanceDelta& delta) {
  touched_constraints_.clear();
  touched_objectives_.clear();
  touched_agents_.clear();
  const auto note = [&](const MembershipEdit& e) {
    (e.kind == RowKind::kConstraint ? touched_constraints_
                                    : touched_objectives_)
        .push_back(e.row);
    touched_agents_.push_back(e.agent);
  };
  for (const MembershipEdit& e : delta.removes) note(e);
  for (const MembershipEdit& e : delta.adds) note(e);
  for (auto* ids :
       {&touched_constraints_, &touched_objectives_, &touched_agents_}) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  }
}

void StatsTracker::update(const MaxMinInstance& inst, bool add) {
  const auto move = [add](SizeCounts& c, std::size_t size) {
    if (add) {
      c.add(size);
    } else {
      c.remove(size);
    }
  };
  for (const ConstraintId i : touched_constraints_)
    move(constraint_rows_, inst.constraint_row(i).size());
  for (const ObjectiveId k : touched_objectives_)
    move(objective_rows_, inst.objective_row(k).size());
  for (const AgentId v : touched_agents_) {
    move(agent_iv_, inst.agent_constraints(v).size());
    move(agent_kv_, inst.agent_objectives(v).size());
  }
}

void StatsTracker::forget(const MaxMinInstance& inst,
                          const InstanceDelta& delta) {
  touched(delta);
  update(inst, /*add=*/false);
}

void StatsTracker::count(const MaxMinInstance& inst,
                         const InstanceDelta& delta) {
  touched(delta);
  update(inst, /*add=*/true);
}

InstanceStats StatsTracker::stats() const {
  InstanceStats s;
  s.agents = agents_;
  s.constraints = constraints_;
  s.objectives = objectives_;
  s.nnz_a = constraint_rows_.total;
  s.nnz_c = objective_rows_.total;
  s.delta_i = constraint_rows_.max;
  s.delta_k = objective_rows_.max;
  s.max_iv = agent_iv_.max;
  s.max_kv = agent_kv_.max;
  return s;
}

}  // namespace locmm
