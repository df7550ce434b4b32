#include "lp/instance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

namespace locmm {

InstanceStats MaxMinInstance::stats() const {
  InstanceStats s;
  s.agents = num_agents();
  s.constraints = num_constraints();
  s.objectives = num_objectives();
  s.nnz_a = constraint_rows_.live();
  s.nnz_c = objective_rows_.live();
  for (ConstraintId i = 0; i < num_constraints(); ++i) {
    s.delta_i = std::max(s.delta_i,
                         static_cast<std::int32_t>(constraint_row(i).size()));
  }
  for (ObjectiveId k = 0; k < num_objectives(); ++k) {
    s.delta_k = std::max(s.delta_k,
                         static_cast<std::int32_t>(objective_row(k).size()));
  }
  for (AgentId v = 0; v < num_agents(); ++v) {
    s.max_iv = std::max(s.max_iv,
                        static_cast<std::int32_t>(agent_constraints(v).size()));
    s.max_kv = std::max(s.max_kv,
                        static_cast<std::int32_t>(agent_objectives(v).size()));
  }
  return s;
}

double MaxMinInstance::utility(std::span<const double> x) const {
  LOCMM_CHECK(static_cast<std::int32_t>(x.size()) == num_agents());
  LOCMM_CHECK_MSG(num_objectives() > 0, "utility of instance with no objectives");
  double omega = std::numeric_limits<double>::infinity();
  for (ObjectiveId k = 0; k < num_objectives(); ++k)
    omega = std::min(omega, objective_value(k, x));
  return omega;
}

std::vector<double> MaxMinInstance::objective_values(
    std::span<const double> x) const {
  LOCMM_CHECK(static_cast<std::int32_t>(x.size()) == num_agents());
  std::vector<double> vals(static_cast<std::size_t>(num_objectives()), 0.0);
  for (ObjectiveId k = 0; k < num_objectives(); ++k)
    vals[static_cast<std::size_t>(k)] = objective_value(k, x);
  return vals;
}

double MaxMinInstance::violation(std::span<const double> x) const {
  LOCMM_CHECK(static_cast<std::int32_t>(x.size()) == num_agents());
  double worst = 0.0;
  for (ConstraintId i = 0; i < num_constraints(); ++i) {
    double lhs = 0.0;
    for (const Entry& e : constraint_row(i)) lhs += e.coeff * x[e.agent];
    worst = std::max(worst, lhs - 1.0);
  }
  for (AgentId v = 0; v < num_agents(); ++v) worst = std::max(worst, -x[v]);
  return worst;
}

void MaxMinInstance::validate() const {
  auto check_rows = [&](auto count, auto row_of, const char* kind) {
    std::vector<char> seen(static_cast<std::size_t>(num_agents()), 0);
    for (std::int32_t r = 0; r < count; ++r) {
      auto row = row_of(r);
      LOCMM_CHECK_MSG(!row.empty(), kind << " row " << r << " is empty");
      for (const Entry& e : row) {
        LOCMM_CHECK_MSG(e.agent >= 0 && e.agent < num_agents(),
                        kind << " row " << r << " references agent "
                             << e.agent << " out of range");
        LOCMM_CHECK_MSG(e.coeff > 0.0 && std::isfinite(e.coeff),
                        kind << " row " << r
                             << " has non-positive or non-finite coefficient "
                             << e.coeff);
        LOCMM_CHECK_MSG(!seen[static_cast<std::size_t>(e.agent)],
                        kind << " row " << r << " repeats agent " << e.agent);
        seen[static_cast<std::size_t>(e.agent)] = 1;
      }
      for (const Entry& e : row) seen[static_cast<std::size_t>(e.agent)] = 0;
    }
  };
  check_rows(num_constraints(),
             [&](ConstraintId i) { return constraint_row(i); }, "constraint");
  check_rows(num_objectives(), [&](ObjectiveId k) { return objective_row(k); },
             "objective");

  for (AgentId v = 0; v < num_agents(); ++v) {
    LOCMM_CHECK_MSG(!agent_constraints(v).empty(),
                    "agent " << v << " has no constraints (unconstrained; "
                             << "paper §4 sets it to +infinity and drops "
                                "its objectives)");
    LOCMM_CHECK_MSG(!agent_objectives(v).empty(),
                    "agent " << v << " has no objectives (non-contributing; "
                             << "paper §4 sets it to zero and removes it)");
  }
}

bool MaxMinInstance::connected() const {
  const std::int64_t total = static_cast<std::int64_t>(num_agents()) +
                             num_constraints() + num_objectives();
  if (total == 0) return true;
  // Node numbering: agents, then constraints, then objectives.
  const std::int64_t coff = num_agents();
  const std::int64_t koff = coff + num_constraints();
  std::vector<char> seen(static_cast<std::size_t>(total), 0);
  std::vector<std::int64_t> stack{0};
  seen[0] = 1;
  std::int64_t visited = 0;
  while (!stack.empty()) {
    const std::int64_t node = stack.back();
    stack.pop_back();
    ++visited;
    auto push = [&](std::int64_t u) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        stack.push_back(u);
      }
    };
    if (node < coff) {
      const auto v = static_cast<AgentId>(node);
      for (const Incidence& inc : agent_constraints(v)) push(coff + inc.row);
      for (const Incidence& inc : agent_objectives(v)) push(koff + inc.row);
    } else if (node < koff) {
      const auto i = static_cast<ConstraintId>(node - coff);
      for (const Entry& e : constraint_row(i)) push(e.agent);
    } else {
      const auto k = static_cast<ObjectiveId>(node - koff);
      for (const Entry& e : objective_row(k)) push(e.agent);
    }
  }
  return visited == total;
}

ConstraintId InstanceBuilder::add_constraint(std::vector<Entry> row) {
  for (const Entry& e : row) {
    LOCMM_CHECK_MSG(e.agent >= 0, "constraint entry with negative agent id");
    ensure_agents(e.agent + 1);
  }
  constraint_rows_.push_back(std::move(row));
  return static_cast<ConstraintId>(constraint_rows_.size()) - 1;
}

ObjectiveId InstanceBuilder::add_objective(std::vector<Entry> row) {
  for (const Entry& e : row) {
    LOCMM_CHECK_MSG(e.agent >= 0, "objective entry with negative agent id");
    ensure_agents(e.agent + 1);
  }
  objective_rows_.push_back(std::move(row));
  return static_cast<ObjectiveId>(objective_rows_.size()) - 1;
}

MaxMinInstance InstanceBuilder::build(bool validate) const {
  MaxMinInstance inst;
  inst.num_agents_ = num_agents_;

  for (const auto& row : constraint_rows_) {
    inst.constraint_rows_.append_row(row);
  }
  for (const auto& row : objective_rows_) {
    inst.objective_rows_.append_row(row);
  }

  // Agent incidence, in row-insertion order (this fixes the agent-side port
  // numbering deterministically).
  const auto n = static_cast<std::size_t>(num_agents_);
  std::vector<std::vector<Incidence>> cinc(n), kinc(n);
  for (std::size_t r = 0; r < constraint_rows_.size(); ++r) {
    for (const Entry& e : constraint_rows_[r]) {
      cinc[static_cast<std::size_t>(e.agent)].push_back(
          {static_cast<std::int32_t>(r), e.coeff});
    }
  }
  for (std::size_t r = 0; r < objective_rows_.size(); ++r) {
    for (const Entry& e : objective_rows_[r]) {
      kinc[static_cast<std::size_t>(e.agent)].push_back(
          {static_cast<std::int32_t>(r), e.coeff});
    }
  }
  for (std::size_t v = 0; v < n; ++v) {
    inst.agent_constraint_rows_.append_row(cinc[v]);
    inst.agent_objective_rows_.append_row(kinc[v]);
  }

  if (validate) inst.validate();
  return inst;
}

InstancePatch MaxMinInstance::snapshot(
    std::span<const ConstraintId> constraints,
    std::span<const ObjectiveId> objectives,
    std::span<const AgentId> agents) const {
  InstancePatch p;
  for (const ConstraintId i : constraints) {
    const auto row = constraint_row(i);
    p.constraint_ids.push_back(i);
    p.constraint_rows.emplace_back(row.begin(), row.end());
  }
  for (const ObjectiveId k : objectives) {
    const auto row = objective_row(k);
    p.objective_ids.push_back(k);
    p.objective_rows.emplace_back(row.begin(), row.end());
  }
  for (const AgentId v : agents) {
    const auto cons = agent_constraints(v);
    const auto objs = agent_objectives(v);
    p.agent_ids.push_back(v);
    p.agent_constraints.emplace_back(cons.begin(), cons.end());
    p.agent_objectives.emplace_back(objs.begin(), objs.end());
  }
  return p;
}

void MaxMinInstance::restore(const InstancePatch& patch) {
  for (std::size_t j = 0; j < patch.constraint_ids.size(); ++j) {
    constraint_rows_.assign_row(
        static_cast<std::size_t>(patch.constraint_ids[j]),
        patch.constraint_rows[j]);
  }
  for (std::size_t j = 0; j < patch.objective_ids.size(); ++j) {
    objective_rows_.assign_row(static_cast<std::size_t>(patch.objective_ids[j]),
                               patch.objective_rows[j]);
  }
  for (std::size_t j = 0; j < patch.agent_ids.size(); ++j) {
    const auto v = static_cast<std::size_t>(patch.agent_ids[j]);
    agent_constraint_rows_.assign_row(v, patch.agent_constraints[j]);
    agent_objective_rows_.assign_row(v, patch.agent_objectives[j]);
  }
}

MaxMinInstance relabel_agents(const MaxMinInstance& inst,
                              std::span<const AgentId> perm) {
  LOCMM_CHECK(static_cast<std::int32_t>(perm.size()) == inst.num_agents());
  InstanceBuilder b(inst.num_agents());
  for (ConstraintId i = 0; i < inst.num_constraints(); ++i) {
    std::vector<Entry> row;
    row.reserve(inst.constraint_row(i).size());
    for (const Entry& e : inst.constraint_row(i))
      row.push_back({perm[e.agent], e.coeff});
    b.add_constraint(std::move(row));
  }
  for (ObjectiveId k = 0; k < inst.num_objectives(); ++k) {
    std::vector<Entry> row;
    row.reserve(inst.objective_row(k).size());
    for (const Entry& e : inst.objective_row(k))
      row.push_back({perm[e.agent], e.coeff});
    b.add_objective(std::move(row));
  }
  return b.build();
}

std::string describe(const MaxMinInstance& inst) {
  const InstanceStats s = inst.stats();
  std::ostringstream os;
  os << "V=" << s.agents << " I=" << s.constraints << " K=" << s.objectives
     << " nnzA=" << s.nnz_a << " nnzC=" << s.nnz_c << " dI=" << s.delta_i
     << " dK=" << s.delta_k << " max|Iv|=" << s.max_iv
     << " max|Kv|=" << s.max_kv;
  return os.str();
}

}  // namespace locmm
