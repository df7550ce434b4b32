// instance.hpp -- the central problem object: a max-min linear program
// distributed over a bipartite communication graph (paper §1.1).
//
// A MaxMinInstance holds
//   * agents v in V (one LP variable x_v per agent),
//   * constraints i in I (rows of A: sum_{v in Vi} a_iv x_v <= 1),
//   * objectives k in K (rows of C: utility sum_{v in Vk} c_kv x_v),
// together with both incidence directions in CSR form.  The order of the
// entries inside each row, and of the rows inside each agent's incidence
// list, *is* the port numbering of the paper's model (§1.2): a node's ports
// are numbered by the position of the edge in its list.  Builders and
// transformations preserve these orders deterministically.
//
// The rows live in SplicedRows (lp/spliced_rows.hpp), a slack-CSR layout, so
// a membership edit splices the touched row and agent in O(row degree)
// instead of shifting the whole packed array.  All contracts about row
// contents are accessor-level (the spans), not physical-layout-level.
//
// The task (paper eq. (2)):
//   maximise   omega(x) = min_k sum_{v in Vk} c_kv x_v
//   subject to sum_{v in Vi} a_iv x_v <= 1  for all i,   x >= 0.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "lp/spliced_rows.hpp"
#include "support/check.hpp"

namespace locmm {

using AgentId = std::int32_t;
using ConstraintId = std::int32_t;
using ObjectiveId = std::int32_t;

// One matrix entry as seen from the row side: which agent, what coefficient.
struct Entry {
  AgentId agent;
  double coeff;

  friend bool operator==(const Entry&, const Entry&) = default;
};

// One matrix entry as seen from the agent side: which row, what coefficient.
struct Incidence {
  std::int32_t row;
  double coeff;

  friend bool operator==(const Incidence&, const Incidence&) = default;
};

struct InstanceStats {
  std::int64_t agents = 0;
  std::int64_t constraints = 0;
  std::int64_t objectives = 0;
  std::int64_t nnz_a = 0;     // entries of A
  std::int64_t nnz_c = 0;     // entries of C
  std::int32_t delta_i = 0;   // max |Vi|  (constraint degree bound)
  std::int32_t delta_k = 0;   // max |Vk|  (objective degree bound)
  std::int32_t max_iv = 0;    // max |Iv|  (constraints per agent)
  std::int32_t max_kv = 0;    // max |Kv|  (objectives per agent)

  friend bool operator==(const InstanceStats&, const InstanceStats&) = default;
};

class InstanceBuilder;
struct InstanceDelta;  // lp/delta.hpp

// O(ball) undo record for a batch of edits: the pre-edit contents of every
// touched row and agent incidence list, captured by snapshot() and written
// back by restore().  Sized by the batch footprint, never by the instance.
struct InstancePatch {
  std::vector<ConstraintId> constraint_ids;
  std::vector<std::vector<Entry>> constraint_rows;
  std::vector<ObjectiveId> objective_ids;
  std::vector<std::vector<Entry>> objective_rows;
  std::vector<AgentId> agent_ids;
  std::vector<std::vector<Incidence>> agent_constraints;
  std::vector<std::vector<Incidence>> agent_objectives;
};

class MaxMinInstance {
 public:
  MaxMinInstance() = default;

  std::int32_t num_agents() const { return num_agents_; }
  std::int32_t num_constraints() const {
    return static_cast<std::int32_t>(constraint_rows_.num_rows());
  }
  std::int32_t num_objectives() const {
    return static_cast<std::int32_t>(objective_rows_.num_rows());
  }

  // Row views (entries in port order).
  std::span<const Entry> constraint_row(ConstraintId i) const {
    LOCMM_DCHECK(i >= 0 && i < num_constraints());
    return constraint_rows_.row(static_cast<std::size_t>(i));
  }
  std::span<const Entry> objective_row(ObjectiveId k) const {
    LOCMM_DCHECK(k >= 0 && k < num_objectives());
    return objective_rows_.row(static_cast<std::size_t>(k));
  }

  // Agent incidence views (rows in port order).
  std::span<const Incidence> agent_constraints(AgentId v) const {
    LOCMM_DCHECK(v >= 0 && v < num_agents());
    return agent_constraint_rows_.row(static_cast<std::size_t>(v));
  }
  std::span<const Incidence> agent_objectives(AgentId v) const {
    LOCMM_DCHECK(v >= 0 && v < num_agents());
    return agent_objective_rows_.row(static_cast<std::size_t>(v));
  }

  InstanceStats stats() const;

  // The utility omega(x) = min over objectives of the objective's row value.
  // Requires at least one objective.
  double utility(std::span<const double> x) const;

  // Per-objective utilities omega_k(x).
  std::vector<double> objective_values(std::span<const double> x) const;

  // omega_k(x) of one objective: its row summed in port order, the fold
  // utility() and objective_values() use.
  double objective_value(ObjectiveId k, std::span<const double> x) const {
    double val = 0.0;
    for (const Entry& e : objective_row(k)) val += e.coeff * x[e.agent];
    return val;
  }

  // max over constraints of (a_i . x) - 1; negative/zero means feasible.
  // Also accounts for negativity of x: returns max(violation, -min_v x_v).
  double violation(std::span<const double> x) const;

  bool is_feasible(std::span<const double> x, double tol = 1e-9) const {
    return violation(x) <= tol;
  }

  // Structural sanity per §4's preamble: every constraint and objective is
  // adjacent to >= 1 agent; every agent to >= 1 constraint and >= 1
  // objective; all coefficients strictly positive and finite; no duplicate
  // agent within a row.  Throws CheckError with a description if violated.
  void validate() const;

  // True if the communication graph (agents + constraints + objectives as
  // nodes) is connected.  The algorithm handles components independently;
  // generators aim to produce connected instances and test with this.
  bool connected() const;

  // Applies a batched edit in place (lp/delta.hpp: removes, then adds, then
  // coefficient edits), leaving every touched row accessor-identical to an
  // InstanceBuilder rebuild of the edited instance.  Cost: O(1) array writes
  // per coefficient edit and O(row degree), amortized, per membership edit
  // (the rows splice in place; nothing shifts globally).  Checks the local
  // invariants of the touched rows/agents after the batch; defined in
  // lp/delta.cpp.
  void apply(const InstanceDelta& delta);

  // Captures the current contents of the named rows/agents (duplicates in
  // the id lists are fine; each is recorded once per occurrence and restores
  // idempotently).  restore() writes a patch back, reverting an apply()
  // whose footprint the patch covers.  Both cost O(patch), never O(n).
  InstancePatch snapshot(std::span<const ConstraintId> constraints,
                         std::span<const ObjectiveId> objectives,
                         std::span<const AgentId> agents) const;
  void restore(const InstancePatch& patch);

  friend class InstanceBuilder;

 private:
  std::int32_t num_agents_ = 0;

  // Slack CSR over constraint rows / objective rows, and over agents'
  // incident constraints / objectives (in port order).
  SplicedRows<Entry> constraint_rows_;
  SplicedRows<Entry> objective_rows_;
  SplicedRows<Incidence> agent_constraint_rows_;
  SplicedRows<Incidence> agent_objective_rows_;
};

// Accumulates rows, then build() computes agent incidence and validates
// index ranges.  Entry order inside each row is preserved (it defines the
// ports); the agent-side port order is the order in which rows mentioning
// the agent were added (constraints first by row insertion order, then the
// same for objectives).
class InstanceBuilder {
 public:
  // Declare agents up front or grow implicitly via add_agents.
  explicit InstanceBuilder(std::int32_t num_agents = 0)
      : num_agents_(num_agents) {
    LOCMM_CHECK(num_agents >= 0);
  }

  AgentId add_agent() { return num_agents_++; }
  void ensure_agents(std::int32_t n) {
    LOCMM_CHECK(n >= 0);
    if (n > num_agents_) num_agents_ = n;
  }

  ConstraintId add_constraint(std::vector<Entry> row);
  ObjectiveId add_objective(std::vector<Entry> row);

  std::int32_t num_agents() const { return num_agents_; }
  std::int32_t num_constraints() const {
    return static_cast<std::int32_t>(constraint_rows_.size());
  }
  std::int32_t num_objectives() const {
    return static_cast<std::int32_t>(objective_rows_.size());
  }

  // Builds the instance.  If `validate` is true (default), also runs
  // MaxMinInstance::validate().
  MaxMinInstance build(bool validate = true) const;

 private:
  std::int32_t num_agents_ = 0;
  std::vector<std::vector<Entry>> constraint_rows_;
  std::vector<std::vector<Entry>> objective_rows_;
};

// Returns a copy of `inst` with agents relabelled by `perm` (new id of agent
// v is perm[v]) and row orders preserved.  Utility/feasibility are invariant
// under this; used by the invariance property tests.
MaxMinInstance relabel_agents(const MaxMinInstance& inst,
                              std::span<const AgentId> perm);

// Human-readable one-line summary, e.g. "V=12 I=20 K=6 dI=3 dK=4".
std::string describe(const MaxMinInstance& inst);

}  // namespace locmm
