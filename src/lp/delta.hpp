// delta.hpp -- batched edits against a MaxMinInstance (the dynamic-update
// model of paper §1.3).
//
// A local algorithm is automatically an efficient *dynamic* algorithm: a
// change to one coefficient can only affect outputs inside the radius-D(R)
// ball around the touched edge.  InstanceDelta is the edit language that the
// incremental layers speak (lp -> graph -> core -> dynamic): coefficient
// changes plus add/remove of row memberships, addressed by (row, agent) so a
// delta survives being routed through deterministic rewrites that preserve
// ids.
//
// Application order within one batch is fixed: removes, then adds, then
// coefficient edits (each group in vector order).  This makes the common
// structural edits expressible atomically -- e.g. rewiring a special-form
// |Vi| = 2 constraint is remove(i, w) + add(i, w'), and moving an agent
// between objectives is remove(k, v) + add(k', v) -- without ever observing
// a half-applied state.  Local invariants (rows non-empty, no duplicate
// agent in a row, every touched agent keeps >= 1 constraint and >= 1
// objective, coefficients > 0 and finite) are validated by
// check_applicable, a dry run that simulates the whole batch WITHOUT
// mutating anything -- the admission-control primitive of the serving layer
// (src/serve): untrusted tenant deltas are screened before any state is
// touched, and every violation comes back as a structured message instead
// of a throw.
//
// MaxMinInstance::apply gives the strong exception guarantee on top of it:
// the batch is checked in full first, and only a clean batch mutates (the
// mutation itself cannot fail), so a rejected delta throws CheckError with
// the instance bitwise unchanged.
//
// MaxMinInstance::apply (declared in lp/instance.hpp, defined here) edits
// the CSR arrays in place and leaves the instance bit-identical to a full
// InstanceBuilder rebuild of the edited rows: memberships are appended at
// the end of their row (the new entry takes the last port), and the
// agent-side incidence keeps its rows sorted ascending -- exactly the port
// numbering the builder derives from row-insertion order.  That identity is
// what makes every downstream structure (CommGraph, views, WL colours)
// agree bitwise with a cold rebuild, and it is asserted by the randomized
// tests in tests/incremental_test.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lp/instance.hpp"

namespace locmm {

// Which row family an edit addresses.
enum class RowKind : std::uint8_t { kConstraint, kObjective };

const char* to_string(RowKind k);

// Sets the coefficient of an existing (row, agent) entry.
struct CoeffEdit {
  RowKind kind = RowKind::kConstraint;
  std::int32_t row = -1;
  AgentId agent = -1;
  double coeff = 0.0;

  friend bool operator==(const CoeffEdit&, const CoeffEdit&) = default;
};

// Adds `agent` to `row` with `coeff` (appended: it takes the row's last
// port), or removes an existing (row, agent) entry (coeff ignored).
struct MembershipEdit {
  RowKind kind = RowKind::kConstraint;
  std::int32_t row = -1;
  AgentId agent = -1;
  double coeff = 0.0;

  friend bool operator==(const MembershipEdit&, const MembershipEdit&) =
      default;
};

struct InstanceDelta {
  std::vector<MembershipEdit> removes;
  std::vector<MembershipEdit> adds;
  std::vector<CoeffEdit> coeff_edits;

  bool empty() const {
    return removes.empty() && adds.empty() && coeff_edits.empty();
  }

  // True when the delta changes the sparsity pattern (and hence node
  // degrees, ports and adjacency) rather than just coefficient values.
  bool structural() const { return !removes.empty() || !adds.empty(); }

  std::size_t size() const {
    return removes.size() + adds.size() + coeff_edits.size();
  }

  // Visits every edited (row, agent) edge as (kind, row, agent), in
  // application order (removes, adds, coefficient edits).  This is the
  // dirty-seed enumeration shared by the incremental layers: both endpoints
  // of every visited edge seed the t-cone and radius-D(R) floods of the
  // engine-C incremental path (dynamic/incremental_solver.hpp) and the
  // activation distances of the SyncNetwork replay
  // (dist/message_passing.hpp).
  template <typename Fn>
  void for_each_touched_edge(Fn&& fn) const {
    for (const MembershipEdit& e : removes) fn(e.kind, e.row, e.agent);
    for (const MembershipEdit& e : adds) fn(e.kind, e.row, e.agent);
    for (const CoeffEdit& e : coeff_edits) fn(e.kind, e.row, e.agent);
  }

  // Dry-run admission check: simulates the batch against `inst` (removes,
  // then adds, then coefficient edits, exactly the apply() order, including
  // edits that reference memberships created earlier in the same batch) and
  // returns one message per violation -- out-of-range row/agent ids,
  // non-positive / non-finite / NaN coefficients, removes of absent
  // entries, duplicate adds, rows left empty, agents left without a
  // constraint or an objective.  Empty result == the batch is applicable:
  // apply() on the same instance is then guaranteed to succeed.  Never
  // mutates and never throws; cost is O(batch * row degree), the same
  // bound as apply() itself.
  std::vector<std::string> check_applicable(const MaxMinInstance& inst) const;

  // --- convenience builders ---------------------------------------------
  InstanceDelta& set_constraint_coeff(ConstraintId i, AgentId v, double a) {
    coeff_edits.push_back({RowKind::kConstraint, i, v, a});
    return *this;
  }
  InstanceDelta& set_objective_coeff(ObjectiveId k, AgentId v, double c) {
    coeff_edits.push_back({RowKind::kObjective, k, v, c});
    return *this;
  }
  InstanceDelta& add_to_constraint(ConstraintId i, AgentId v, double a) {
    adds.push_back({RowKind::kConstraint, i, v, a});
    return *this;
  }
  InstanceDelta& add_to_objective(ObjectiveId k, AgentId v, double c) {
    adds.push_back({RowKind::kObjective, k, v, c});
    return *this;
  }
  InstanceDelta& remove_from_constraint(ConstraintId i, AgentId v) {
    removes.push_back({RowKind::kConstraint, i, v, 0.0});
    return *this;
  }
  InstanceDelta& remove_from_objective(ObjectiveId k, AgentId v) {
    removes.push_back({RowKind::kObjective, k, v, 0.0});
    return *this;
  }
};

// The coefficient-only delta turning `from` into `to`, or nullopt when the
// two differ structurally (agent counts, row counts, or any row's agent
// sequence).  Coefficients are compared by exact bit pattern, so applying
// the result to `from` reproduces `to` bitwise.  This is how
// LocalResolver::resolve routes an original-instance edit through the §4
// pipeline: re-run the (cheap, deterministic) pipeline on the edited input
// and diff the special-form outputs -- the transforms map structure to
// structure and coefficients to nearby coefficients, so a coefficient edit
// surfaces as a small special-form coefficient delta.
std::optional<InstanceDelta> diff_instances(const MaxMinInstance& from,
                                            const MaxMinInstance& to);

// MaxMinInstance::stats() kept current across deltas from per-size counts
// of rows and agent incidences: a membership edit moves only the touched
// rows and agents between size buckets, where stats() rescans every row.
// Bracket each inst.apply(delta) with forget(inst, delta) before and
// count(inst, delta) after; stats() then equals inst.stats().
class StatsTracker {
 public:
  StatsTracker() = default;
  explicit StatsTracker(const MaxMinInstance& inst);

  void forget(const MaxMinInstance& inst, const InstanceDelta& delta);
  void count(const MaxMinInstance& inst, const InstanceDelta& delta);

  InstanceStats stats() const;

 private:
  // How many items have each size; the max over non-empty buckets.
  struct SizeCounts {
    std::vector<std::int64_t> of_size;
    std::int64_t total = 0;  // sum of the sizes
    std::int32_t max = 0;
    void add(std::size_t size);
    void remove(std::size_t size);
  };
  // The rows and agents whose sizes a delta's membership edits change.
  void touched(const InstanceDelta& delta);
  void update(const MaxMinInstance& inst, bool add);

  std::int64_t agents_ = 0, constraints_ = 0, objectives_ = 0;
  SizeCounts constraint_rows_, objective_rows_, agent_iv_, agent_kv_;
  std::vector<ConstraintId> touched_constraints_;
  std::vector<ObjectiveId> touched_objectives_;
  std::vector<AgentId> touched_agents_;
};

}  // namespace locmm
