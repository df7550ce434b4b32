// transform.hpp -- the local transformations of paper §4.
//
// Five rewrites reduce an arbitrary max-min LP to the *special form* required
// by the §5 algorithm:
//   §4.2 augment_singleton_constraints : |Vi| >= 2 afterwards (cycle gadget)
//   §4.3 reduce_constraint_degree      : |Vi| == 2 afterwards (pairwise rows;
//                                        costs a factor delta_I/2)
//   §4.4 split_agents_per_objective    : |Kv| == 1 afterwards (agent copies)
//   §4.5 augment_singleton_objectives  : |Vk| >= 2 afterwards (agent halves)
//   §4.6 normalize_objective_coeffs    : c_kv == 1 afterwards (rescale x)
//
// Each step returns the rewritten instance plus a *back-map* taking any
// feasible solution of the rewritten instance to a feasible solution of the
// input instance, with the utility accounting of the paper (§4: "description,
// mapping back, implications to approximability").  The steps are local
// rewrites in the sense of §4.1 -- each output row depends only on a
// constant-radius neighbourhood of the input -- which we realise here as
// whole-instance passes with deterministic output order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "lp/delta.hpp"
#include "lp/instance.hpp"

namespace locmm {

using BackMap = std::function<std::vector<double>(std::span<const double>)>;

struct TransformStep {
  std::string name;
  MaxMinInstance instance;   // rewritten instance
  BackMap back;              // solution of `instance` -> solution of input
  double ratio_factor = 1.0; // approximation-ratio multiplier of this step
};

TransformStep augment_singleton_constraints(const MaxMinInstance& in);  // §4.2
TransformStep reduce_constraint_degree(const MaxMinInstance& in);       // §4.3
TransformStep split_agents_per_objective(const MaxMinInstance& in);     // §4.4
TransformStep augment_singleton_objectives(const MaxMinInstance& in);   // §4.5
TransformStep normalize_objective_coeffs(const MaxMinInstance& in);     // §4.6

// An original-instance delta translated through the §4.2 -> §4.6 id map
// into special-form coordinates (PipelineIdMap::map_delta).
struct MappedDelta {
  // The special-form image of the batch: same removes/adds/coeff-edit
  // structure, rows and agents renamed through the composed images,
  // constraint coefficients divided by the agents' post-edit §4.6 scale and
  // objective coefficients pinned to 1.
  InstanceDelta special;
  // (special agent, new gamma) pairs for agents whose §4.6 scale the batch
  // changed.  Fold into PipelineIdMap::gamma (apply_gamma_updates) once the
  // mapped delta committed downstream -- map_back reads gamma, so skipping
  // this leaves the back-map dividing by stale scales.
  std::vector<std::pair<AgentId, double>> gamma_updates;
};

// Persistent old-id -> new-id map of the composed §4.2 -> §4.6 pipeline.
//
// Every stage expands its input in input order (gadgets, pairwise rows,
// copies, halves are APPENDED; original objective-row ids survive all five
// stages untouched), so the final image of each original id is a CONTIGUOUS
// range of special ids: original agent v owns the special agents
// [agent_first[v], agent_first[v] + agent_count[v]) (its §4.4 copies x §4.5
// halves, copies-major) and original constraint row i owns the special rows
// [con_first[i], con_first[i] + con_count[i]) (its §4.3 pairwise pieces x
// §4.4/§4.5 replicas).
//
// The map turns an original-instance membership edit into a special-form
// structural delta (map_delta) WITHOUT re-running the pipeline, whenever the
// edit provably leaves the pipeline's numbering fixed -- the "fast path"
// conditions, each of which pins one way the stages could renumber:
//   * touched constraint rows: not gadget-carrying (§4.2), pre-size 2 with
//     zero growth (§4.3 emits no pairwise split), singly-imaged (§4.4/§4.5
//     emit no replicas);
//   * touched agents: outside every gadget's big-M support (§4.2 computes M
//     from their capacities), singly-imaged (|Kv| = 1 and un-halved), zero
//     objective-membership growth (§4.4 copy counts are |Kv|);
//   * touched objective rows: not a gadget's reference row, size >= 2 before
//     and after (§4.5 splits exactly the singleton rows).
// Under these, multiplicities (gadgets, pairwise splits, copies, halves)
// are unchanged for every id, all prefix sums -- and hence this map itself,
// except gamma -- stay valid, and the maintained special instance after the
// mapped delta is bitwise what the scratch pipeline produces on the edited
// original (pinned by tests/solver_api_test.cpp).  Edits outside the fast
// path return nullopt and the caller falls back to re-running the pipeline.
struct PipelineIdMap {
  // Composed images of ORIGINAL ids (see above).
  std::vector<std::int32_t> agent_first, agent_count;
  std::vector<std::int32_t> con_first, con_count;
  // §4.3 back-map divisor per original agent: max(2, max_{i in Iv} |Vi|).
  std::vector<double> divisor;
  // §4.6 scale per SPECIAL agent: the objective coefficient its variable
  // was multiplied by.  The only mutable piece of the map: fast-path edits
  // that change an agent's objective coefficient update it via
  // apply_gamma_updates.
  std::vector<double> gamma;
  // §4.2 sensitivity over original ids: singleton constraint rows (they
  // carry the gadget edge), the gadgets' reference objective rows, and the
  // agents whose capacities enter a gadget's big-M.
  std::vector<std::uint8_t> row_gadget;       // per original constraint row
  std::vector<std::uint8_t> agent_sensitive;  // per original agent
  std::vector<std::uint8_t> obj_sensitive;    // per original objective row
  bool has_gadgets = false;

  // Maps `delta` (validated against `orig`, the pre-edit original) into
  // special-form coordinates, or nullopt when any touched id fails the
  // fast-path conditions above.  Never mutates; O(batch * row degree +
  // touched-agent image degree).
  std::optional<MappedDelta> map_delta(const InstanceDelta& delta,
                                       const MaxMinInstance& orig) const;

  // Folds a committed mapped delta's gamma changes into the map.
  void apply_gamma_updates(const MappedDelta& mapped);

  // Closed-form composed back-map: x[v] = 2 * max(0, max_h xs[h] /
  // gamma[h]) / divisor[v] over v's flattened image span.  Bitwise equal to
  // folding the five step closures in reverse, but reads THIS map's gamma
  // -- after fast-path edits the step closures hold stale coefficients and
  // this is the only correct back-map.
  std::vector<double> map_back(std::span<const double> x_special) const;

  // map_back's value for the one original agent v: an edit that rewrote a
  // few special entries maps back only their owners.
  double map_back_agent(AgentId v, std::span<const double> x_special) const;

  // The original agent whose image span holds special agent w, or -1 when
  // none does (the §4.2 gadget agents).  O(log n): the spans are
  // contiguous and ascending.
  AgentId owner_of(AgentId w) const;
};

// Builds the composed id map from the original instance and the five
// executed steps (to_special_form calls this; exposed for tests).
PipelineIdMap build_pipeline_id_map(const MaxMinInstance& in,
                                    const std::vector<TransformStep>& steps);

// The five stages §4.2 -> §4.6 in application order, each with its
// intermediate instance and back-map closure.  to_special_form keeps only
// what it derives from them; the per-stage tests and benches read them
// here.
std::vector<TransformStep> pipeline_steps(const MaxMinInstance& in);

// The composed pipeline §4.2 -> §4.6.
struct Pipeline {
  MaxMinInstance special;     // final special-form instance
  PipelineIdMap id_map;       // composed old-id -> new-id map
  double ratio_factor = 1.0;  // product of step factors (= delta_I/2)

  // Maps a solution of `special` back to the original instance, via the
  // id map's closed form (== folding pipeline_steps' closures in reverse,
  // except it stays correct after fast-path edits updated gamma).
  std::vector<double> map_back(std::span<const double> x_special) const;
};

Pipeline to_special_form(const MaxMinInstance& in);

// Checks the §5 preconditions: |Vi| == 2, |Vk| >= 2, |Kv| == 1, |Iv| >= 1,
// c_kv == 1 (within tol).  Throws CheckError describing the first violation.
void check_special_form(const MaxMinInstance& inst, double tol = 1e-12);

bool is_special_form(const MaxMinInstance& inst, double tol = 1e-12);

}  // namespace locmm
