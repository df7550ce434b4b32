// pipeline.cpp -- the composed §4.2 -> §4.6 reduction and the special-form
// contract checks used by the §5 algorithm.
#include <cmath>
#include <utility>

#include "transform/transform.hpp"

namespace locmm {

std::vector<double> Pipeline::map_back(std::span<const double> x_special) const {
  // The id map's closed form, not the step closures: bitwise equal on a
  // freshly built pipeline (tests/transform_test.cpp pins the two against
  // each other), and the only one that stays correct after fast-path edits
  // updated PipelineIdMap::gamma in place.
  return id_map.map_back(x_special);
}

std::vector<TransformStep> pipeline_steps(const MaxMinInstance& in) {
  in.validate();
  std::vector<TransformStep> steps;
  steps.reserve(5);
  steps.push_back(augment_singleton_constraints(in));
  steps.push_back(reduce_constraint_degree(steps.back().instance));
  steps.push_back(split_agents_per_objective(steps.back().instance));
  steps.push_back(augment_singleton_objectives(steps.back().instance));
  steps.push_back(normalize_objective_coeffs(steps.back().instance));
  return steps;
}

Pipeline to_special_form(const MaxMinInstance& in) {
  std::vector<TransformStep> steps = pipeline_steps(in);
  Pipeline p;
  for (const TransformStep& s : steps) p.ratio_factor *= s.ratio_factor;
  p.id_map = build_pipeline_id_map(in, steps);
  p.special = std::move(steps.back().instance);
  check_special_form(p.special);
  return p;
}

void check_special_form(const MaxMinInstance& inst, double tol) {
  inst.validate();
  for (ConstraintId i = 0; i < inst.num_constraints(); ++i) {
    LOCMM_CHECK_MSG(inst.constraint_row(i).size() == 2,
                    "special form violated: |V_" << i << "| = "
                        << inst.constraint_row(i).size() << " != 2");
  }
  for (ObjectiveId k = 0; k < inst.num_objectives(); ++k) {
    const auto row = inst.objective_row(k);
    LOCMM_CHECK_MSG(row.size() >= 2, "special form violated: |V_k" << k
                                         << "| = " << row.size() << " < 2");
    for (const Entry& e : row) {
      LOCMM_CHECK_MSG(std::abs(e.coeff - 1.0) <= tol,
                      "special form violated: c_{" << k << "," << e.agent
                          << "} = " << e.coeff << " != 1");
    }
  }
  for (AgentId v = 0; v < inst.num_agents(); ++v) {
    LOCMM_CHECK_MSG(inst.agent_objectives(v).size() == 1,
                    "special form violated: |K_" << v << "| = "
                        << inst.agent_objectives(v).size() << " != 1");
    LOCMM_CHECK_MSG(!inst.agent_constraints(v).empty(),
                    "special form violated: |I_" << v << "| = 0");
  }
}

bool is_special_form(const MaxMinInstance& inst, double tol) {
  try {
    check_special_form(inst, tol);
    return true;
  } catch (const CheckError&) {
    return false;
  }
}

}  // namespace locmm
