// id_map.cpp -- the persistent old-id -> new-id map of the §4 pipeline.
//
// Every stage of to_special_form expands its input in input order, so the
// composed image of each original id is a contiguous special-id range whose
// bounds are nested prefix-sum lookups: stage §4.3 turns s1 row i into rows
// [f2[i], f2[i+1]), §4.4 turns s2 row r into [f3[r], f3[r+1]) and s2 agent v
// into copies [cf3[v], cf3[v+1]), §4.5 turns s3 row/agent likewise (f4 /
// hf4), and §4.2 / §4.6 are id-preserving on originals.  Composing:
//   con_first[i]  = f4[f3[f2[i]]],     con_end  = f4[f3[f2[i+1]]]
//   agent_first[v] = hf4[cf3[v]],      agent_end = hf4[cf3[v+1]]
// The prefix arrays are recomputed here from the actual intermediate
// instances (steps[0..3]), with end-to-end CHECKs against the built sizes,
// so the map can never drift from what the stages actually emitted.
//
// map_delta is the O(ball) alternative to "re-run the pipeline and diff":
// under the fast-path conditions documented in transform.hpp the pipeline's
// numbering is provably a fixed point of the edit, and the original delta
// translates edge-by-edge into special coordinates.
#include <algorithm>
#include <bit>
#include <map>
#include <set>

#include "transform/transform.hpp"

namespace locmm {

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::int32_t narrow(std::int64_t x) {
  LOCMM_CHECK(x >= 0 && x <= 0x7fffffff);
  return static_cast<std::int32_t>(x);
}

}  // namespace

PipelineIdMap build_pipeline_id_map(const MaxMinInstance& in,
                                    const std::vector<TransformStep>& steps) {
  LOCMM_CHECK(steps.size() == 5);
  const MaxMinInstance& s1 = steps[0].instance;
  const MaxMinInstance& s2 = steps[1].instance;
  const MaxMinInstance& s3 = steps[2].instance;
  const MaxMinInstance& s4 = steps[3].instance;
  LOCMM_CHECK(steps[4].instance.num_agents() == s4.num_agents());

  PipelineIdMap m;
  const std::int32_t n0 = in.num_agents();
  const std::int32_t m0 = in.num_constraints();
  const std::int32_t k0 = in.num_objectives();

  // §4.2 sensitivity: per gadget, the singleton row itself, the reference
  // objective k (first objective of the singleton agent) whose row sums the
  // big-M bound, and every agent whose capacity enters that sum.
  m.row_gadget.assign(static_cast<std::size_t>(m0), 0);
  m.agent_sensitive.assign(static_cast<std::size_t>(n0), 0);
  m.obj_sensitive.assign(static_cast<std::size_t>(k0), 0);
  for (ConstraintId i = 0; i < m0; ++i) {
    if (in.constraint_row(i).size() != 1) continue;
    m.row_gadget[static_cast<std::size_t>(i)] = 1;
    m.has_gadgets = true;
    const AgentId v = in.constraint_row(i)[0].agent;
    const ObjectiveId k = in.agent_objectives(v)[0].row;
    m.obj_sensitive[static_cast<std::size_t>(k)] = 1;
    for (const Entry& e : in.objective_row(k)) {
      m.agent_sensitive[static_cast<std::size_t>(e.agent)] = 1;
    }
  }

  // §4.3 row expansion over s1 rows: size-2 rows pass, larger ones become
  // C(s, 2) pairwise rows.
  const std::int32_t m1 = s1.num_constraints();
  std::vector<std::int64_t> f2(static_cast<std::size_t>(m1) + 1, 0);
  for (ConstraintId i = 0; i < m1; ++i) {
    const auto s = static_cast<std::int64_t>(s1.constraint_row(i).size());
    f2[static_cast<std::size_t>(i) + 1] =
        f2[static_cast<std::size_t>(i)] + (s <= 2 ? 1 : s * (s - 1) / 2);
  }
  LOCMM_CHECK(f2[static_cast<std::size_t>(m1)] == s2.num_constraints());

  // §4.4: one copy per objective port, rows expand over the cartesian
  // product of their members' copy counts.
  const std::int32_t n2 = s2.num_agents();
  std::vector<std::int64_t> cf3(static_cast<std::size_t>(n2) + 1, 0);
  for (AgentId v = 0; v < n2; ++v) {
    cf3[static_cast<std::size_t>(v) + 1] =
        cf3[static_cast<std::size_t>(v)] +
        static_cast<std::int64_t>(s2.agent_objectives(v).size());
  }
  LOCMM_CHECK(cf3[static_cast<std::size_t>(n2)] == s3.num_agents());

  const std::int32_t m2 = s2.num_constraints();
  std::vector<std::int64_t> f3(static_cast<std::size_t>(m2) + 1, 0);
  for (ConstraintId i = 0; i < m2; ++i) {
    std::int64_t prod = 1;
    for (const Entry& e : s2.constraint_row(i)) {
      prod *= static_cast<std::int64_t>(s2.agent_objectives(e.agent).size());
    }
    f3[static_cast<std::size_t>(i) + 1] = f3[static_cast<std::size_t>(i)] + prod;
  }
  LOCMM_CHECK(f3[static_cast<std::size_t>(m2)] == s3.num_constraints());

  // §4.5: agents with a singleton objective row split into two halves, rows
  // expand over the product of their members' half counts.
  const std::int32_t n3 = s3.num_agents();
  std::vector<std::int64_t> hf4(static_cast<std::size_t>(n3) + 1, 0);
  auto halves_of = [&](AgentId v) -> std::int64_t {
    const ObjectiveId k = s3.agent_objectives(v)[0].row;
    return s3.objective_row(k).size() == 1 ? 2 : 1;
  };
  for (AgentId v = 0; v < n3; ++v) {
    hf4[static_cast<std::size_t>(v) + 1] =
        hf4[static_cast<std::size_t>(v)] + halves_of(v);
  }
  LOCMM_CHECK(hf4[static_cast<std::size_t>(n3)] == s4.num_agents());

  const std::int32_t m3 = s3.num_constraints();
  std::vector<std::int64_t> f4(static_cast<std::size_t>(m3) + 1, 0);
  for (ConstraintId i = 0; i < m3; ++i) {
    std::int64_t prod = 1;
    for (const Entry& e : s3.constraint_row(i)) prod *= halves_of(e.agent);
    f4[static_cast<std::size_t>(i) + 1] = f4[static_cast<std::size_t>(i)] + prod;
  }
  LOCMM_CHECK(f4[static_cast<std::size_t>(m3)] == s4.num_constraints());

  // §4.3 divisor from s1 (original agents keep their ids there).
  m.divisor.assign(static_cast<std::size_t>(n0), 2.0);
  for (AgentId v = 0; v < n0; ++v) {
    for (const Incidence& inc : s1.agent_constraints(v)) {
      m.divisor[static_cast<std::size_t>(v)] = std::max(
          m.divisor[static_cast<std::size_t>(v)],
          static_cast<double>(s1.constraint_row(inc.row).size()));
    }
  }

  // §4.6 scale per special agent, read off s4 (§4.6 preserves structure, so
  // s4 and the special instance share agent ids).
  m.gamma.resize(static_cast<std::size_t>(s4.num_agents()));
  for (AgentId w = 0; w < s4.num_agents(); ++w) {
    m.gamma[static_cast<std::size_t>(w)] = s4.agent_objectives(w)[0].coeff;
  }

  // Composed contiguous spans for the original ids.
  m.agent_first.resize(static_cast<std::size_t>(n0));
  m.agent_count.resize(static_cast<std::size_t>(n0));
  for (AgentId v = 0; v < n0; ++v) {
    const std::int64_t lo = hf4[static_cast<std::size_t>(cf3[static_cast<std::size_t>(v)])];
    const std::int64_t hi = hf4[static_cast<std::size_t>(cf3[static_cast<std::size_t>(v) + 1])];
    m.agent_first[static_cast<std::size_t>(v)] = narrow(lo);
    m.agent_count[static_cast<std::size_t>(v)] = narrow(hi - lo);
  }
  m.con_first.resize(static_cast<std::size_t>(m0));
  m.con_count.resize(static_cast<std::size_t>(m0));
  for (ConstraintId i = 0; i < m0; ++i) {
    const std::int64_t lo = f4[static_cast<std::size_t>(f3[static_cast<std::size_t>(f2[static_cast<std::size_t>(i)])])];
    const std::int64_t hi = f4[static_cast<std::size_t>(f3[static_cast<std::size_t>(f2[static_cast<std::size_t>(i) + 1])])];
    m.con_first[static_cast<std::size_t>(i)] = narrow(lo);
    m.con_count[static_cast<std::size_t>(i)] = narrow(hi - lo);
  }
  return m;
}

std::optional<MappedDelta> PipelineIdMap::map_delta(
    const InstanceDelta& delta, const MaxMinInstance& orig) const {
  // Growth accounting and touched-id collection.  An entry in con_growth /
  // obj_growth / kv_growth marks the id as STRUCTURALLY touched even at
  // growth zero (remove-then-re-add rewires a row without resizing it).
  std::map<ConstraintId, std::int64_t> con_growth;
  std::map<ObjectiveId, std::int64_t> obj_growth;
  std::map<AgentId, std::int64_t> kv_growth;
  std::set<ConstraintId> touched_con;
  std::set<ObjectiveId> touched_obj;
  std::set<AgentId> touched_agents;
  auto touch = [&](RowKind kind, std::int32_t row, AgentId agent) {
    (kind == RowKind::kConstraint ? touched_con : touched_obj).insert(row);
    touched_agents.insert(agent);
  };
  auto account = [&](const MembershipEdit& e, std::int64_t d) {
    touch(e.kind, e.row, e.agent);
    if (e.kind == RowKind::kConstraint) {
      con_growth[e.row] += d;
    } else {
      obj_growth[e.row] += d;
      kv_growth[e.agent] += d;
    }
  };
  for (const MembershipEdit& e : delta.removes) account(e, -1);
  for (const MembershipEdit& e : delta.adds) account(e, +1);
  for (const CoeffEdit& e : delta.coeff_edits) touch(e.kind, e.row, e.agent);

  // Fast-path conditions (transform.hpp): reject any touched id that could
  // move the pipeline's numbering.
  for (const ConstraintId i : touched_con) {
    if (row_gadget[static_cast<std::size_t>(i)]) return std::nullopt;
    // Singly-imaged, coefficient edits included: a §4.3-split row's pairwise
    // pieces each hold only TWO of the members, so an edit on it has no
    // single special address (and a membership edit would change the pair
    // set outright).
    if (con_count[static_cast<std::size_t>(i)] != 1) return std::nullopt;
    const auto it = con_growth.find(i);
    if (it == con_growth.end()) continue;  // coefficient-only
    if (it->second != 0) return std::nullopt;
    if (orig.constraint_row(i).size() != 2) return std::nullopt;
  }
  for (const ObjectiveId k : touched_obj) {
    if (obj_sensitive[static_cast<std::size_t>(k)]) return std::nullopt;
    const auto pre = static_cast<std::int64_t>(orig.objective_row(k).size());
    std::int64_t g = 0;
    if (const auto it = obj_growth.find(k); it != obj_growth.end())
      g = it->second;
    if (pre < 2 || pre + g < 2) return std::nullopt;
  }
  for (const AgentId v : touched_agents) {
    if (agent_sensitive[static_cast<std::size_t>(v)]) return std::nullopt;
    if (agent_count[static_cast<std::size_t>(v)] != 1) return std::nullopt;
    if (const auto it = kv_growth.find(v);
        it != kv_growth.end() && it->second != 0) {
      return std::nullopt;
    }
  }

  // Post-edit §4.6 scale per touched agent: the batch can move the agent to
  // another objective row (remove + re-add, growth zero keeps |Kv| = 1) and
  // can rewrite the coefficient (the re-add's value, then coefficient edits
  // in batch order, last one winning) -- the same resolution order apply()
  // uses.
  struct PostObjective {
    ObjectiveId row = -1;
    double coeff = 0.0;
  };
  std::map<AgentId, PostObjective> post;
  for (const AgentId v : touched_agents) {
    const Incidence pre = orig.agent_objectives(v)[0];  // |Kv| == 1 (above)
    post[v] = {pre.row, pre.coeff};
  }
  for (const MembershipEdit& e : delta.adds) {
    if (e.kind == RowKind::kObjective) post.at(e.agent) = {e.row, e.coeff};
  }
  for (const CoeffEdit& e : delta.coeff_edits) {
    if (e.kind != RowKind::kObjective) continue;
    if (PostObjective& p = post.at(e.agent); p.row == e.row) p.coeff = e.coeff;
  }

  const auto v_img = [&](AgentId v) {
    return static_cast<AgentId>(agent_first[static_cast<std::size_t>(v)]);
  };
  const auto gamma_post = [&](AgentId v) { return post.at(v).coeff; };

  // Edge-by-edge translation, in apply() order.  Constraint coefficients
  // divide by the agent's post-edit gamma (the exact expression §4.6
  // evaluates), objective coefficients pin to 1.  Coefficient edits fan out
  // over the row's whole image span: every §4.4/§4.5 replica carries the
  // touched agent's single image with the same coefficient.
  MappedDelta out;
  for (const MembershipEdit& e : delta.removes) {
    const std::int32_t row =
        e.kind == RowKind::kConstraint
            ? con_first[static_cast<std::size_t>(e.row)]
            : e.row;
    out.special.removes.push_back({e.kind, row, v_img(e.agent), 0.0});
  }
  for (const MembershipEdit& e : delta.adds) {
    if (e.kind == RowKind::kConstraint) {
      out.special.adds.push_back({e.kind,
                                  con_first[static_cast<std::size_t>(e.row)],
                                  v_img(e.agent),
                                  e.coeff / gamma_post(e.agent)});
    } else {
      out.special.adds.push_back({e.kind, e.row, v_img(e.agent), 1.0});
    }
  }
  for (const CoeffEdit& e : delta.coeff_edits) {
    if (e.kind != RowKind::kConstraint) continue;  // image obj coeffs == 1
    out.special.coeff_edits.push_back(
        {e.kind, con_first[static_cast<std::size_t>(e.row)], v_img(e.agent),
         e.coeff / gamma_post(e.agent)});
  }

  // Gamma rescale: an agent whose §4.6 scale changed has EVERY surviving
  // constraint coefficient of its image rescaled (the scratch pipeline
  // divides them all by the new gamma).  Batch-added memberships already
  // carry the new scale above; batch-edited ones are re-emitted here with
  // the identical value (last write wins in apply()).
  for (const AgentId v : touched_agents) {
    const double g_new = gamma_post(v);
    const double g_old = gamma[static_cast<std::size_t>(v_img(v))];
    if (same_bits(g_new, g_old)) continue;
    // Every surviving row of v must be singly-imaged too, or the rescale
    // has no single special address per row (same §4.3 argument as above --
    // these rows are NOT in touched_con, so check them here).
    for (const Incidence& inc : orig.agent_constraints(v)) {
      if (con_count[static_cast<std::size_t>(inc.row)] != 1)
        return std::nullopt;
    }
    out.gamma_updates.push_back({v_img(v), g_new});
    std::set<ConstraintId> removed;
    for (const MembershipEdit& e : delta.removes) {
      if (e.kind == RowKind::kConstraint && e.agent == v) removed.insert(e.row);
    }
    std::map<ConstraintId, double> edited;
    for (const CoeffEdit& e : delta.coeff_edits) {
      if (e.kind == RowKind::kConstraint && e.agent == v) edited[e.row] = e.coeff;
    }
    for (const Incidence& inc : orig.agent_constraints(v)) {
      if (removed.count(inc.row) != 0) continue;
      const auto it = edited.find(inc.row);
      const double a = it != edited.end() ? it->second : inc.coeff;
      out.special.coeff_edits.push_back(
          {RowKind::kConstraint, con_first[static_cast<std::size_t>(inc.row)],
           v_img(v), a / g_new});
    }
  }
  return out;
}

void PipelineIdMap::apply_gamma_updates(const MappedDelta& mapped) {
  for (const auto& [w, g] : mapped.gamma_updates) {
    gamma[static_cast<std::size_t>(w)] = g;
  }
}

std::vector<double> PipelineIdMap::map_back(
    std::span<const double> x_special) const {
  LOCMM_CHECK(x_special.size() == gamma.size());
  std::vector<double> x(agent_first.size());
  for (std::size_t v = 0; v < agent_first.size(); ++v)
    x[v] = map_back_agent(static_cast<AgentId>(v), x_special);
  return x;
}

double PipelineIdMap::map_back_agent(AgentId v,
                                     std::span<const double> x_special) const {
  // max over the flattened copies x halves span, seeded 0.0 -- the §4.4 /
  // §4.5 closures' nested max folds flattened (associative, and every
  // candidate is >= +0.0, so the fold is bitwise order-insensitive);
  // division by gamma is §4.6's expression, 2x/divisor is §4.3's.
  const auto sv = static_cast<std::size_t>(v);
  double best = 0.0;
  const auto first = static_cast<std::size_t>(agent_first[sv]);
  const auto count = static_cast<std::size_t>(agent_count[sv]);
  for (std::size_t h = first; h < first + count; ++h) {
    best = std::max(best, x_special[h] / gamma[h]);
  }
  return 2.0 * best / divisor[sv];
}

AgentId PipelineIdMap::owner_of(AgentId w) const {
  const auto it = std::upper_bound(agent_first.begin(), agent_first.end(), w);
  if (it == agent_first.begin()) return -1;
  const auto v = static_cast<std::size_t>(it - agent_first.begin()) - 1;
  return w < agent_first[v] + agent_count[v] ? static_cast<AgentId>(v) : -1;
}

}  // namespace locmm
