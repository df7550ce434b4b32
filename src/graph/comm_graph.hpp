// comm_graph.hpp -- the communication graph G = (V u I u K, E) of §1.1/§1.2.
//
// A flattened, typed view of a MaxMinInstance: one node per agent,
// constraint and objective, adjacency lists with the edge coefficient, and
// ports numbered by list position (the port-numbering model: each node
// orders its incident edges; we inherit the deterministic order fixed by the
// instance rows).  Agents list their constraint edges first, then their
// objective edges, matching the agent's local input (Iv, Kv, coefficients).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "lp/instance.hpp"
#include "lp/spliced_rows.hpp"

namespace locmm {

using NodeId = std::int64_t;

enum class NodeType : std::uint8_t { kAgent, kConstraint, kObjective };

const char* to_string(NodeType t);

struct HalfEdge {
  NodeId to = -1;
  double coeff = 0.0;  // a_iv or c_kv on this edge
};

class CommGraph {
 public:
  explicit CommGraph(const MaxMinInstance& inst);

  NodeId num_nodes() const { return static_cast<NodeId>(adj_.num_rows()); }
  std::int32_t num_agents() const { return num_agents_; }
  std::int32_t num_constraints() const { return num_constraints_; }
  std::int32_t num_objectives() const { return num_objectives_; }

  NodeId agent_node(AgentId v) const { return v; }
  NodeId constraint_node(ConstraintId i) const { return num_agents_ + i; }
  NodeId objective_node(ObjectiveId k) const {
    return num_agents_ + num_constraints_ + k;
  }

  NodeType type(NodeId node) const {
    LOCMM_DCHECK(node >= 0 && node < num_nodes());
    if (node < num_agents_) return NodeType::kAgent;
    if (node < num_agents_ + num_constraints_) return NodeType::kConstraint;
    return NodeType::kObjective;
  }

  // Index of the node within its own class (AgentId / ConstraintId /
  // ObjectiveId depending on type()).
  std::int32_t class_index(NodeId node) const {
    switch (type(node)) {
      case NodeType::kAgent: return static_cast<std::int32_t>(node);
      case NodeType::kConstraint:
        return static_cast<std::int32_t>(node - num_agents_);
      case NodeType::kObjective:
        return static_cast<std::int32_t>(node - num_agents_ - num_constraints_);
    }
    return -1;
  }

  // Neighbours in port order; the index into this span is the port number.
  std::span<const HalfEdge> neighbors(NodeId node) const {
    LOCMM_DCHECK(node >= 0 && node < num_nodes());
    return adj_.row(static_cast<std::size_t>(node));
  }

  std::int32_t degree(NodeId node) const {
    return static_cast<std::int32_t>(neighbors(node).size());
  }

  // The port at the neighbour reached via `port` of `node` that leads back
  // to `node` (first match in the neighbour's port order).  Part of every
  // local view (the child's parent_port), so ViewTree::build and the
  // message-passing gather MUST resolve it identically -- both call this.
  std::int32_t back_port(NodeId node, std::int32_t port) const;

  // For an agent node: ports [0, constraint_degree) are constraints and
  // ports [constraint_degree, degree) are objectives.
  std::int32_t constraint_degree(NodeId agent) const {
    LOCMM_DCHECK(type(agent) == NodeType::kAgent);
    return constraint_degree_[static_cast<std::size_t>(agent)];
  }

  // Patches the coefficient written on the (row_node, agent) edge, in both
  // directions, without touching the topology.  O(deg) per call: the edge is
  // located by scanning the two port lists (an agent meets a given row at
  // most once, so both slots are unique).  This is the single-edge
  // coefficient path; whole deltas (including structural ones) go through
  // apply_delta below.
  void set_edge_coefficient(NodeId row_node, NodeId agent, double coeff);

  // Splices the graph to match `inst`, which must be the instance AFTER
  // `delta` was applied to the instance this graph was built from (node
  // counts never change under deltas).  Every node the delta touches -- the
  // row nodes and the agents of its membership and coefficient edits -- has
  // its adjacency row rebuilt wholesale from `inst`, which reproduces the
  // constructor's port order exactly (rows and incidence lists ARE the port
  // numbering), so the result is accessor-identical to CommGraph(inst).
  // O(ball): only touched rows splice; the adjacency heap is slack CSR.
  // Calling apply_delta(delta, pre_inst) after the instance was rolled back
  // to pre_inst un-does the splice -- the rollback path of
  // src/dynamic/incremental_solver.cpp uses exactly that symmetry.
  void apply_delta(const InstanceDelta& delta, const MaxMinInstance& inst);

  // BFS distances from `src`, capped at max_dist (nodes farther away get -1).
  std::vector<std::int32_t> bfs_distances(NodeId src,
                                          std::int32_t max_dist) const;

  // Multi-source variant: distance to the nearest of `sources`.  The shared
  // flood of the dynamic layers -- SyncNetwork::replay derives activation
  // rounds from it and IncrementalSolver feeds it pre-edit distances.
  std::vector<std::int32_t> bfs_distances(std::span<const NodeId> sources,
                                          std::int32_t max_dist) const;

  // All nodes within distance max_dist of src, in BFS (distance, discovery)
  // order; the first element is src itself.
  std::vector<NodeId> ball(NodeId src, std::int32_t max_dist) const;

 private:
  std::int32_t num_agents_ = 0;
  std::int32_t num_constraints_ = 0;
  std::int32_t num_objectives_ = 0;
  SplicedRows<HalfEdge> adj_;
  std::vector<std::int32_t> constraint_degree_;
};

}  // namespace locmm
