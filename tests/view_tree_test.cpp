// Tests for truncated unfoldings: structure on trees vs cycles, port-order
// iteration, structural equality, blow-up guard.
#include <gtest/gtest.h>

#include <vector>

#include "gen/generators.hpp"
#include "graph/view_tree.hpp"

namespace locmm {
namespace {

TEST(ViewTree, TreeGraphUnfoldsToItself) {
  // path_instance's communication graph is a tree: a deep enough view is
  // the whole graph, each node exactly once.
  const MaxMinInstance inst = path_instance(8);
  const CommGraph g(inst);
  const NodeId total = g.num_nodes();
  const ViewTree view = ViewTree::build(g, g.agent_node(0), 100);
  EXPECT_EQ(static_cast<NodeId>(view.size()), total);
  // Every origin appears exactly once.
  std::vector<int> seen(static_cast<std::size_t>(total), 0);
  for (std::int32_t i = 0; i < view.size(); ++i)
    ++seen[static_cast<std::size_t>(view.node(i).origin)];
  for (int c : seen) EXPECT_EQ(c, 1);
}

TEST(ViewTree, CycleViewBranchingRecurrence) {
  // Cycle agents have degree 4 (two constraints, two objectives);
  // constraints/objectives have degree 2.  So in the unfolding, level
  // counts follow: root agent -> 4 mid nodes; every mid node -> 1 agent;
  // every non-root agent -> 3 mid nodes.
  const MaxMinInstance inst = cycle_instance({.num_agents = 12}, 3);
  const CommGraph g(inst);
  const ViewTree view = ViewTree::build(g, g.agent_node(0), 6);
  // Levels: 1 (agent), 4, 4, 12, 12, 36, 36 -> 105 nodes.
  EXPECT_EQ(view.size(), 1 + 4 + 4 + 12 + 12 + 36 + 36);
  EXPECT_EQ(view.node(0).degree, 4);
  EXPECT_EQ(view.node(0).constraint_degree, 2);
}

TEST(ViewTree, CycleViewExceedingGirthRepeatsOrigins) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 4}, 3);
  const CommGraph g(inst);
  const ViewTree view = ViewTree::build(g, g.agent_node(0), 9);
  // Unfolding is infinite: more view nodes than graph nodes.
  EXPECT_GT(static_cast<NodeId>(view.size()), g.num_nodes());
}

TEST(ViewTree, DepthZeroIsJustTheRoot) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 6}, 3);
  const CommGraph g(inst);
  const ViewTree view = ViewTree::build(g, g.agent_node(2), 0);
  EXPECT_EQ(view.size(), 1);
  EXPECT_EQ(view.node(0).origin, g.agent_node(2));
  EXPECT_FALSE(view.expanded(0));
}

TEST(ViewTree, ParentPortPointsBack) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 8}, 3);
  const CommGraph g(inst);
  const ViewTree view = ViewTree::build(g, g.agent_node(0), 4);
  for (std::int32_t i = 1; i < view.size(); ++i) {
    const ViewNode& n = view.node(i);
    const ViewNode& p = view.node(n.parent);
    // In G, the neighbour of n.origin at port n.parent_port is p.origin.
    EXPECT_EQ(g.neighbors(n.origin)[n.parent_port].to, p.origin);
  }
}

TEST(ViewTree, ForEachNeighborInterleavesParentAtItsPort) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 8}, 3);
  const CommGraph g(inst);
  const ViewTree view = ViewTree::build(g, g.agent_node(0), 4);
  for (std::int32_t i = 0; i < view.size(); ++i) {
    if (!view.expanded(i)) continue;
    std::vector<std::int32_t> ports;
    view.for_each_neighbor(i, [&](std::int32_t port, std::int32_t nbr,
                                  double coeff) {
      ports.push_back(port);
      // The neighbour in G at this port is the neighbour's origin, with the
      // same coefficient.
      const HalfEdge& e = g.neighbors(view.node(i).origin)[port];
      EXPECT_EQ(e.to, view.node(nbr).origin);
      EXPECT_DOUBLE_EQ(e.coeff, coeff);
    });
    ASSERT_EQ(static_cast<std::int32_t>(ports.size()),
              g.degree(view.node(i).origin));
    for (std::size_t j = 0; j < ports.size(); ++j)
      EXPECT_EQ(ports[j], static_cast<std::int32_t>(j));
  }
}

TEST(ViewTree, SameViewForSymmetricRoots) {
  // Interior agents of a unit-coefficient cycle have isomorphic views with
  // identical port numbering.  (Agent 0 is excluded: its wrap-around
  // constraint is inserted in a different port position, which a
  // port-numbering algorithm legitimately observes.)
  const MaxMinInstance inst = cycle_instance({.num_agents = 10}, 3);
  const CommGraph g(inst);
  const ViewTree a = ViewTree::build(g, g.agent_node(3), 5);
  const ViewTree b = ViewTree::build(g, g.agent_node(7), 5);
  EXPECT_TRUE(ViewTree::structurally_equal(a, b));
}

TEST(ViewTree, SameViewDetectsCoefficientDifference) {
  CycleParams p{.num_agents = 10, .coeff_lo = 0.5, .coeff_hi = 2.0};
  const MaxMinInstance inst = cycle_instance(p, 3);
  const CommGraph g(inst);
  const ViewTree a = ViewTree::build(g, g.agent_node(0), 3);
  const ViewTree b = ViewTree::build(g, g.agent_node(5), 3);
  // Random coefficients differ.
  EXPECT_FALSE(ViewTree::structurally_equal(a, b));
}

TEST(ViewTree, MaxNodesGuardTrips) {
  const MaxMinInstance inst = grid_instance({.rows = 6, .cols = 6}, 3);
  const CommGraph g(inst);
  EXPECT_THROW(ViewTree::build(g, g.agent_node(0), 30, /*max_nodes=*/100),
               CheckError);
}

TEST(ViewTree, MaxNodesGuardNamesTheCulprit) {
  // The overflow diagnostic must identify the offending root, requested
  // radius and node budget, so a failing whole-instance solve is
  // actionable without a debugger.
  const MaxMinInstance inst = grid_instance({.rows = 6, .cols = 6}, 3);
  const CommGraph g(inst);
  try {
    ViewTree::build(g, g.agent_node(7), 30, /*max_nodes=*/100);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("root 7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("depth 30"), std::string::npos) << msg;
    EXPECT_NE(msg.find("max_nodes 100"), std::string::npos) << msg;
  }
}

TEST(ViewTree, TryBuildIntoRecordsTruncation) {
  const MaxMinInstance inst = grid_instance({.rows = 6, .cols = 6}, 3);
  const CommGraph g(inst);
  ViewTree view;
  EXPECT_FALSE(
      ViewTree::try_build_into(g, g.agent_node(0), 30, view, 100));
  EXPECT_TRUE(view.truncated());
  EXPECT_LE(view.size(), 100);
  // The truncated tree stays internally consistent: every recorded child
  // points back at its parent, and unexpanded nodes read as frontier.
  for (std::int32_t i = 1; i < view.size(); ++i) {
    EXPECT_EQ(g.neighbors(view.node(i).origin)[view.node(i).parent_port].to,
              view.node(view.node(i).parent).origin);
  }
  // A successful try_build clears the flag (arena reuse).
  EXPECT_TRUE(ViewTree::try_build_into(g, g.agent_node(0), 2, view));
  EXPECT_FALSE(view.truncated());
}

TEST(ViewTree, TruncatedNeighborCacheStaysInBounds) {
  // Regression: a truncation cut can strand a node whose parent_port lies
  // beyond its materialised children (the parent edge's port was never
  // reached); the adjacency cache used to walk that node's child list past
  // its end.  Sweep budgets on a degree-3 instance so cuts land at every
  // phase of the BFS, and check every cached slot is a valid node with the
  // parent edge always present.
  const MaxMinInstance inst = circulant_special_instance(
      {.num_objectives = 6, .delta_k = 3, .stride = 5}, 1);
  const CommGraph g(inst);
  ViewTree t;
  for (std::int64_t budget = 1; budget <= 40; ++budget) {
    ViewTree::try_build_into(g, g.agent_node(0), 6, t, budget);
    for (std::int32_t i = 0; i < t.size(); ++i) {
      const auto ids = t.neighbor_ids(i);
      const auto coeffs = t.neighbor_coeffs(i);
      ASSERT_EQ(ids.size(), coeffs.size());
      bool saw_parent = t.node(i).parent < 0;
      for (const std::int32_t id : ids) {
        ASSERT_GE(id, 0) << "node " << i << " budget " << budget;
        ASSERT_LT(id, t.size()) << "node " << i << " budget " << budget;
        if (id == t.node(i).parent) saw_parent = true;
      }
      // The parent edge is how the node was reached, so it must be
      // materialised even when its port lies beyond the truncation cut.
      EXPECT_TRUE(saw_parent) << "node " << i << " budget " << budget;
    }
  }
}

TEST(ViewTree, ByteSizeScalesWithNodes) {
  const MaxMinInstance inst = cycle_instance({.num_agents = 8}, 3);
  const CommGraph g(inst);
  const ViewTree small = ViewTree::build(g, g.agent_node(0), 2);
  const ViewTree large = ViewTree::build(g, g.agent_node(0), 6);
  EXPECT_GT(large.byte_size(), small.byte_size());
  EXPECT_EQ(small.byte_size(), static_cast<std::int64_t>(small.size()) * 13);
}

}  // namespace
}  // namespace locmm
