#include "graph/subgraph.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace gvex {
namespace {

using testing::TriangleWithTail;

TEST(InducedSubgraphTest, ExtractsNodesTypesAndEdges) {
  Graph g = TriangleWithTail();
  auto r = ExtractInducedSubgraph(g, {0, 1, 2});
  ASSERT_TRUE(r.ok());
  const Graph& sub = r.value().graph;
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 3);  // the full triangle
  EXPECT_EQ(sub.node_type(0), 1);
  EXPECT_EQ(r.value().original_nodes, (std::vector<NodeId>{0, 1, 2}));
}

TEST(InducedSubgraphTest, CopiesFeatureRows) {
  Graph g = TriangleWithTail();
  auto r = ExtractInducedSubgraph(g, {2, 4});
  ASSERT_TRUE(r.ok());
  const Graph& sub = r.value().graph;
  ASSERT_TRUE(sub.has_features());
  EXPECT_EQ(sub.features().RowVec(0), g.features().RowVec(2));
  EXPECT_EQ(sub.features().RowVec(1), g.features().RowVec(4));
}

TEST(InducedSubgraphTest, OnlyInducedEdgesIncluded) {
  Graph g = TriangleWithTail();
  auto r = ExtractInducedSubgraph(g, {0, 3});  // not adjacent
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().graph.num_edges(), 0);
}

TEST(InducedSubgraphTest, DeduplicatesNodes) {
  Graph g = TriangleWithTail();
  auto r = ExtractInducedSubgraph(g, {1, 1, 2});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().graph.num_nodes(), 2);
}

TEST(InducedSubgraphTest, RejectsOutOfRange) {
  Graph g = TriangleWithTail();
  EXPECT_FALSE(ExtractInducedSubgraph(g, {0, 99}).ok());
  EXPECT_FALSE(ExtractInducedSubgraph(g, {-1}).ok());
}

TEST(InducedSubgraphTest, EmptySelectionGivesEmptyGraph) {
  Graph g = TriangleWithTail();
  auto r = ExtractInducedSubgraph(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().graph.num_nodes(), 0);
}

// The unchecked edge copy must build exactly the graph the checked AddEdge
// path builds: same edges in order, same adjacency order, same features,
// on directed graphs with reciprocal pairs and on undirected ones.
TEST(InducedSubgraphTest, MatchesCheckedRebuild) {
  for (bool directed : {false, true}) {
    Graph g(directed);
    const int n = 24;
    for (int i = 0; i < n; ++i) g.AddNode(i % 3);
    for (int i = 0; i < n; ++i) {
      (void)g.AddEdge(i, (i * 7 + 3) % n, i % 2);
      (void)g.AddEdge((i * 5 + 1) % n, i, 0);
    }
    Matrix x(n, 2);
    for (int i = 0; i < n; ++i) {
      x.at(i, 0) = static_cast<float>(i);
      x.at(i, 1) = -0.5f * static_cast<float>(i);
    }
    ASSERT_TRUE(g.SetFeatures(std::move(x)).ok());
    const std::vector<NodeId> nodes{17, 3, 9, 3, 0, 21, 8, 12, 5, 1};
    auto r = ExtractInducedSubgraph(g, nodes);
    ASSERT_TRUE(r.ok());
    const Graph& sub = r.value().graph;
    // The checked rebuild.
    Graph want(directed);
    std::vector<int> to_sub(n, -1);
    for (NodeId v : r.value().original_nodes) {
      to_sub[static_cast<size_t>(v)] = want.AddNode(g.node_type(v));
    }
    for (const Edge& e : g.edges()) {
      const int su = to_sub[static_cast<size_t>(e.u)];
      const int sv = to_sub[static_cast<size_t>(e.v)];
      if (su >= 0 && sv >= 0) {
        ASSERT_TRUE(want.AddEdge(su, sv, e.edge_type).ok());
      }
    }
    ASSERT_EQ(sub.num_nodes(), want.num_nodes());
    ASSERT_EQ(sub.num_edges(), want.num_edges());
    for (int i = 0; i < sub.num_edges(); ++i) {
      EXPECT_EQ(sub.edges()[i].u, want.edges()[i].u);
      EXPECT_EQ(sub.edges()[i].v, want.edges()[i].v);
      EXPECT_EQ(sub.edges()[i].edge_type, want.edges()[i].edge_type);
    }
    for (NodeId v = 0; v < sub.num_nodes(); ++v) {
      EXPECT_EQ(sub.node_type(v), want.node_type(v));
      ASSERT_EQ(sub.degree(v), want.degree(v));
      for (int k = 0; k < sub.degree(v); ++k) {
        EXPECT_EQ(sub.neighbors(v)[k].node, want.neighbors(v)[k].node);
        EXPECT_EQ(sub.neighbors(v)[k].edge_type,
                  want.neighbors(v)[k].edge_type);
      }
      const NodeId o = r.value().original_nodes[static_cast<size_t>(v)];
      EXPECT_EQ(sub.features().at(v, 0), g.features().at(o, 0));
      EXPECT_EQ(sub.features().at(v, 1), g.features().at(o, 1));
    }
  }
}

TEST(RemoveNodesTest, ComplementSurgery) {
  Graph g = TriangleWithTail();  // nodes 0..4
  auto r = RemoveNodes(g, {0, 1});
  ASSERT_TRUE(r.ok());
  const Graph& rest = r.value().graph;
  EXPECT_EQ(rest.num_nodes(), 3);
  // Remaining original nodes: 2,3,4 with edges 2-3, 3-4.
  EXPECT_EQ(rest.num_edges(), 2);
  EXPECT_EQ(r.value().original_nodes, (std::vector<NodeId>{2, 3, 4}));
}

TEST(RemoveNodesTest, RejectsOutOfRangeAndToleratesRepeats) {
  Graph g = TriangleWithTail();
  EXPECT_FALSE(RemoveNodes(g, {1, 5}).ok());
  EXPECT_FALSE(RemoveNodes(g, {-1}).ok());
  auto r = RemoveNodes(g, {2, 2, 4});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().original_nodes, (std::vector<NodeId>{0, 1, 3}));
}

TEST(RemoveNodesTest, RemoveAllYieldsEmpty) {
  Graph g = TriangleWithTail();
  auto r = RemoveNodes(g, {0, 1, 2, 3, 4});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().graph.num_nodes(), 0);
}

TEST(RemoveNodesTest, RemoveNothingIsIdentityShape) {
  Graph g = TriangleWithTail();
  auto r = RemoveNodes(g, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(r.value().graph.num_edges(), g.num_edges());
}

TEST(NeighborhoodTest, ZeroHopsIsJustCenter) {
  Graph g = TriangleWithTail();
  InducedSubgraph nb = ExtractNeighborhood(g, 3, 0);
  EXPECT_EQ(nb.graph.num_nodes(), 1);
  EXPECT_EQ(nb.original_nodes[0], 3);
}

TEST(NeighborhoodTest, OneHopCollectsNeighbors) {
  Graph g = TriangleWithTail();
  InducedSubgraph nb = ExtractNeighborhood(g, 3, 1);
  // Node 3 neighbors: 2 and 4.
  EXPECT_EQ(nb.graph.num_nodes(), 3);
}

TEST(NeighborhoodTest, LargeRadiusCoversComponent) {
  Graph g = TriangleWithTail();
  InducedSubgraph nb = ExtractNeighborhood(g, 0, 10);
  EXPECT_EQ(nb.graph.num_nodes(), 5);
}

}  // namespace
}  // namespace gvex
