#include "graph/connectivity.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace gvex {
namespace {

TEST(ConnectivityTest, SingleComponent) {
  Graph g = testing::PathGraph(4);
  auto comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0], (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_TRUE(IsConnected(g));
}

TEST(ConnectivityTest, TwoComponents) {
  Graph g;
  for (int i = 0; i < 5; ++i) g.AddNode(0);
  (void)g.AddEdge(0, 1);
  (void)g.AddEdge(2, 3);
  auto comps = ConnectedComponents(g);
  ASSERT_EQ(comps.size(), 3u);  // {0,1}, {2,3}, {4}
  EXPECT_EQ(comps[2], (std::vector<NodeId>{4}));
  EXPECT_FALSE(IsConnected(g));
}

TEST(ConnectivityTest, EmptyGraphIsConnected) {
  Graph g;
  EXPECT_TRUE(IsConnected(g));
  EXPECT_TRUE(ConnectedComponents(g).empty());
}

TEST(ConnectivityTest, DirectedEdgesTreatedAsUndirected) {
  Graph g(/*directed=*/true);
  g.AddNode(0);
  g.AddNode(0);
  (void)g.AddEdge(1, 0);
  EXPECT_TRUE(IsConnected(g));
}

}  // namespace
}  // namespace gvex
