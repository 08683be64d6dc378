#include "pattern/canonical.h"

#include <gtest/gtest.h>

#include "pattern/blind_matcher.h"
#include "util/rng.h"

namespace gvex {
namespace {

Graph RelabeledCopy(const Graph& g, const std::vector<int>& perm) {
  Graph out(g.directed());
  for (size_t i = 0; i < perm.size(); ++i) {
    // Node i of `out` corresponds to node order[i] of g... we need inverse.
    (void)i;
  }
  // Build: out node j has the type of g node perm[j].
  for (int j = 0; j < g.num_nodes(); ++j) {
    out.AddNode(g.node_type(perm[static_cast<size_t>(j)]));
  }
  std::vector<int> inv(perm.size());
  for (size_t j = 0; j < perm.size(); ++j) {
    inv[static_cast<size_t>(perm[j])] = static_cast<int>(j);
  }
  for (const Edge& e : g.edges()) {
    (void)out.AddEdge(inv[static_cast<size_t>(e.u)],
                      inv[static_cast<size_t>(e.v)], e.edge_type);
  }
  return out;
}

TEST(CanonicalTest, EmptyGraphHasStableCode) {
  Graph g;
  EXPECT_EQ(CanonicalCode(g), "empty");
}

TEST(CanonicalTest, IsomorphicGraphsShareCode) {
  Graph g;
  g.AddNode(1);
  g.AddNode(2);
  g.AddNode(1);
  (void)g.AddEdge(0, 1);
  (void)g.AddEdge(1, 2);
  Graph h = RelabeledCopy(g, {2, 1, 0});
  EXPECT_EQ(CanonicalCode(g), CanonicalCode(h));
}

TEST(CanonicalTest, NonIsomorphicGraphsDiffer) {
  Graph path;
  for (int i = 0; i < 3; ++i) path.AddNode(0);
  (void)path.AddEdge(0, 1);
  (void)path.AddEdge(1, 2);
  Graph triangle;
  for (int i = 0; i < 3; ++i) triangle.AddNode(0);
  (void)triangle.AddEdge(0, 1);
  (void)triangle.AddEdge(1, 2);
  (void)triangle.AddEdge(0, 2);
  EXPECT_NE(CanonicalCode(path), CanonicalCode(triangle));
}

TEST(CanonicalTest, TypeSensitive) {
  Graph a;
  a.AddNode(0);
  a.AddNode(1);
  (void)a.AddEdge(0, 1);
  Graph b;
  b.AddNode(0);
  b.AddNode(2);
  (void)b.AddEdge(0, 1);
  EXPECT_NE(CanonicalCode(a), CanonicalCode(b));
}

TEST(CanonicalTest, EdgeTypeSensitive) {
  Graph a;
  a.AddNode(0);
  a.AddNode(0);
  (void)a.AddEdge(0, 1, 0);
  Graph b;
  b.AddNode(0);
  b.AddNode(0);
  (void)b.AddEdge(0, 1, 1);
  EXPECT_NE(CanonicalCode(a), CanonicalCode(b));
}

// Property sweep: for random small graphs, every node-permuted copy shares
// the canonical code, and the code agrees with the exact isomorphism test.
class CanonicalPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalPropertyTest, PermutationInvariance) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const int n = 2 + static_cast<int>(rng.NextUint(4));  // 2..5 nodes
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddNode(static_cast<int>(rng.NextUint(2)));
  }
  // Random spanning structure + extra edges.
  for (int i = 1; i < n; ++i) {
    (void)g.AddEdge(i, static_cast<int>(rng.NextUint(static_cast<uint64_t>(i))));
  }
  for (int extra = 0; extra < 2; ++extra) {
    int u = static_cast<int>(rng.NextUint(static_cast<uint64_t>(n)));
    int v = static_cast<int>(rng.NextUint(static_cast<uint64_t>(n)));
    if (u != v) (void)g.AddEdge(u, v);
  }
  std::vector<int> perm(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) perm[static_cast<size_t>(i)] = i;
  rng.Shuffle(&perm);
  Graph h = RelabeledCopy(g, perm);
  EXPECT_EQ(CanonicalCode(g), CanonicalCode(h));
  EXPECT_TRUE(testing::GraphsIsomorphic(g, h));
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, CanonicalPropertyTest,
                         ::testing::Range(0, 25));

}  // namespace
}  // namespace gvex
