#include "pattern/isomorphism.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace gvex {
namespace {

Graph Triangle(int type = 0) {
  Graph g;
  for (int i = 0; i < 3; ++i) g.AddNode(type);
  (void)g.AddEdge(0, 1);
  (void)g.AddEdge(1, 2);
  (void)g.AddEdge(0, 2);
  return g;
}

Graph Path(int n, int type = 0) {
  Graph g;
  for (int i = 0; i < n; ++i) g.AddNode(type);
  for (int i = 0; i + 1 < n; ++i) (void)g.AddEdge(i, i + 1);
  return g;
}

TEST(IsomorphismTest, SingleNodeMatchesEveryTypedNode) {
  Graph pattern;
  pattern.AddNode(1);
  Graph g = testing::TriangleWithTail();  // types: 1,1,1,0,0
  auto matches = FindMatches(pattern, g);
  EXPECT_EQ(matches.size(), 3u);
}

TEST(IsomorphismTest, TriangleFoundInTriangleWithTail) {
  Graph g = testing::TriangleWithTail();
  auto matches = FindMatches(Triangle(1), g);
  // 3! = 6 automorphic embeddings of the triangle onto nodes {0,1,2}.
  EXPECT_EQ(matches.size(), 6u);
  for (const Match& m : matches) {
    for (NodeId v : m) EXPECT_LT(v, 3);
  }
}

TEST(IsomorphismTest, TypeMismatchBlocksMatch) {
  Graph g = testing::TriangleWithTail();
  auto matches = FindMatches(Triangle(0), g);  // tail nodes form no triangle
  EXPECT_TRUE(matches.empty());
}

TEST(IsomorphismTest, InducedSemanticsRejectsExtraEdges) {
  // Pattern: path of 3 type-1 nodes. In the triangle, any 3 nodes have all
  // 3 edges, so the *induced* path cannot embed.
  Graph g = Triangle(1);
  Graph pattern = Path(3, 1);
  MatchOptions induced;
  induced.semantics = MatchSemantics::kInduced;
  EXPECT_TRUE(FindMatches(pattern, g, induced).empty());

  MatchOptions loose;
  loose.semantics = MatchSemantics::kNonInduced;
  EXPECT_FALSE(FindMatches(pattern, g, loose).empty());
}

TEST(IsomorphismTest, EdgeTypesMustAgree) {
  Graph g;
  g.AddNode(0);
  g.AddNode(0);
  (void)g.AddEdge(0, 1, /*edge_type=*/7);
  Graph p_match;
  p_match.AddNode(0);
  p_match.AddNode(0);
  (void)p_match.AddEdge(0, 1, 7);
  Graph p_mismatch;
  p_mismatch.AddNode(0);
  p_mismatch.AddNode(0);
  (void)p_mismatch.AddEdge(0, 1, 8);
  EXPECT_FALSE(FindMatches(p_match, g).empty());
  EXPECT_TRUE(FindMatches(p_mismatch, g).empty());
}

TEST(IsomorphismTest, MaxMatchesCapsEnumeration) {
  Graph g = testing::StarGraph(6);
  Graph pattern;  // hub-leaf edge: type1 - type0
  pattern.AddNode(1);
  pattern.AddNode(0);
  (void)pattern.AddEdge(0, 1);
  MatchOptions opt;
  opt.max_matches = 3;
  auto matches = FindMatches(pattern, g, opt);
  EXPECT_EQ(matches.size(), 3u);
}

TEST(IsomorphismTest, PatternLargerThanTargetFails) {
  EXPECT_TRUE(FindMatches(Path(5), Path(3)).empty());
}

TEST(IsomorphismTest, ContainsPatternEarlyExit) {
  Graph g = testing::TriangleWithTail();
  EXPECT_TRUE(ContainsPattern(g, Triangle(1)));
  EXPECT_FALSE(ContainsPattern(g, Triangle(0)));
}

TEST(IsomorphismTest, MatchMapsPreserveAdjacency) {
  Graph g = testing::TriangleWithTail();
  Graph pattern = Path(2, 0);  // tail edge 3-4
  auto matches = FindMatches(pattern, g);
  ASSERT_FALSE(matches.empty());
  for (const Match& m : matches) {
    EXPECT_TRUE(g.HasEdge(m[0], m[1]) || g.HasEdge(m[1], m[0]));
    EXPECT_EQ(g.node_type(m[0]), 0);
    EXPECT_EQ(g.node_type(m[1]), 0);
  }
}

TEST(IsomorphismTest, ReciprocalDirectedPairMatchesOnce) {
  // 0->1 and 1->0: the anchored search lists node 1 as an out- and as an
  // in-neighbour of node 0, and must still emit each mapping once.
  Graph g(/*directed=*/true);
  g.AddNode(0);
  g.AddNode(0);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  ASSERT_TRUE(g.AddEdge(1, 0).ok());
  const std::vector<Match> want{{0, 1}, {1, 0}};
  EXPECT_EQ(FindMatches(Path(2), g), want);
  // A cap of 2 therefore holds both distinct mappings.
  MatchOptions opt;
  opt.max_matches = 2;
  EXPECT_EQ(FindMatches(Path(2), g, opt), want);
}

TEST(GraphsIsomorphicTest, DetectsIsomorphismAndRejectsNonIso) {
  Graph a = Path(4);
  // Same path with relabeled node order.
  Graph b;
  for (int i = 0; i < 4; ++i) b.AddNode(0);
  (void)b.AddEdge(3, 2);
  (void)b.AddEdge(2, 0);
  (void)b.AddEdge(0, 1);
  EXPECT_TRUE(GraphsIsomorphic(a, b));
  EXPECT_FALSE(GraphsIsomorphic(a, Triangle()));
  EXPECT_FALSE(GraphsIsomorphic(Path(3), Path(4)));
}

TEST(GraphsIsomorphicTest, TypeSensitive) {
  Graph a;
  a.AddNode(0);
  a.AddNode(1);
  (void)a.AddEdge(0, 1);
  Graph b;
  b.AddNode(0);
  b.AddNode(0);
  (void)b.AddEdge(0, 1);
  EXPECT_FALSE(GraphsIsomorphic(a, b));
}

}  // namespace
}  // namespace gvex
