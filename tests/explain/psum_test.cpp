#include "explain/psum.h"

#include <gtest/gtest.h>

#include "explain/psum_reference.h"
#include "pattern/coverage.h"
#include "test_util.h"

namespace gvex {
namespace {

Configuration PsumConfig(int max_pattern_nodes = 3) {
  Configuration c;
  c.miner.max_pattern_nodes = max_pattern_nodes;
  c.miner.max_patterns = 64;
  return c;
}

// Pins Psum to the rematch oracle of tests/explain/psum_reference.h: the
// same patterns in the same greedy order and the same edge accounting.
void ExpectMatchesReference(const std::vector<Graph>& subs,
                            const Configuration& config) {
  std::vector<const Graph*> ptrs;
  for (const Graph& g : subs) ptrs.push_back(&g);
  auto got = Psum(ptrs, config);
  ASSERT_TRUE(got.ok());
  const PsumResult want = testing::ReferencePsum(ptrs, config);
  ASSERT_EQ(got.value().patterns.size(), want.patterns.size());
  for (size_t p = 0; p < want.patterns.size(); ++p) {
    EXPECT_EQ(got.value().patterns[p].canonical_code(),
              want.patterns[p].canonical_code())
        << "pattern " << p;
  }
  EXPECT_EQ(got.value().covered_edges, want.covered_edges);
  EXPECT_EQ(got.value().total_edges, want.total_edges);
  EXPECT_EQ(got.value().full_node_coverage, want.full_node_coverage);
}

// True when some mined candidate has an occurrence that `binds` selects.
template <typename Pred>
bool SomeOccurrence(const std::vector<Graph>& subs, const MinerOptions& opt,
                    Pred binds) {
  for (const MinedPattern& mp : MinePatterns(subs, opt)) {
    for (const Occurrence& occ : mp.occurrences) {
      if (binds(occ)) return true;
    }
  }
  return false;
}

TEST(PsumTest, EmptyInputIsTriviallyCovered) {
  auto r = Psum(std::vector<Graph>{}, PsumConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().full_node_coverage);
  EXPECT_TRUE(r.value().patterns.empty());
  EXPECT_EQ(r.value().EdgeLoss(), 0.0);
}

TEST(PsumTest, CoversAllNodesOfSingleSubgraph) {
  std::vector<Graph> subs{testing::TriangleWithTail()};
  auto r = Psum(subs, PsumConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().full_node_coverage);
  std::vector<const Graph*> ptr{&subs[0]};
  EXPECT_TRUE(PatternsCoverAllNodes(r.value().patterns, ptr));
}

TEST(PsumTest, CoversMultipleHeterogeneousSubgraphs) {
  std::vector<Graph> subs{testing::StarGraph(3), testing::PathGraph(4, 0),
                          testing::TriangleWithTail()};
  auto r = Psum(subs, PsumConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().full_node_coverage);
  std::vector<const Graph*> ptrs;
  for (const auto& s : subs) ptrs.push_back(&s);
  EXPECT_TRUE(PatternsCoverAllNodes(r.value().patterns, ptrs));
}

TEST(PsumTest, EdgeAccountingConsistent) {
  std::vector<Graph> subs{testing::TriangleWithTail()};
  auto r = Psum(subs, PsumConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().total_edges, subs[0].num_edges());
  EXPECT_LE(r.value().covered_edges, r.value().total_edges);
  EXPECT_GE(r.value().covered_edges, 0);
  EXPECT_GE(r.value().EdgeLoss(), 0.0);
  EXPECT_LE(r.value().EdgeLoss(), 1.0);
}

TEST(PsumTest, LargerPatternBudgetNeverWorsensEdgeLoss) {
  std::vector<Graph> subs{testing::TriangleWithTail(),
                          testing::StarGraph(4)};
  auto small = Psum(subs, PsumConfig(1));
  auto large = Psum(subs, PsumConfig(4));
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(large.ok());
  // With only single-node patterns no edges can be covered.
  EXPECT_EQ(small.value().covered_edges, 0);
  EXPECT_GE(large.value().covered_edges, small.value().covered_edges);
  EXPECT_LE(large.value().EdgeLoss(), small.value().EdgeLoss() + 1e-12);
}

TEST(PsumTest, PatternsAreFewerThanNodes) {
  std::vector<Graph> subs{testing::PathGraph(6, 0)};
  auto r = Psum(subs, PsumConfig());
  ASSERT_TRUE(r.ok());
  // Summarization: a path of one node type needs very few patterns.
  EXPECT_LE(r.value().patterns.size(), 2u);
}

TEST(PsumTest, MatchesRematchReferenceWhenNoCapBinds) {
  std::vector<Graph> subs{testing::TriangleWithTail(), testing::StarGraph(4),
                          testing::PathGraph(5, 1), testing::StarGraph(2)};
  for (int nodes : {1, 3, 4}) {
    SCOPED_TRACE(nodes);
    const Configuration config = PsumConfig(nodes);
    ASSERT_FALSE(SomeOccurrence(subs, config.miner, [](const Occurrence& o) {
      return !o.complete;
    }));
    ExpectMatchesReference(subs, config);
  }
}

TEST(PsumTest, MatchesRematchReferenceWhenMiningCapBinds) {
  // Two matches per graph cut most lists, so Psum matches those again.
  std::vector<Graph> subs{testing::StarGraph(6), testing::TriangleWithTail(),
                          testing::PathGraph(7, 0)};
  Configuration config = PsumConfig(4);
  config.miner.max_matches_per_graph = 2;
  ASSERT_TRUE(SomeOccurrence(subs, config.miner, [](const Occurrence& o) {
    return !o.complete;
  }));
  ExpectMatchesReference(subs, config);
}

TEST(PsumTest, MatchesRematchReferenceWhenDefaultCapBinds) {
  // leaf-hub-leaf has 70 * 69 = 4830 matches in a 70-leaf star: under the
  // mining cap of 8192 but over the default 4096 that ComputeCoverage uses.
  std::vector<Graph> subs{testing::StarGraph(70), testing::PathGraph(3, 0)};
  Configuration config = PsumConfig(3);
  config.miner.max_matches_per_graph = 8192;
  ASSERT_TRUE(SomeOccurrence(subs, config.miner, [](const Occurrence& o) {
    return o.matches > MatchOptions{}.max_matches && !o.complete;
  }));
  ExpectMatchesReference(subs, config);
}

TEST(PsumTest, CoversRareTypeDroppedByPatternCap) {
  // Type 7 occurs once. Ranked by covered nodes, its single-node pattern
  // and the 0-7 edge fall behind the type-0 paths and are cut by
  // max_patterns, yet the view must still cover that node (C1).
  Graph rare = testing::PathGraph(4, 0);
  const NodeId odd = rare.AddNode(7);
  ASSERT_TRUE(rare.AddEdge(3, odd).ok());
  std::vector<Graph> subs{testing::PathGraph(5, 0), testing::PathGraph(5, 0),
                          std::move(rare)};
  Configuration config = PsumConfig(3);
  config.miner.max_patterns = 2;
  for (const MinedPattern& mp : MinePatterns(subs, config.miner)) {
    for (int type : mp.pattern.graph().node_types()) ASSERT_NE(type, 7);
  }
  auto r = Psum(subs, config);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().full_node_coverage);
  std::vector<const Graph*> ptrs;
  for (const Graph& g : subs) ptrs.push_back(&g);
  EXPECT_TRUE(PatternsCoverAllNodes(r.value().patterns, ptrs));
  ExpectMatchesReference(subs, config);
}

TEST(PsumTest, EdgelessSubgraphCoveredBySingletons) {
  Graph g;
  g.AddNode(2);
  g.AddNode(3);
  std::vector<Graph> subs{std::move(g)};
  auto r = Psum(subs, PsumConfig());
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().full_node_coverage);
  EXPECT_EQ(r.value().total_edges, 0);
  EXPECT_EQ(r.value().EdgeLoss(), 0.0);
}

}  // namespace
}  // namespace gvex
