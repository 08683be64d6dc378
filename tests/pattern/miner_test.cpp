#include "pattern/miner.h"

#include <gtest/gtest.h>

#include <set>

#include "pattern/coverage.h"
#include "test_util.h"

namespace gvex {
namespace {

TEST(MinerTest, EmptyInputGivesNoPatterns) {
  EXPECT_TRUE(MinePatterns(std::vector<Graph>{}).empty());
}

TEST(MinerTest, SingleNodePatternsForAllTypes) {
  std::vector<Graph> graphs{testing::TriangleWithTail()};
  MinerOptions opt;
  opt.max_pattern_nodes = 1;
  auto mined = MinePatterns(graphs, opt);
  std::set<int> types;
  for (const auto& mp : mined) {
    ASSERT_EQ(mp.pattern.num_nodes(), 1);
    types.insert(mp.pattern.graph().node_type(0));
  }
  EXPECT_EQ(types, (std::set<int>{0, 1}));
}

TEST(MinerTest, MinSupportPrunes) {
  // Type 5 appears in only one of two graphs.
  Graph a = testing::PathGraph(3, 5);
  Graph b = testing::PathGraph(3, 0);
  MinerOptions opt;
  opt.max_pattern_nodes = 1;
  opt.min_support = 2;
  auto mined = MinePatterns(std::vector<Graph>{a, b}, opt);
  EXPECT_TRUE(mined.empty());  // neither type occurs in both graphs

  opt.min_support = 1;
  mined = MinePatterns(std::vector<Graph>{a, b}, opt);
  EXPECT_EQ(mined.size(), 2u);
}

TEST(MinerTest, FindsEdgePatterns) {
  std::vector<Graph> graphs{testing::StarGraph(3)};
  MinerOptions opt;
  opt.max_pattern_nodes = 2;
  auto mined = MinePatterns(graphs, opt);
  bool found_edge = false;
  for (const auto& mp : mined) {
    if (mp.pattern.num_nodes() == 2 && mp.pattern.num_edges() == 1) {
      found_edge = true;
      // hub(1) - leaf(0)
      std::set<int> types{mp.pattern.graph().node_type(0),
                          mp.pattern.graph().node_type(1)};
      EXPECT_EQ(types, (std::set<int>{0, 1}));
    }
  }
  EXPECT_TRUE(found_edge);
}

TEST(MinerTest, PatternsAreDeduplicated) {
  std::vector<Graph> graphs{testing::PathGraph(5, 0)};
  MinerOptions opt;
  opt.max_pattern_nodes = 3;
  auto mined = MinePatterns(graphs, opt);
  std::set<std::string> codes;
  for (const auto& mp : mined) {
    EXPECT_TRUE(codes.insert(mp.pattern.canonical_code()).second)
        << "duplicate pattern " << mp.pattern.ToString();
  }
}

TEST(MinerTest, CoverageCountsAreSane) {
  std::vector<Graph> graphs{testing::PathGraph(4, 0)};
  MinerOptions opt;
  opt.max_pattern_nodes = 2;
  auto mined = MinePatterns(graphs, opt);
  for (const auto& mp : mined) {
    EXPECT_GE(mp.support, 1);
    EXPECT_LE(mp.covered_nodes, 4);
    EXPECT_LE(mp.covered_edges, 3);
    EXPECT_GT(mp.total_matches, 0);
  }
  // The 0-0 edge pattern covers all nodes and all edges of the path.
  bool found_full = false;
  for (const auto& mp : mined) {
    if (mp.pattern.num_nodes() == 2 && mp.covered_nodes == 4 &&
        mp.covered_edges == 3) {
      found_full = true;
    }
  }
  EXPECT_TRUE(found_full);
}

TEST(MinerTest, MaxPatternsTruncates) {
  std::vector<Graph> graphs{testing::TriangleWithTail()};
  MinerOptions opt;
  opt.max_pattern_nodes = 3;
  opt.max_patterns = 2;
  auto mined = MinePatterns(graphs, opt);
  EXPECT_LE(mined.size(), 2u);
}

TEST(MinerTest, ResultsSortedByCoverage) {
  std::vector<Graph> graphs{testing::TriangleWithTail()};
  MinerOptions opt;
  opt.max_pattern_nodes = 3;
  auto mined = MinePatterns(graphs, opt);
  for (size_t i = 1; i < mined.size(); ++i) {
    EXPECT_GE(mined[i - 1].covered_nodes, mined[i].covered_nodes);
  }
}

TEST(MinerTest, MinedPatternsAreConnected) {
  std::vector<Graph> graphs{testing::TriangleWithTail()};
  MinerOptions opt;
  opt.max_pattern_nodes = 4;
  auto mined = MinePatterns(graphs, opt);
  // Pattern::Create enforces connectivity; just assert non-empty + size cap.
  for (const auto& mp : mined) {
    EXPECT_GE(mp.pattern.num_nodes(), 1);
    EXPECT_LE(mp.pattern.num_nodes(), 4);
  }
}

// Oracle for the occurrence lists, run under both engines: every entry is
// re-derived from a fresh FindMatches / ComputeCoverage of its pattern.
class MinerOccurrenceTest : public ::testing::TestWithParam<MinerEngine> {
 protected:
  // Returns the number of incomplete entries seen.
  int ExpectOccurrencesMatchOracle(const std::vector<Graph>& graphs,
                                   const MinerOptions& base) {
    MinerOptions opt = base;
    opt.engine = GetParam();
    MatchOptions mo;
    mo.semantics = opt.semantics;
    mo.max_matches = opt.max_matches_per_graph;
    int incomplete = 0;
    const auto mined = MinePatterns(graphs, opt);
    EXPECT_FALSE(mined.empty());
    for (const MinedPattern& mp : mined) {
      SCOPED_TRACE(mp.pattern.canonical_code());
      EXPECT_EQ(mp.support, static_cast<int>(mp.occurrences.size()));
      int total_matches = 0, nodes = 0, edges = 0;
      size_t next = 0;  // next occurrence entry to compare
      for (size_t gi = 0; gi < graphs.size(); ++gi) {
        const auto matches = FindMatches(mp.pattern.graph(), graphs[gi], mo);
        if (matches.empty()) continue;
        if (next == mp.occurrences.size()) {
          ADD_FAILURE() << "no occurrence entry for graph " << gi;
          break;
        }
        const Occurrence& occ = mp.occurrences[next++];
        EXPECT_EQ(occ.graph, static_cast<int>(gi));
        const int n = static_cast<int>(matches.size());
        EXPECT_EQ(occ.matches, n);
        EXPECT_EQ(occ.complete, n < mo.max_matches &&
                                    n < MatchOptions{}.max_matches);
        if (occ.complete) {
          const CoverageMask want =
              ComputeCoverage(mp.pattern, graphs[gi], mo);
          EXPECT_EQ(occ.mask.nodes, want.nodes);
          EXPECT_EQ(occ.mask.edges, want.edges);
        } else {
          ++incomplete;
        }
        total_matches += occ.matches;
        nodes += occ.mask.CountNodes();
        edges += occ.mask.CountEdges();
      }
      EXPECT_EQ(next, mp.occurrences.size());
      EXPECT_EQ(mp.total_matches, total_matches);
      EXPECT_EQ(mp.covered_nodes, nodes);
      EXPECT_EQ(mp.covered_edges, edges);
    }
    return incomplete;
  }
};

TEST_P(MinerOccurrenceTest, ListsMatchFreshMatches) {
  std::vector<Graph> graphs{testing::TriangleWithTail(), testing::StarGraph(4),
                            testing::PathGraph(5, 1), testing::PathGraph(3, 0)};
  MinerOptions opt;
  opt.max_pattern_nodes = 4;
  for (MatchSemantics sem :
       {MatchSemantics::kInduced, MatchSemantics::kNonInduced}) {
    opt.semantics = sem;
    EXPECT_EQ(ExpectOccurrencesMatchOracle(graphs, opt), 0);
  }
}

TEST_P(MinerOccurrenceTest, IncompleteExactlyWhenCapReached) {
  // A 6-leaf star has 6 leaf matches and 30 leaf-hub-leaf matches; a cap of
  // 2 cuts those lists, while the hub and the type-1 path stay complete.
  std::vector<Graph> graphs{testing::StarGraph(6), testing::PathGraph(2, 1)};
  MinerOptions opt;
  opt.max_pattern_nodes = 3;
  opt.max_matches_per_graph = 2;
  EXPECT_GT(ExpectOccurrencesMatchOracle(graphs, opt), 0);
  bool some_complete = false;
  opt.engine = GetParam();
  for (const MinedPattern& mp : MinePatterns(graphs, opt)) {
    for (const Occurrence& occ : mp.occurrences) {
      some_complete = some_complete || occ.complete;
    }
  }
  EXPECT_TRUE(some_complete);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, MinerOccurrenceTest,
    ::testing::Values(MinerEngine::kLevelWise, MinerEngine::kGspan),
    [](const ::testing::TestParamInfo<MinerEngine>& info) {
      return info.param == MinerEngine::kGspan ? "Gspan" : "LevelWise";
    });

}  // namespace
}  // namespace gvex
