#include "pattern/miner.h"

#include <gtest/gtest.h>

#include <set>

#include "pattern/coverage.h"
#include "pattern/miner_reference.h"
#include "test_util.h"
#include "util/rng.h"

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

// Whole-output oracle: MinePatterns must return exactly what the full-scan
// reference miner (tests/pattern/miner_reference.h) returns, field by
// field, so a child that growth silently misses fails here even though
// every pattern it does return has correct occurrences.
class MinerOracleTest : public ::testing::TestWithParam<MinerEngine> {};

Graph RandomTypedGraph(Rng* rng, bool directed, int num_types,
                       int num_edge_types) {
  Graph g(directed);
  const int n = static_cast<int>(rng->NextInt(4, 9));
  for (int i = 0; i < n; ++i) {
    g.AddNode(static_cast<int>(
        rng->NextUint(static_cast<uint64_t>(num_types))));
  }
  for (int u = 0; u < n; ++u) {
    for (int v = directed ? 0 : u + 1; v < n; ++v) {
      if (u == v || !rng->NextBool(0.3)) continue;
      (void)g.AddEdge(u, v,
                      static_cast<int>(rng->NextUint(
                          static_cast<uint64_t>(num_edge_types))));
    }
  }
  return g;
}

void ExpectSameMined(const std::vector<MinedPattern>& got,
                     const std::vector<MinedPattern>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const MinedPattern& a = got[i];
    const MinedPattern& b = want[i];
    SCOPED_TRACE(b.pattern.canonical_code());
    ASSERT_EQ(a.pattern.canonical_code(), b.pattern.canonical_code());
    EXPECT_EQ(a.support, b.support);
    EXPECT_EQ(a.total_matches, b.total_matches);
    EXPECT_EQ(a.covered_nodes, b.covered_nodes);
    EXPECT_EQ(a.covered_edges, b.covered_edges);
    ASSERT_EQ(a.occurrences.size(), b.occurrences.size());
    for (size_t j = 0; j < a.occurrences.size(); ++j) {
      const Occurrence& x = a.occurrences[j];
      const Occurrence& y = b.occurrences[j];
      EXPECT_EQ(x.graph, y.graph);
      EXPECT_EQ(x.matches, y.matches);
      EXPECT_EQ(x.complete, y.complete);
      EXPECT_EQ(x.mask.nodes, y.mask.nodes);
      EXPECT_EQ(x.mask.edges, y.mask.edges);
    }
  }
}

TEST_P(MinerOracleTest, MinePatternsEqualsFullScanReference) {
  Rng rng(20240611);
  // gSpan's backward extensions make 5-node runs costly under sanitizers.
  const int deepest = GetParam() == MinerEngine::kGspan ? 4 : 5;
  int incomplete = 0;  // capped occurrences seen: the fallbacks ran
  int largest = 0;     // largest pattern seen: growth went deep
  for (bool directed : {false, true}) {
    for (int trial = 0; trial < 2; ++trial) {
      const int num_types = 2 + trial;
      const int num_edge_types = 3 - trial;
      std::vector<Graph> owned;
      const int num_graphs = static_cast<int>(rng.NextInt(3, 5));
      for (int i = 0; i < num_graphs; ++i) {
        owned.push_back(
            RandomTypedGraph(&rng, directed, num_types, num_edge_types));
      }
      // A type-0 hub with four type-1 leaves: the hub-leaf edge grows from
      // the hub's single match into four, so under a cap of 2 the child's
      // list reaches the cap while its parent's did not.
      Graph star(directed);
      star.AddNode(0);
      for (int leaf = 1; leaf <= 4; ++leaf) {
        star.AddNode(1);
        (void)star.AddEdge(0, leaf);
      }
      owned.push_back(std::move(star));
      if (directed) {
        // A child can occur in a directed graph its parent misses. `pair`
        // joins a(0) and b(1) both ways with type 2; `twisted` holds a->b
        // of type 1 and b->a of type 2. The matcher reads a reciprocal
        // pair's edge type from the endpoint placed first (BlindRank): in
        // the type-2 edge pattern x(0)-y(1) that is x, which sees type 1
        // in `twisted` and misses, but once y gains a type-1 neighbour it
        // is y, which sees type 2.
        Graph pair(/*directed=*/true);
        pair.AddNode(0);
        pair.AddNode(1);
        (void)pair.AddEdge(0, 1, 2);
        (void)pair.AddEdge(1, 0, 2);
        owned.push_back(std::move(pair));
        Graph twisted(/*directed=*/true);
        twisted.AddNode(0);
        twisted.AddNode(1);
        twisted.AddNode(1);
        (void)twisted.AddEdge(0, 1, 1);
        (void)twisted.AddEdge(1, 0, 2);
        (void)twisted.AddEdge(1, 2, 1);
        (void)twisted.AddEdge(2, 1, 1);
        owned.push_back(std::move(twisted));
      }
      std::vector<const Graph*> graphs;
      for (const Graph& g : owned) graphs.push_back(&g);
      for (MatchSemantics sem :
           {MatchSemantics::kInduced, MatchSemantics::kNonInduced}) {
        for (int cap : {2, 256}) {
          for (int min_support : {1, 2}) {
            for (int max_nodes : {3, deepest}) {
              MinerOptions opt;
              opt.engine = GetParam();
              opt.semantics = sem;
              opt.max_matches_per_graph = cap;
              opt.min_support = min_support;
              opt.max_pattern_nodes = max_nodes;
              // Every other configuration cuts the ranked list short.
              opt.max_patterns = (cap + min_support + max_nodes) % 2 ? 64 : 7;
              SCOPED_TRACE(::testing::Message()
                           << "directed=" << directed << " trial=" << trial
                           << " induced="
                           << (sem == MatchSemantics::kInduced)
                           << " cap=" << cap << " min_support="
                           << min_support << " max_nodes=" << max_nodes);
              const auto want = testing::ReferenceMinePatterns(graphs, opt);
              const auto got = MinePatterns(graphs, opt);
              ExpectSameMined(got, want);
              for (const MinedPattern& mp : want) {
                largest = std::max(largest, mp.pattern.num_nodes());
                for (const Occurrence& occ : mp.occurrences) {
                  incomplete += occ.complete ? 0 : 1;
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(incomplete, 0);
  EXPECT_EQ(largest, deepest);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, MinerOracleTest,
    ::testing::Values(MinerEngine::kLevelWise, MinerEngine::kGspan),
    [](const ::testing::TestParamInfo<MinerEngine>& info) {
      return info.param == MinerEngine::kGspan ? "Gspan" : "LevelWise";
    });

}  // namespace
}  // namespace gvex
