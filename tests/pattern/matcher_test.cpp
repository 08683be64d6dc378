// Randomized oracle-parity suite for the candidate-filtered matcher
// (pattern/matcher.h) against the blind backtracking oracle
// (tests/pattern/blind_matcher.h): same match SET, containment answer and
// coverage on every probe, across induced / non-induced semantics,
// label-less nodes, directed graphs, and disconnected patterns; plus the
// budget path returning a sound "don't know" and the McSplit
// maximum-common-subgraph search.

#include "pattern/matcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pattern/blind_matcher.h"
#include "pattern/coverage.h"
#include "util/rng.h"

namespace gvex {
namespace {

struct GraphShape {
  int num_nodes = 8;
  int num_types = 3;      // 1 = label-less (every node the same type)
  int num_edge_types = 2;
  double edge_prob = 0.3;
  bool directed = false;
};

Graph RandomGraph(Rng* rng, const GraphShape& shape) {
  Graph g(shape.directed);
  for (int i = 0; i < shape.num_nodes; ++i) {
    g.AddNode(static_cast<int>(
        rng->NextUint(static_cast<uint64_t>(shape.num_types))));
  }
  for (int u = 0; u < shape.num_nodes; ++u) {
    for (int v = shape.directed ? 0 : u + 1; v < shape.num_nodes; ++v) {
      if (u == v) continue;
      if (rng->NextBool(shape.edge_prob)) {
        (void)g.AddEdge(u, v,
                        static_cast<int>(rng->NextUint(
                            static_cast<uint64_t>(shape.num_edge_types))));
      }
    }
  }
  return g;
}

// A random (possibly disconnected) node-induced subgraph of `g` — a
// pattern that definitely matches under induced semantics.
Graph RandomInducedSubgraph(Rng* rng, const Graph& g, int k) {
  std::vector<int> picked =
      rng->SampleWithoutReplacement(g.num_nodes(), k);
  std::sort(picked.begin(), picked.end());
  Graph sub(g.directed());
  for (int v : picked) sub.AddNode(g.node_type(v));
  for (size_t i = 0; i < picked.size(); ++i) {
    for (size_t j = 0; j < picked.size(); ++j) {
      if (g.directed() ? i == j : j <= i) continue;
      const int t = g.EdgeType(picked[i], picked[j]);
      if (t >= 0) {
        (void)sub.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(j),
                          t);
      }
    }
  }
  return sub;
}

// `g` with the other directedness: each stored edge once, in its stored
// orientation (a reciprocal pair collapses to its first edge). The miner
// matches undirected patterns into directed graphs, so the sweep probes
// mixed directedness too.
Graph Redirected(const Graph& g) {
  Graph out(!g.directed());
  for (NodeId v = 0; v < g.num_nodes(); ++v) out.AddNode(g.node_type(v));
  for (const Edge& e : g.edges()) (void)out.AddEdge(e.u, e.v, e.edge_type);
  return out;
}

// Sorted, not deduped: both matchers emit each mapping once, also on a
// directed pair joined in both orientations, so a duplicate shows up here
// as a mismatch.
std::vector<Match> Sorted(std::vector<Match> matches) {
  std::sort(matches.begin(), matches.end());
  return matches;
}

// One probe: both matchers, both entry points, must agree. The blind
// matcher's enumeration order differs from the filtered one's, so match
// LISTS are compared as sorted sets. ComputeCoverage, which runs the
// filtered matcher, must equal the union of the blind matches.
void ExpectParity(const Graph& pattern, const Graph& target,
                  const MatchOptions& options) {
  const auto blind_matches =
      testing::BlindFindMatches(pattern, target, options);
  const auto blind = Sorted(blind_matches);
  const auto filtered = Sorted(FindMatches(pattern, target, options));
  EXPECT_EQ(blind, filtered);
  EXPECT_EQ(testing::BlindContainsPattern(target, pattern, options),
            ContainsPattern(target, pattern, options));
  auto p = Pattern::Create(pattern);
  if (!p.ok()) return;  // disconnected: ComputeCoverage takes patterns only
  std::vector<NodeId> flat;
  for (const Match& m : blind_matches) {
    flat.insert(flat.end(), m.begin(), m.end());
  }
  const CoverageMask want = MatchCoverage(pattern, target, flat);
  const CoverageMask got = ComputeCoverage(p.value(), target, options);
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.edges, want.edges);
}

class MatcherParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherParityTest, RandomProbesMatchBlindMatcher) {
  Rng rng(GetParam());
  std::vector<GraphShape> shapes;
  {
    GraphShape typed;
    shapes.push_back(typed);
    GraphShape labelless;
    labelless.num_types = 1;  // every node identical: worst case for the
    labelless.num_edge_types = 1;  // type filter, stresses refinement
    shapes.push_back(labelless);
    GraphShape directed;
    directed.directed = true;
    directed.edge_prob = 0.2;
    shapes.push_back(directed);
    GraphShape dense;
    dense.edge_prob = 0.6;
    dense.num_nodes = 7;
    shapes.push_back(dense);
  }
  for (const GraphShape& shape : shapes) {
    for (int rep = 0; rep < 6; ++rep) {
      const Graph target = RandomGraph(&rng, shape);
      if (target.num_nodes() == 0) continue;
      // Positive-leaning probe: an induced subgraph of the target (may be
      // disconnected — the matcher must handle multi-component patterns).
      const int k = static_cast<int>(rng.NextInt(
          1, std::min(4, target.num_nodes())));
      const Graph planted = RandomInducedSubgraph(&rng, target, k);
      // Negative-leaning probe: an unrelated random graph.
      GraphShape probe_shape = shape;
      probe_shape.num_nodes = static_cast<int>(rng.NextInt(2, 5));
      const Graph random_probe = RandomGraph(&rng, probe_shape);

      for (MatchSemantics semantics :
           {MatchSemantics::kInduced, MatchSemantics::kNonInduced}) {
        MatchOptions options;
        options.semantics = semantics;
        for (const Graph* probe : {&planted, &random_probe}) {
          ExpectParity(*probe, target, options);
          ExpectParity(Redirected(*probe), target, options);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherParityTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(FilteredMatcherTest, EmptyAndOversizedPatternsMirrorLegacy) {
  Graph empty;
  Graph one;
  one.AddNode(0);
  Graph two;
  two.AddNode(0);
  two.AddNode(0);
  // Empty pattern: no matches, but containment is trivially true (the
  // oracle's convention).
  EXPECT_TRUE(FindMatches(empty, one).empty());
  EXPECT_TRUE(ContainsPattern(one, empty));
  // Pattern larger than the target can never match.
  EXPECT_TRUE(FindMatches(two, one).empty());
  EXPECT_FALSE(ContainsPattern(one, two));
}

TEST(FilteredMatcherTest, CandidateSetsAreSoundOverapproximations) {
  Rng rng(77);
  GraphShape shape;
  for (int rep = 0; rep < 10; ++rep) {
    const Graph target = RandomGraph(&rng, shape);
    const Graph pattern = RandomInducedSubgraph(&rng, target, 3);
    std::vector<std::vector<NodeId>> candidates;
    BuildCandidateSets(pattern, target, &candidates);
    ASSERT_EQ(candidates.size(), static_cast<size_t>(pattern.num_nodes()));
    for (MatchSemantics semantics :
         {MatchSemantics::kInduced, MatchSemantics::kNonInduced}) {
      MatchOptions options;
      options.semantics = semantics;
      for (const Match& m :
           testing::BlindFindMatches(pattern, target, options)) {
        for (size_t pv = 0; pv < m.size(); ++pv) {
          EXPECT_TRUE(std::find(candidates[pv].begin(),
                                candidates[pv].end(),
                                m[pv]) != candidates[pv].end())
              << "match node " << m[pv] << " missing from candidates of "
              << pv;
        }
      }
    }
  }
}

TEST(FilteredMatcherTest, TypeMismatchRefutesWithoutBacktracking) {
  Graph target;
  target.AddNode(0);
  target.AddNode(0);
  (void)target.AddEdge(0, 1);
  Graph pattern;
  pattern.AddNode(1);  // type 1 exists nowhere in the target
  std::vector<std::vector<NodeId>> candidates;
  EXPECT_FALSE(BuildCandidateSets(pattern, target, &candidates));
  MatcherStats stats;
  EXPECT_FALSE(ContainsPattern(target, pattern, {}, &stats));
  EXPECT_TRUE(stats.filtered_out);
  EXPECT_EQ(stats.steps, 0u);
}

// Each thread reuses the matcher's buffers across calls, among them dense
// edge tables that exist only for targets of up to 512 nodes: a larger
// target right after a small one must not read the small one's tables.
TEST(FilteredMatcherTest, LargeTargetAfterSmallTargetMatchesOracle) {
  Rng rng(41);
  GraphShape small;
  GraphShape large;
  large.num_nodes = 600;
  large.edge_prob = 0.01;
  for (int rep = 0; rep < 3; ++rep) {
    const Graph little = RandomGraph(&rng, small);
    const Graph big = RandomGraph(&rng, large);
    // A connected probe: some node of the big graph with two neighbours.
    NodeId hub = 0;
    while (big.degree(hub) < 2) ++hub;
    std::vector<NodeId> nodes{hub, big.neighbors(hub)[0].node,
                              big.neighbors(hub)[1].node};
    std::sort(nodes.begin(), nodes.end());
    Graph probe;
    for (NodeId v : nodes) probe.AddNode(big.node_type(v));
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (size_t j = i + 1; j < nodes.size(); ++j) {
        const int t = big.EdgeType(nodes[i], nodes[j]);
        if (t >= 0) {
          (void)probe.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>(j),
                              t);
        }
      }
    }
    for (MatchSemantics semantics :
         {MatchSemantics::kInduced, MatchSemantics::kNonInduced}) {
      MatchOptions options;
      options.semantics = semantics;
      ExpectParity(probe, little, options);
      ExpectParity(probe, big, options);
    }
  }
}

// The budget path: a tiny step budget cannot prove anything about a hard
// instance, and ContainsPattern keeps the oracle's convention (exhaustion
// answers false).
TEST(FilteredMatcherTest, BudgetExhaustionAnswersFalse) {
  // C6 vs K8, all one type: non-induced contains it, induced does not,
  // and either proof needs more than a couple of backtracking steps.
  Graph k8;
  for (int i = 0; i < 8; ++i) k8.AddNode(0);
  for (int u = 0; u < 8; ++u) {
    for (int v = u + 1; v < 8; ++v) (void)k8.AddEdge(u, v);
  }
  Graph c6;
  for (int i = 0; i < 6; ++i) c6.AddNode(0);
  for (int i = 0; i < 6; ++i) (void)c6.AddEdge(i, (i + 1) % 6);

  for (MatchSemantics semantics :
       {MatchSemantics::kInduced, MatchSemantics::kNonInduced}) {
    MatchOptions tiny;
    tiny.semantics = semantics;
    tiny.max_steps = 3;
    EXPECT_FALSE(ContainsPattern(k8, c6, tiny));
  }
  // With no budget the definite answers come back.
  MatchOptions unlimited;
  unlimited.max_steps = 0;
  unlimited.semantics = MatchSemantics::kNonInduced;
  EXPECT_TRUE(ContainsPattern(k8, c6, unlimited));
  unlimited.semantics = MatchSemantics::kInduced;
  EXPECT_FALSE(ContainsPattern(k8, c6, unlimited));
}

// Budgeted verdicts must never be WRONG, whatever the budget: a "yes"
// always agrees with the unlimited blind matcher, and with no budget the
// answer is exact.
TEST(FilteredMatcherTest, BudgetedVerdictsAreNeverWrong) {
  Rng rng(123);
  GraphShape shape;
  shape.num_nodes = 7;
  for (int rep = 0; rep < 20; ++rep) {
    const Graph target = RandomGraph(&rng, shape);
    GraphShape probe_shape = shape;
    probe_shape.num_nodes = 4;
    const Graph pattern = rep % 2 == 0
                              ? RandomInducedSubgraph(&rng, target, 4)
                              : RandomGraph(&rng, probe_shape);
    MatchOptions unlimited;
    unlimited.max_steps = 0;
    const bool truth =
        testing::BlindContainsPattern(target, pattern, unlimited);
    for (int64_t budget : {1, 3, 10, 100, 0}) {
      MatchOptions options;
      options.max_steps = budget;
      const bool found = ContainsPattern(target, pattern, options);
      if (found) {
        EXPECT_TRUE(truth);
      }
      if (budget == 0) {
        EXPECT_EQ(found, truth);
      }
    }
  }
}

// --- MaxCommonSubgraph ---

// Checks that a mapping is a genuine common induced subgraph: injective
// both ways, type-preserving, edge-and-type preserving in BOTH directions
// (non-edges map to non-edges).
void ExpectValidCommonSubgraph(const Graph& a, const Graph& b,
                               const std::vector<std::pair<NodeId, NodeId>>&
                                   mapping) {
  for (size_t i = 0; i < mapping.size(); ++i) {
    EXPECT_EQ(a.node_type(mapping[i].first), b.node_type(mapping[i].second));
    for (size_t j = i + 1; j < mapping.size(); ++j) {
      EXPECT_NE(mapping[i].first, mapping[j].first);
      EXPECT_NE(mapping[i].second, mapping[j].second);
      const int at = a.EdgeType(mapping[i].first, mapping[j].first) >= 0
                         ? a.EdgeType(mapping[i].first, mapping[j].first)
                         : a.EdgeType(mapping[j].first, mapping[i].first);
      const int bt = b.EdgeType(mapping[i].second, mapping[j].second) >= 0
                         ? b.EdgeType(mapping[i].second, mapping[j].second)
                         : b.EdgeType(mapping[j].second, mapping[i].second);
      EXPECT_EQ(at, bt) << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(MaxCommonSubgraphTest, IdenticalGraphsMapCompletely) {
  Rng rng(5);
  GraphShape shape;
  shape.num_nodes = 6;
  const Graph g = RandomGraph(&rng, shape);
  const McsResult r = MaxCommonSubgraph(g, g);
  EXPECT_EQ(r.size, g.num_nodes());
  EXPECT_TRUE(r.exact);
  EXPECT_EQ(r.mapping.size(), static_cast<size_t>(r.size));
  ExpectValidCommonSubgraph(g, g, r.mapping);
}

TEST(MaxCommonSubgraphTest, KnownAnswers) {
  // Triangle vs 3-path (one node type): best common induced subgraph is a
  // single edge — 2 nodes.
  Graph triangle;
  for (int i = 0; i < 3; ++i) triangle.AddNode(0);
  (void)triangle.AddEdge(0, 1);
  (void)triangle.AddEdge(1, 2);
  (void)triangle.AddEdge(0, 2);
  Graph path;
  for (int i = 0; i < 3; ++i) path.AddNode(0);
  (void)path.AddEdge(0, 1);
  (void)path.AddEdge(1, 2);
  McsResult r = MaxCommonSubgraph(triangle, path);
  EXPECT_EQ(r.size, 2);
  EXPECT_TRUE(r.exact);
  ExpectValidCommonSubgraph(triangle, path, r.mapping);

  // Disjoint node types share nothing.
  Graph a;
  a.AddNode(0);
  Graph b;
  b.AddNode(1);
  EXPECT_EQ(MaxCommonSubgraph(a, b).size, 0);

  // Same topology, different edge types: the edge cannot map, and two
  // non-adjacent nodes cannot either (both sides are adjacent) — 1 node.
  Graph e1;
  e1.AddNode(0);
  e1.AddNode(0);
  (void)e1.AddEdge(0, 1, /*edge_type=*/1);
  Graph e2;
  e2.AddNode(0);
  e2.AddNode(0);
  (void)e2.AddEdge(0, 1, /*edge_type=*/2);
  EXPECT_EQ(MaxCommonSubgraph(e1, e2).size, 1);
}

TEST(MaxCommonSubgraphTest, MappingsAreAlwaysValidOnRandomPairs) {
  Rng rng(31);
  GraphShape shape;
  shape.num_nodes = 6;
  for (int rep = 0; rep < 10; ++rep) {
    const Graph a = RandomGraph(&rng, shape);
    const Graph b = RandomGraph(&rng, shape);
    const McsResult r = MaxCommonSubgraph(a, b);
    EXPECT_TRUE(r.exact);
    EXPECT_EQ(r.mapping.size(), static_cast<size_t>(r.size));
    ExpectValidCommonSubgraph(a, b, r.mapping);
    // An induced subgraph of `a` planted in both directions: the MCS is at
    // least that big.
    const Graph sub = RandomInducedSubgraph(&rng, a, 3);
    EXPECT_GE(MaxCommonSubgraph(sub, a).size, 0);
  }
}

TEST(MaxCommonSubgraphTest, BudgetTurnsExactOff) {
  Rng rng(9);
  GraphShape shape;
  shape.num_nodes = 10;
  shape.num_types = 1;  // label-less: the hardest case, huge search tree
  const Graph a = RandomGraph(&rng, shape);
  const Graph b = RandomGraph(&rng, shape);
  McsOptions tiny;
  tiny.max_steps = 2;
  const McsResult r = MaxCommonSubgraph(a, b, tiny);
  EXPECT_FALSE(r.exact);  // the budget bound — answer is a lower bound
  ExpectValidCommonSubgraph(a, b, r.mapping);
  // The unlimited answer dominates the truncated one.
  McsOptions unlimited;
  unlimited.max_steps = 0;
  EXPECT_GE(MaxCommonSubgraph(a, b, unlimited).size, r.size);
}

TEST(MaxCommonSubgraphTest, TargetSizeStopsEarly) {
  Rng rng(11);
  GraphShape shape;
  shape.num_nodes = 8;
  const Graph g = RandomGraph(&rng, shape);
  McsOptions opt;
  opt.target_size = 2;
  const McsResult r = MaxCommonSubgraph(g, g, opt);
  EXPECT_GE(r.size, 2);
  ExpectValidCommonSubgraph(g, g, r.mapping);
}

}  // namespace
}  // namespace gvex
