// Differential oracle for CanonicalCode: the production code renderer
// (std::to_chars into buffers reused across permutations) must return the
// same bytes as the verbatim StrFormat-per-token copy in
// canonical_reference.h on random graphs. Edge and node types reach past
// 9, where string order and numeric order disagree ("10" < "2"), and
// negative types render a '-' that sits next to the edge separator.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "pattern/canonical.h"
#include "pattern/canonical_reference.h"
#include "util/rng.h"

namespace gvex {
namespace {

// Orders CanonicalCode tries for `g`: the product of its (type, degree)
// class sizes' factorials, capped at `cap + 1`.
long PermutationCount(const Graph& g, long cap) {
  std::vector<std::pair<int, int>> sig;
  for (int v = 0; v < g.num_nodes(); ++v) {
    sig.push_back({g.node_type(v), g.degree(v)});
  }
  std::sort(sig.begin(), sig.end());
  long count = 1;
  for (size_t i = 0; i < sig.size();) {
    size_t j = i;
    while (j < sig.size() && sig[j] == sig[i]) ++j;
    for (size_t k = 2; k <= j - i; ++k) {
      count *= static_cast<long>(k);
      if (count > cap) return cap + 1;
    }
    i = j;
  }
  return count;
}

Graph RandomGraph(Rng* rng) {
  const bool directed = rng->NextBool();
  Graph g(directed);
  const int n = static_cast<int>(rng->NextInt(1, 12));
  // A small type range makes big classes (many orders to compare); a wide
  // one reaches multi-digit and negative types.
  const int lo = rng->NextBool(0.2) ? -12 : 0;
  const int hi = static_cast<int>(rng->NextInt(0, 14));
  for (int v = 0; v < n; ++v) {
    g.AddNode(static_cast<int>(rng->NextInt(lo, hi)));
  }
  const double density = rng->NextDouble() * 0.6;
  for (int u = 0; u < n; ++u) {
    for (int v = 0; v < n; ++v) {
      if (u == v || (!directed && v < u) || !rng->NextBool(density)) continue;
      // Edge types 0..15 straddle the one- to two-digit boundary.
      const int type = rng->NextBool(0.1)
                           ? static_cast<int>(rng->NextInt(-11, -1))
                           : static_cast<int>(rng->NextInt(0, 15));
      EXPECT_TRUE(g.AddEdge(u, v, type).ok());
    }
  }
  return g;
}

TEST(CanonicalOracleTest, MatchesReferenceOnRandomGraphs) {
  Rng rng(20261020);
  int compared = 0;
  int with_wide_types = 0;
  while (compared < 1500) {
    const Graph g = RandomGraph(&rng);
    if (PermutationCount(g, 2000) > 2000) continue;  // keep the test fast
    ASSERT_EQ(CanonicalCode(g),
              testing::canonical_reference::CanonicalCode(g))
        << g.ToString();
    bool wide = false;
    for (const Edge& e : g.edges()) wide = wide || e.edge_type >= 10;
    if (wide) ++with_wide_types;
    ++compared;
  }
  // The corpus really exercises the string-order case.
  EXPECT_GT(with_wide_types, 300);
}

TEST(CanonicalOracleTest, MatchesReferenceOnEdgeCases) {
  std::vector<Graph> graphs;
  graphs.emplace_back();  // empty
  {
    Graph g;
    g.AddNode(-3);  // one node, negative type
    graphs.push_back(g);
  }
  for (bool directed : {false, true}) {
    // A path whose edge types sort differently as strings and numbers.
    Graph g(directed);
    for (int v = 0; v < 12; ++v) g.AddNode(v % 3);
    for (int v = 0; v + 1 < 12; ++v) {
      EXPECT_TRUE(g.AddEdge(v, v + 1, v % 2 == 0 ? 2 : 10).ok());
    }
    graphs.push_back(g);
    // Both directions between two nodes, typed 1 and 11.
    Graph h(directed);
    h.AddNode(0);
    h.AddNode(0);
    EXPECT_TRUE(h.AddEdge(0, 1, 1).ok());
    if (directed) {
      EXPECT_TRUE(h.AddEdge(1, 0, 11).ok());
    }
    graphs.push_back(h);
  }
  for (const Graph& g : graphs) {
    EXPECT_EQ(CanonicalCode(g),
              testing::canonical_reference::CanonicalCode(g))
        << g.ToString();
  }
}

}  // namespace
}  // namespace gvex
