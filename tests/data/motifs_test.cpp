// Dedicated suite for the shared motif builders (data/motifs.h) — the
// ground-truth explanation structures every synthetic generator plants.
// Each builder's structural contract is pinned: node/edge counts, types,
// degrees, and the returned ids; plus the degree-bin feature installer
// and the deterministic random attachment helper.

#include "data/motifs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/connectivity.h"

namespace gvex {
namespace {

int CountEdges(const Graph& g) { return static_cast<int>(g.edges().size()); }

bool HasEdge(const Graph& g, NodeId u, NodeId v) {
  for (const Neighbor& nb : g.neighbors(u)) {
    if (nb.node == v) return true;
  }
  return false;
}

TEST(MotifsTest, AtomVocabCoversEveryAtomType) {
  const auto& vocab = AtomVocab();
  ASSERT_EQ(static_cast<int>(vocab.size()), kNumAtomTypes);
  // Names are distinct and non-empty (they label case-study output).
  std::set<std::string> distinct(vocab.begin(), vocab.end());
  EXPECT_EQ(distinct.size(), vocab.size());
  for (const std::string& name : vocab) EXPECT_FALSE(name.empty());
  EXPECT_EQ(vocab[kCarbon], "C");
  EXPECT_EQ(vocab[kNitrogen], "N");
  EXPECT_EQ(vocab[kOxygen], "O");
}

TEST(MotifsTest, AddRingBuildsAClosedCycle) {
  Graph g;
  const auto ring = AddRing(&g, 6, kCarbon);
  ASSERT_EQ(ring.size(), 6u);
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_EQ(CountEdges(g), 6);
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(g.node_type(ring[i]), kCarbon);
    EXPECT_EQ(g.degree(ring[i]), 2);
    EXPECT_TRUE(HasEdge(g, ring[i], ring[(i + 1) % ring.size()]));
  }
  EXPECT_TRUE(IsConnected(g));
}

TEST(MotifsTest, AddPathBuildsAnOpenChain) {
  Graph g;
  const auto path = AddPath(&g, 4, kOxygen, /*edge_type=*/1);
  ASSERT_EQ(path.size(), 4u);
  EXPECT_EQ(CountEdges(g), 3);
  EXPECT_EQ(g.degree(path.front()), 1);
  EXPECT_EQ(g.degree(path.back()), 1);
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_TRUE(HasEdge(g, path[i], path[i + 1]));
  }
}

TEST(MotifsTest, FunctionalGroupsAttachTheirAtoms) {
  Graph g;
  const NodeId anchor = g.AddNode(kCarbon);

  const auto nitro = AddNitroGroup(&g, anchor);
  ASSERT_EQ(nitro.size(), 3u);
  EXPECT_EQ(g.node_type(nitro[0]), kNitrogen);
  EXPECT_EQ(g.node_type(nitro[1]), kOxygen);
  EXPECT_EQ(g.node_type(nitro[2]), kOxygen);
  EXPECT_TRUE(HasEdge(g, anchor, nitro[0]));
  EXPECT_TRUE(HasEdge(g, nitro[0], nitro[1]));
  EXPECT_TRUE(HasEdge(g, nitro[0], nitro[2]));

  const auto hydroxyl = AddHydroxylGroup(&g, anchor);
  ASSERT_EQ(hydroxyl.size(), 2u);
  EXPECT_EQ(g.node_type(hydroxyl[0]), kOxygen);
  EXPECT_EQ(g.node_type(hydroxyl[1]), kHydrogen);
  EXPECT_TRUE(HasEdge(g, anchor, hydroxyl[0]));
  EXPECT_TRUE(HasEdge(g, hydroxyl[0], hydroxyl[1]));

  EXPECT_TRUE(IsConnected(g));  // everything hangs off the anchor
}

TEST(MotifsTest, AddStarHubAndLeaves) {
  Graph g;
  const auto star = AddStar(&g, 5, /*hub_type=*/1, /*leaf_type=*/0);
  ASSERT_EQ(star.size(), 6u);
  EXPECT_EQ(g.node_type(star[0]), 1);
  EXPECT_EQ(g.degree(star[0]), 5);
  for (size_t i = 1; i < star.size(); ++i) {
    EXPECT_EQ(g.node_type(star[i]), 0);
    EXPECT_EQ(g.degree(star[i]), 1);
    EXPECT_TRUE(HasEdge(g, star[0], star[i]));
  }
}

TEST(MotifsTest, AddBicliqueIsCompleteBipartite) {
  Graph g;
  const int a = 2, b = 3;
  const auto nodes = AddBiclique(&g, a, b, /*a_type=*/4, /*b_type=*/5);
  ASSERT_EQ(nodes.size(), static_cast<size_t>(a + b));
  EXPECT_EQ(CountEdges(g), a * b);
  for (int i = 0; i < a; ++i) {
    EXPECT_EQ(g.node_type(nodes[static_cast<size_t>(i)]), 4);
    EXPECT_EQ(g.degree(nodes[static_cast<size_t>(i)]), b);
    for (int j = 0; j < b; ++j) {
      EXPECT_TRUE(HasEdge(g, nodes[static_cast<size_t>(i)],
                          nodes[static_cast<size_t>(a + j)]));
    }
  }
  for (int j = 0; j < b; ++j) {
    EXPECT_EQ(g.node_type(nodes[static_cast<size_t>(a + j)]), 5);
    EXPECT_EQ(g.degree(nodes[static_cast<size_t>(a + j)]), a);
  }
}

TEST(MotifsTest, AddHouseIsSquarePlusRoof) {
  Graph g;
  const auto house = AddHouse(&g, kCarbon);
  ASSERT_EQ(house.size(), 5u);
  EXPECT_EQ(CountEdges(g), 6);
  // Degree sequence of the house motif: the two roof-supporting corners
  // have degree 3, the rest degree 2.
  std::vector<int> degrees;
  for (NodeId v : house) degrees.push_back(g.degree(v));
  std::sort(degrees.begin(), degrees.end());
  EXPECT_EQ(degrees, (std::vector<int>{2, 2, 2, 3, 3}));
  EXPECT_TRUE(IsConnected(g));
}

TEST(MotifsTest, AddCycleMotifMatchesRing) {
  Graph g;
  const auto cycle = AddCycleMotif(&g, 5, /*node_type=*/2);
  ASSERT_EQ(cycle.size(), 5u);
  EXPECT_EQ(CountEdges(g), 5);
  for (NodeId v : cycle) EXPECT_EQ(g.degree(v), 2);
}

TEST(MotifsTest, DegreeBinFeaturesAreOneHotByBin) {
  // A star gives one high-degree hub and many degree-1 leaves.
  Graph g;
  const auto star = AddStar(&g, 10, 0, 0);
  SetDegreeBinFeatures(&g);
  ASSERT_TRUE(g.has_features());
  ASSERT_EQ(g.feature_dim(), kDegreeBins);
  // Hub: degree 10 -> bin 5 (9-12); leaves: degree 1 -> bin 0.
  EXPECT_EQ(g.features().at(star[0], 5), 1.0f);
  for (size_t i = 1; i < star.size(); ++i) {
    EXPECT_EQ(g.features().at(star[i], 0), 1.0f);
  }
  // Exactly one hot bin per node.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    float sum = 0.0f;
    for (int d = 0; d < kDegreeBins; ++d) sum += g.features().at(v, d);
    EXPECT_EQ(sum, 1.0f) << "node " << v;
  }
}

TEST(MotifsTest, AttachRandomlyIsDeterministicUnderSeedAndConnects) {
  auto build = [](uint64_t seed) {
    Graph g;
    AddPath(&g, 6, 0);
    Rng rng(seed);
    const NodeId lone = g.AddNode(1);
    AttachRandomly(&g, lone, &rng);
    return g;
  };
  const Graph a = build(33);
  const Graph b = build(33);
  // The lone node gained exactly one edge, to the same peer both times.
  const NodeId lone = 6;
  ASSERT_EQ(a.degree(lone), 1);
  ASSERT_EQ(b.degree(lone), 1);
  EXPECT_EQ(a.neighbors(lone)[0].node, b.neighbors(lone)[0].node);
  EXPECT_TRUE(IsConnected(a));
}

}  // namespace
}  // namespace gvex
