// RemainderPredictorParityTest: GcnModel's incremental remainder predictor
// must answer every query with exactly the bits of the reference path,
// PredictProba on the rebuilt G \ R, whatever base it was pinned to.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "gnn/gcn_model.h"
#include "gnn/gin_model.h"
#include "graph/subgraph.h"
#include "test_util.h"
#include "util/rng.h"

namespace gvex {
namespace {

GcnModel MakeModel(int input_dim, int hidden, int layers, ReadoutKind readout,
                   uint64_t seed, int classes = 3) {
  GcnConfig cfg;
  cfg.input_dim = input_dim;
  cfg.hidden_dim = hidden;
  cfg.num_layers = layers;
  cfg.num_classes = classes;
  cfg.readout = readout;
  Rng rng(seed);
  return GcnModel(cfg, &rng);
}

// Random graph: n nodes of `types` types, about `avg_deg` edges per node,
// one-hot features unless `featureless`; directed graphs get reciprocal
// pairs for a third of their edges.
Graph RandomGraph(int n, double avg_deg, bool directed, bool featureless,
                  int types, uint64_t seed) {
  Rng rng(seed);
  Graph g(directed);
  for (int i = 0; i < n; ++i) {
    g.AddNode(static_cast<int>(rng.NextUint(static_cast<uint64_t>(types))));
  }
  const int m = static_cast<int>(avg_deg * n / 2.0);
  for (int k = 0; k < m; ++k) {
    const auto u = static_cast<NodeId>(rng.NextUint(static_cast<uint64_t>(n)));
    const auto v = static_cast<NodeId>(rng.NextUint(static_cast<uint64_t>(n)));
    if (u == v) continue;
    (void)g.AddEdge(u, v, 0);
    if (directed && rng.NextUint(3) == 0) (void)g.AddEdge(v, u, 0);
  }
  if (!featureless) {
    // Dense random features exercise MatMul's zero skip less than one-hot
    // ones do; mix both.
    Matrix x(n, types);
    for (int i = 0; i < n; ++i) {
      x.at(i, g.node_type(i)) = 1.0f;
      if (rng.NextUint(2) == 0) {
        x.at(i, static_cast<int>(rng.NextUint(static_cast<uint64_t>(types)))) =
            rng.NextFloat(-1.0f, 1.0f);
      }
    }
    EXPECT_TRUE(g.SetFeatures(std::move(x)).ok());
  }
  return g;
}

std::vector<float> Reference(const GnnClassifier& model, const Graph& g,
                             const std::vector<NodeId>& removed) {
  auto rest = RemoveNodes(g, removed);
  EXPECT_TRUE(rest.ok());
  return model.PredictProba(rest.value().graph);
}

bool BitEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Queries `removed` and counts a mismatch against the reference.
void Check(const GnnClassifier& model, const Graph& g, RemainderPredictor* p,
           const std::vector<NodeId>& removed, int* mismatches) {
  auto got = p->ProbaWithout(removed);
  ASSERT_TRUE(got.ok());
  if (!BitEqual(got.value(), Reference(model, g, removed))) ++*mismatches;
}

std::vector<NodeId> RandomSet(int n, int size, Rng* rng) {
  std::vector<NodeId> all(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<size_t>(i)] = i;
  for (int i = 0; i < size && i < n; ++i) {
    const auto j = static_cast<size_t>(i) +
                   rng->NextUint(static_cast<uint64_t>(n - i));
    std::swap(all[static_cast<size_t>(i)], all[j]);
  }
  all.resize(static_cast<size_t>(std::min(size, n)));
  return all;
}

// The repair-shaped workload: pin a base, probe every one-node eviction and
// some one-to-three-node additions, then move the base and repeat.
int RunSequence(const GnnClassifier& model, const Graph& g, uint64_t seed) {
  Rng rng(seed);
  const int n = g.num_nodes();
  auto pred = model.MakeRemainderPredictor(g);
  int mismatches = 0;
  std::vector<NodeId> base =
      RandomSet(n, 1 + static_cast<int>(rng.NextUint(6)), &rng);
  for (int round = 0; round < 6; ++round) {
    pred->Pin(base);
    Check(model, g, pred.get(), base, &mismatches);
    for (size_t i = 0; i < base.size(); ++i) {
      std::vector<NodeId> without = base;
      without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
      Check(model, g, pred.get(), without, &mismatches);
    }
    for (int t = 0; t < 8; ++t) {
      std::vector<NodeId> trial = base;
      if (!trial.empty() && rng.NextUint(2) == 0) trial.erase(trial.begin());
      const int add = 1 + static_cast<int>(rng.NextUint(3));
      for (NodeId v : RandomSet(n, add, &rng)) trial.push_back(v);
      Check(model, g, pred.get(), trial, &mismatches);
    }
    // Move the base: swap one node, add one.
    if (!base.empty()) base.erase(base.begin());
    for (NodeId v : RandomSet(n, 2, &rng)) base.push_back(v);
  }
  return mismatches;
}

struct GraphCase {
  const char* name;
  bool directed;
  bool featureless;
  double avg_deg;
};

const GraphCase kCases[] = {
    {"undirected", false, false, 3.0},
    {"directed_reciprocal", true, false, 2.5},
    {"featureless_directed", true, true, 2.0},
    {"featureless_undirected", false, true, 3.0},
    {"sparse_with_isolated", false, false, 0.8},
};

TEST(RemainderPredictorParityTest, RandomGraphsEveryReadout) {
  int mismatches = 0;
  int queries_graphs = 0;
  for (const GraphCase& c : kCases) {
    for (ReadoutKind readout :
         {ReadoutKind::kMax, ReadoutKind::kMean, ReadoutKind::kSum}) {
      for (int layers = 1; layers <= 3; ++layers) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
          Graph g = RandomGraph(30 + static_cast<int>(seed) * 10, c.avg_deg,
                                c.directed, c.featureless, 4, seed * 17 + 1);
          GcnModel model = MakeModel(4, 8, layers, readout, seed + 100);
          const int before = mismatches;
          mismatches += RunSequence(model, g, seed);
          EXPECT_EQ(mismatches, before)
              << c.name << " layers " << layers << " seed " << seed;
          ++queries_graphs;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(queries_graphs, 5 * 3 * 3 * 3);
}

TEST(RemainderPredictorParityTest, EmptyAndFullRemovalSets) {
  for (const GraphCase& c : kCases) {
    Graph g = RandomGraph(25, c.avg_deg, c.directed, c.featureless, 3, 9);
    GcnModel model = MakeModel(3, 6, 3, ReadoutKind::kMax, 4);
    std::vector<NodeId> all;
    for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back(v);
    int mismatches = 0;
    // R = ∅ as the first query, R = V (the empty-graph branch) diffed
    // against it, and back; then pinned at V.
    auto pred = model.MakeRemainderPredictor(g);
    Check(model, g, pred.get(), {}, &mismatches);
    Check(model, g, pred.get(), all, &mismatches);
    Check(model, g, pred.get(), {}, &mismatches);
    pred->Pin(all);
    Check(model, g, pred.get(), all, &mismatches);
    Check(model, g, pred.get(), {0}, &mismatches);
    Check(model, g, pred.get(), {}, &mismatches);
    // A fresh predictor whose first query is R = V.
    auto fresh = model.MakeRemainderPredictor(g);
    Check(model, g, fresh.get(), all, &mismatches);
    Check(model, g, fresh.get(), {1, 2}, &mismatches);
    EXPECT_EQ(mismatches, 0) << c.name;
  }
  // A graph with no nodes at all.
  Graph empty;
  GcnModel model = MakeModel(3, 6, 3, ReadoutKind::kMean, 4);
  auto pred = model.MakeRemainderPredictor(empty);
  auto p = pred->ProbaWithout({});
  ASSERT_TRUE(p.ok());
  EXPECT_TRUE(BitEqual(p.value(), model.PredictProba(empty)));
}

TEST(RemainderPredictorParityTest, IsolatedNodesAndDuplicateIds) {
  Graph g = testing::TriangleWithTail();
  g.AddNode(0);  // two isolated nodes
  g.AddNode(1);
  ASSERT_TRUE(g.SetOneHotFeaturesFromTypes(2).ok());
  GcnModel model = MakeModel(2, 5, 3, ReadoutKind::kSum, 8);
  auto pred = model.MakeRemainderPredictor(g);
  int mismatches = 0;
  for (const std::vector<NodeId>& r : std::vector<std::vector<NodeId>>{
           {5}, {5, 6}, {2, 2, 5}, {0, 1, 2, 3, 4}, {3}, {6, 6, 6}, {}}) {
    Check(model, g, pred.get(), r, &mismatches);
    pred->Pin(r);
    Check(model, g, pred.get(), r, &mismatches);
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(RemainderPredictorParityTest, BadIdsAreRejectedAndLeaveNoState) {
  Graph g = testing::TriangleWithTail();
  GcnModel model = MakeModel(2, 5, 3, ReadoutKind::kMax, 8);
  auto pred = model.MakeRemainderPredictor(g);
  EXPECT_FALSE(pred->ProbaWithout({1, 9}).ok());
  EXPECT_FALSE(pred->ProbaWithout({-1}).ok());
  pred->Pin({0, 7});  // ignored
  int mismatches = 0;
  Check(model, g, pred.get(), {1}, &mismatches);
  EXPECT_FALSE(pred->ProbaWithout({1, 5}).ok());
  Check(model, g, pred.get(), {}, &mismatches);
  Check(model, g, pred.get(), {1, 2}, &mismatches);
  EXPECT_EQ(mismatches, 0);
}

// A long path: a toggle's reach (layer l recomputes l+1 hops) stays well
// inside the graph, so a too-short reach or a missed neighbour degree
// shows up as a stale row.
TEST(RemainderPredictorParityTest, PathGraphTogglesFarFromEachOther) {
  Graph g = testing::PathGraph(40, 0, 3);
  Matrix x(40, 3);
  for (int i = 0; i < 40; ++i) {
    x.at(i, i % 3) = 1.0f;
    x.at(i, (i + 1) % 3) = 0.25f * static_cast<float>(i % 5);
  }
  ASSERT_TRUE(g.SetFeatures(std::move(x)).ok());
  for (ReadoutKind readout :
       {ReadoutKind::kMax, ReadoutKind::kMean, ReadoutKind::kSum}) {
    GcnModel model = MakeModel(3, 6, 3, readout, 21);
    auto pred = model.MakeRemainderPredictor(g);
    int mismatches = 0;
    pred->Pin({20});
    for (NodeId v = 0; v < 40; ++v) {
      Check(model, g, pred.get(), {20, v}, &mismatches);
      Check(model, g, pred.get(), {v}, &mismatches);
    }
    pred->Pin({5, 30});
    for (NodeId v = 0; v < 40; v += 3) {
      Check(model, g, pred.get(), {5, 30, v}, &mismatches);
      Check(model, g, pred.get(), {5}, &mismatches);
    }
    EXPECT_EQ(mismatches, 0);
  }
}

TEST(RemainderPredictorParityTest, TrainedModelOnMutagenicity) {
  const auto& fx = testing::GetTrainedFixture();
  int mismatches = 0;
  for (int gi = 0; gi < fx.db.size(); gi += 4) {
    mismatches += RunSequence(fx.model, fx.db.graph(gi),
                              static_cast<uint64_t>(gi) + 3);
  }
  EXPECT_EQ(mismatches, 0);
}

// Models without an override answer through the rebuild path.
TEST(RemainderPredictorParityTest, DefaultPathServesOtherModels) {
  GinConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 8;
  Rng rng(2);
  GinModel gin(cfg, &rng);
  Graph g = RandomGraph(30, 3.0, false, false, 4, 5);
  EXPECT_EQ(RunSequence(gin, g, 6), 0);
}

}  // namespace
}  // namespace gvex
