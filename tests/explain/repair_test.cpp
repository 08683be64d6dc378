#include "explain/repair.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "explain/verify.h"
#include "graph/subgraph.h"
#include "test_util.h"

namespace gvex {
namespace {

// A stub black box whose P(label 1 | G) depends only on how many nodes G
// keeps: fewer kept nodes, lower p, never below 1/2 (so never flipped).
// Every trial that removes as many nodes ties exactly.
class KeptCountModel : public GnnClassifier {
 public:
  int num_classes() const override { return 2; }
  int num_layers() const override { return 1; }
  std::vector<float> PredictProba(const Graph& g) const override {
    const float p1 = 0.5f + 0.04f * static_cast<float>(g.num_nodes());
    return {1.0f - p1, p1};
  }
  Matrix NodeEmbeddings(const Graph& g) const override {
    return Matrix(g.num_nodes(), 1);
  }
};

Graph Undirected(int n, const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Graph g;
  for (int i = 0; i < n; ++i) g.AddNode(0);
  for (const auto& [u, v] : edges) EXPECT_TRUE(g.AddEdge(u, v).ok());
  return g;
}

TEST(RepairTest, TiedTrialsGoToTheLowestNode) {
  // Path 0-1-2-3; hub 4 (on 3) with pendants 5, 6; hub 7 (on 2) with
  // pendants 8, 9. From V_S = {1} the groups {4,5,6} and {7,8,9} remove
  // the most nodes and tie; the lowest v, 4, wins.
  const Graph g = Undirected(10, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5},
                                  {4, 6}, {2, 7}, {7, 8}, {7, 9}});
  KeptCountModel model;
  std::vector<NodeId> vs{1};
  EXPECT_FALSE(CounterfactualRepair(model, g, 1, {0, 10}, 1, &vs));
  EXPECT_EQ(vs, (std::vector<NodeId>{1, 4, 5, 6}));
}

TEST(RepairTest, TiesAcrossEvictionCountsGoToTheLowestNode) {
  // Hub 0 with pendants 1, 2, then the path 0-3-4-5-6-7. With u_l 4 and
  // V_S = (5, 6, 7), every trial keeps 4 removed nodes: group {0,1,2}
  // evicts 2 residents and the single nodes 1-4 evict none. All tie, so
  // v = 0 wins, though its eviction count is probed last. The residents
  // tie too, so eviction follows V_S order: 5 and 6 go.
  const Graph g = Undirected(
      8, {{0, 1}, {0, 2}, {0, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  KeptCountModel model;
  std::vector<NodeId> vs{5, 6, 7};
  EXPECT_FALSE(CounterfactualRepair(model, g, 1, {0, 4}, 1, &vs));
  EXPECT_EQ(vs, (std::vector<NodeId>{0, 1, 2, 7}));
}

TEST(RepairTest, TiesWithTheCurrentSelectionAreNoMove) {
  // A full V_S: every trial removes u_l nodes, as V_S does, so none has a
  // lower p and the selection stays.
  const Graph g = Undirected(
      8, {{0, 1}, {0, 2}, {0, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  KeptCountModel model;
  std::vector<NodeId> vs{7, 5, 6, 4};
  EXPECT_FALSE(CounterfactualRepair(model, g, 1, {0, 4}, 3, &vs));
  EXPECT_EQ(vs, (std::vector<NodeId>{4, 5, 6, 7}));
}

TEST(RepairTest, NoOpWhenAlreadyCounterfactual) {
  const auto& fx = testing::GetTrainedFixture();
  const int gi = fx.db.LabelGroup(1)[0];
  const Graph& g = fx.db.graph(gi);
  // The whole graph minus one node is rarely counterfactual; instead find a
  // set that flips by brute force: all non-carbon-ring nodes.
  std::vector<NodeId> all;
  for (NodeId v = 0; v < g.num_nodes(); ++v) all.push_back(v);
  // Removing everything is trivially counterfactual only if the empty
  // remainder predicts a different label; use a large set and check.
  CoverageBound bound{0, g.num_nodes()};
  std::vector<NodeId> vs = all;
  vs.pop_back();
  auto ev = EVerify(fx.model, g, vs, 1);
  ASSERT_TRUE(ev.ok());
  if (ev.value().counterfactual) {
    std::vector<NodeId> copy = vs;
    EXPECT_TRUE(CounterfactualRepair(fx.model, g, 1, bound, 4, &copy));
    EXPECT_EQ(copy.size(), vs.size());  // unchanged
  }
}

TEST(RepairTest, RepairsEmptyishSelectionWithinBudget) {
  const auto& fx = testing::GetTrainedFixture();
  const int gi = fx.db.LabelGroup(1)[0];
  const Graph& g = fx.db.graph(gi);
  CoverageBound bound{0, 8};
  std::vector<NodeId> vs{0};  // a single (likely irrelevant) node
  const bool ok = CounterfactualRepair(fx.model, g, 1, bound, 8, &vs);
  EXPECT_LE(static_cast<int>(vs.size()), 8);
  if (ok) {
    auto ev = EVerify(fx.model, g, vs, 1);
    ASSERT_TRUE(ev.ok());
    EXPECT_TRUE(ev.value().counterfactual);
  }
}

TEST(RepairTest, RespectsUpperBoundUnderSwaps) {
  const auto& fx = testing::GetTrainedFixture();
  const int gi = fx.db.LabelGroup(1)[1];
  const Graph& g = fx.db.graph(gi);
  CoverageBound bound{0, 3};
  std::vector<NodeId> vs{0, 1, 2};  // full budget of (likely) ring carbons
  (void)CounterfactualRepair(fx.model, g, 1, bound, 10, &vs);
  EXPECT_LE(static_cast<int>(vs.size()), 3);
  // Nodes must be unique and valid.
  std::set<NodeId> uniq(vs.begin(), vs.end());
  EXPECT_EQ(uniq.size(), vs.size());
  for (NodeId v : vs) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, g.num_nodes());
  }
}

TEST(RepairTest, ZeroBudgetLeavesSelectionAlone) {
  const auto& fx = testing::GetTrainedFixture();
  const int gi = fx.db.LabelGroup(1)[0];
  const Graph& g = fx.db.graph(gi);
  CoverageBound bound{0, 8};
  std::vector<NodeId> vs{0, 1};
  std::vector<NodeId> orig = vs;
  (void)CounterfactualRepair(fx.model, g, 1, bound, 0, &vs);
  std::sort(orig.begin(), orig.end());
  EXPECT_EQ(vs, orig);
}

TEST(RepairTest, MostMutagensRepairable) {
  // The planted-motif dataset guarantees a counterfactual subset exists
  // (the nitro group); repair should find it for most graphs.
  const auto& fx = testing::GetTrainedFixture();
  int repaired = 0;
  int total = 0;
  for (int gi : fx.db.LabelGroup(1)) {
    const Graph& g = fx.db.graph(gi);
    CoverageBound bound{0, 8};
    std::vector<NodeId> vs{0};
    if (CounterfactualRepair(fx.model, g, 1, bound, 8, &vs)) ++repaired;
    ++total;
    if (total >= 10) break;
  }
  EXPECT_GT(repaired, total / 2);
}

}  // namespace
}  // namespace gvex
