// RepairOracleTest: CounterfactualRepair, which answers every probe through
// the model's remainder predictor, must return exactly what the rebuild-
// every-probe repair of tests/explain/repair_reference.h returns: the same
// node sequence and the same flag, on MUT and on MAL's directed call graphs,
// over several budgets, bounds and starting selections.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "data/malnet.h"
#include "explain/repair.h"
#include "explain/repair_reference.h"
#include "gnn/trainer.h"
#include "test_util.h"
#include "util/rng.h"

namespace gvex {
namespace {

struct RepairCase {
  CoverageBound bound;
  int budget;
};

// What a batch of comparisons covered.
struct Coverage {
  int flipped = 0;  // the reference repair reached M(G \ V_S) != label
  int moved = 0;    // ... after changing the starting selection
};

// Runs both repairs from `start` and counts disagreements.
int CompareRepairs(const GnnClassifier& model, const Graph& g, int label,
                   const RepairCase& c, const std::vector<NodeId>& start,
                   Coverage* cov) {
  std::vector<NodeId> got = start;
  std::vector<NodeId> want = start;
  const bool got_ok =
      CounterfactualRepair(model, g, label, c.bound, c.budget, &got);
  const bool want_ok = testing::ReferenceCounterfactualRepair(
      model, g, label, c.bound, c.budget, &want);
  std::vector<NodeId> sorted_start = start;
  std::sort(sorted_start.begin(), sorted_start.end());
  if (want_ok) ++cov->flipped;
  if (want != start && want != sorted_start) ++cov->moved;
  EXPECT_EQ(got_ok, want_ok);
  EXPECT_EQ(got, want);
  return (got_ok != want_ok || got != want) ? 1 : 0;
}

std::vector<NodeId> Starts(const Graph& g, int size, Rng* rng) {
  std::vector<NodeId> s;
  while (static_cast<int>(s.size()) < size) {
    const auto v = static_cast<NodeId>(
        rng->NextUint(static_cast<uint64_t>(g.num_nodes())));
    if (std::find(s.begin(), s.end(), v) == s.end()) s.push_back(v);
  }
  return s;
}

TEST(RepairOracleTest, MutagenicityFixture) {
  const auto& fx = testing::GetTrainedFixture();
  const RepairCase cases[] = {
      {{0, 3}, 10}, {{0, 8}, 8}, {{0, 8}, 1}, {{2, 15}, 4}, {{0, 5}, 0}};
  Rng rng(11);
  int mismatches = 0;
  int runs = 0;
  Coverage cov;
  for (int label : {0, 1}) {
    const std::vector<int> group = fx.db.LabelGroup(label);
    for (size_t i = 0; i < group.size() && i < 6; ++i) {
      const Graph& g = fx.db.graph(group[i]);
      for (const RepairCase& c : cases) {
        for (const std::vector<NodeId>& start :
             {std::vector<NodeId>{0}, std::vector<NodeId>{0, 1, 2},
              Starts(g, std::min(c.bound.upper, 4), &rng)}) {
          mismatches += CompareRepairs(fx.model, g, label, c, start, &cov);
          ++runs;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(runs, 2 * 6 * 5 * 3);
  EXPECT_GT(cov.flipped, 0);
  EXPECT_GT(cov.moved, 0);
}

TEST(RepairOracleTest, MalnetCallGraphs) {
  // Three directed call graphs of the default 120-260 nodes and a small
  // GCN trained briefly on them; predictions supply the labels to repair.
  MalnetOptions mopt;
  mopt.num_graphs = 5;
  GraphDatabase db = GenerateMalnet(mopt);
  GcnConfig cfg;
  cfg.input_dim = db.graph(0).feature_dim();
  cfg.hidden_dim = 16;
  cfg.num_layers = 3;
  cfg.num_classes = mopt.num_classes;
  Rng init(3);
  GcnModel model(cfg, &init);
  std::vector<int> all;
  for (int i = 0; i < db.size(); ++i) all.push_back(i);
  TrainConfig tc;
  tc.epochs = 15;
  tc.batch_size = 5;
  ASSERT_TRUE(TrainGcn(&model, db, all, tc).ok());

  const RepairCase cases[] = {{{0, 6}, 3}, {{0, 15}, 2}};
  Rng rng(5);
  int mismatches = 0;
  Coverage cov;
  for (int gi = 0; gi < 3; ++gi) {
    const Graph& g = db.graph(gi);
    ASSERT_TRUE(g.directed());
    const int label = model.Predict(g);
    for (const RepairCase& c : cases) {
      mismatches += CompareRepairs(model, g, label, c,
                                   Starts(g, std::min(c.bound.upper, 5), &rng),
                                   &cov);
    }
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_GT(cov.moved, 0);
}

}  // namespace
}  // namespace gvex
