// GainOracleTest: ScoreState::GainOf, which dedups the diversity entries of
// a gain with an epoch-stamped mark array, must return the same bits as the
// linear-scan state of tests/explain/gain_reference.h for every node after
// every greedy prefix, on MUT molecules and on MAL's call graphs (where
// every node has the same constant feature). Each run checks that it saw
// gains that reach an entry from two newly influenced nodes: the case the
// dedup exists for, where a gain that counted the entry twice would differ.

#include <gtest/gtest.h>

#include <vector>

#include "data/malnet.h"
#include "explain/gain_reference.h"
#include "explain/scoring.h"
#include "gnn/trainer.h"
#include "test_util.h"
#include "util/rng.h"

namespace gvex {
namespace {

// gvex_cli explain's scoring parameters.
Configuration CliConfig() {
  Configuration c;
  c.theta = 0.08f;
  c.r = 0.25f;
  c.gamma = 0.5f;
  return c;
}

// What a batch of comparisons covered.
struct Coverage {
  int gains = 0;       // GainOf calls compared
  int duplicated = 0;  // ... where some new entry is reached twice
};

// True when two nodes u newly influences reach the same entry outside the
// union: the case a gain must count once.
bool ReachesAnEntryTwice(const GraphScoringContext& ctx,
                         const std::vector<bool>& influenced,
                         const std::vector<bool>& covered, NodeId u) {
  std::vector<bool> reached(static_cast<size_t>(ctx.num_nodes()), false);
  for (NodeId v : ctx.InfluencedBy(u)) {
    if (influenced[static_cast<size_t>(v)]) continue;
    for (NodeId w : ctx.Neighborhood(v)) {
      if (covered[static_cast<size_t>(w)]) continue;
      if (reached[static_cast<size_t>(w)]) return true;
      reached[static_cast<size_t>(w)] = true;
    }
  }
  return false;
}

// Runs the greedy (largest reference gain, ties to the lowest id) for up to
// `prefixes` additions and compares every node's gain before each one.
void CompareGains(const GraphScoringContext& ctx, int prefixes,
                  Coverage* cov) {
  ScoreState got(&ctx);
  testing::ReferenceScoreState want(&ctx);
  const int n = ctx.num_nodes();
  std::vector<bool> selected(static_cast<size_t>(n), false);
  std::vector<bool> influenced(static_cast<size_t>(n), false);
  std::vector<bool> covered(static_cast<size_t>(n), false);
  for (int step = 0; step <= prefixes && step <= n; ++step) {
    NodeId best = -1;
    double best_gain = -1.0;
    for (NodeId u = 0; u < n; ++u) {
      const double w = want.GainOf(u);
      EXPECT_EQ(got.GainOf(u), w) << "prefix " << step << ", node " << u;
      ++cov->gains;
      if (ReachesAnEntryTwice(ctx, influenced, covered, u)) ++cov->duplicated;
      if (!selected[static_cast<size_t>(u)] && w > best_gain) {
        best_gain = w;
        best = u;
      }
    }
    if (best < 0) break;
    got.Add(best);
    want.Add(best);
    selected[static_cast<size_t>(best)] = true;
    for (NodeId v : ctx.InfluencedBy(best)) {
      if (influenced[static_cast<size_t>(v)]) continue;
      influenced[static_cast<size_t>(v)] = true;
      for (NodeId w : ctx.Neighborhood(v)) covered[static_cast<size_t>(w)] = true;
    }
    EXPECT_EQ(got.InfluenceCount(), want.InfluenceCount());
    EXPECT_EQ(got.DiversityCount(), want.DiversityCount());
    EXPECT_EQ(got.Score(), want.Score());
  }
}

TEST(GainOracleTest, MutagenicityFixture) {
  const auto& fx = testing::GetTrainedFixture();
  Coverage cov;
  for (int label : {0, 1}) {
    const std::vector<int> group = fx.db.LabelGroup(label);
    for (size_t i = 0; i < group.size() && i < 6; ++i) {
      const Graph& g = fx.db.graph(group[i]);
      GraphScoringContext ctx(fx.model, g, CliConfig());
      CompareGains(ctx, g.num_nodes(), &cov);
    }
  }
  EXPECT_GT(cov.gains, 0);
  EXPECT_GT(cov.duplicated, 0);
}

TEST(GainOracleTest, MalnetCallGraphs) {
  // Directed call graphs of the default 120-260 nodes and a small GCN
  // trained briefly on them.
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

  Coverage cov;
  for (int gi = 0; gi < 3; ++gi) {
    const Graph& g = db.graph(gi);
    ASSERT_TRUE(g.directed());
    GraphScoringContext ctx(model, g, CliConfig());
    CompareGains(ctx, 15, &cov);
  }
  EXPECT_GT(cov.gains, 0);
  EXPECT_GT(cov.duplicated, 0);
}

}  // namespace
}  // namespace gvex
