#include "explain/scoring.h"

#include <gtest/gtest.h>

#include <ostream>
#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace gvex {
namespace {

GcnModel SmallModel(int input_dim, uint64_t seed = 61) {
  GcnConfig cfg;
  cfg.input_dim = input_dim;
  cfg.hidden_dim = 4;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  Rng rng(seed);
  return GcnModel(cfg, &rng);
}

Configuration SmallConfig() {
  Configuration c;
  c.theta = 0.1f;
  c.r = 0.3f;
  c.gamma = 0.5f;
  c.influence_mode = InfluenceMode::kExactJacobian;
  return c;
}

TEST(ScoringContextTest, NeighborhoodContainsSelf) {
  Graph g = testing::TriangleWithTail();
  GcnModel model = SmallModel(g.feature_dim());
  GraphScoringContext ctx(model, g, SmallConfig());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& nb = ctx.Neighborhood(v);
    EXPECT_NE(std::find(nb.begin(), nb.end(), v), nb.end());
  }
}

TEST(ScoringContextTest, InfluenceListsRespectTheta) {
  Graph g = testing::TriangleWithTail();
  GcnModel model = SmallModel(g.feature_dim());
  Configuration c = SmallConfig();
  GraphScoringContext ctx(model, g, c);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : ctx.InfluencedBy(u)) {
      EXPECT_GE(ctx.influence().I2(u, v), c.theta);
    }
  }
}

TEST(ScoreStateTest, EmptySetScoresZero) {
  Graph g = testing::TriangleWithTail();
  GcnModel model = SmallModel(g.feature_dim());
  GraphScoringContext ctx(model, g, SmallConfig());
  ScoreState state(&ctx);
  EXPECT_EQ(state.Score(), 0.0);
  EXPECT_EQ(state.InfluenceCount(), 0);
  EXPECT_EQ(state.DiversityCount(), 0);
}

TEST(ScoreStateTest, GainOfMatchesAddDelta) {
  Graph g = testing::TriangleWithTail();
  GcnModel model = SmallModel(g.feature_dim());
  GraphScoringContext ctx(model, g, SmallConfig());
  ScoreState state(&ctx);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    ScoreState copy = state;
    const double gain = state.GainOf(u);
    const double before = state.Score();
    copy.Add(u);
    EXPECT_NEAR(copy.Score() - before, gain, 1e-9) << "node " << u;
    state = copy;  // keep adding
  }
}

TEST(ScoreStateTest, ScoreOfSetMatchesIncremental) {
  Graph g = testing::TriangleWithTail();
  GcnModel model = SmallModel(g.feature_dim());
  GraphScoringContext ctx(model, g, SmallConfig());
  std::vector<NodeId> set{0, 2, 3};
  ScoreState state(&ctx);
  for (NodeId u : set) state.Add(u);
  EXPECT_NEAR(state.Score(), ScoreState::ScoreOfSet(ctx, set), 1e-12);
}

TEST(ScoreStateTest, AddingSameNodeTwiceIsIdempotent) {
  Graph g = testing::TriangleWithTail();
  GcnModel model = SmallModel(g.feature_dim());
  GraphScoringContext ctx(model, g, SmallConfig());
  ScoreState state(&ctx);
  state.Add(1);
  const double once = state.Score();
  state.Add(1);
  EXPECT_EQ(state.Score(), once);
}

// Property sweep over random graphs & configurations (Lemma 3.3):
// monotonicity f(S) <= f(S ∪ {u}) and submodularity
// f(S'' + u) - f(S'') >= f(S' + u) - f(S') for S'' ⊆ S'.
struct PropertyParam {
  uint64_t seed;
  float theta;
  float r;
  float gamma;
};

// Names each instance by its fields; without it gtest prints the raw 24
// bytes, padding included, and the test names change between builds.
void PrintTo(const PropertyParam& p, std::ostream* os) {
  *os << "seed=" << p.seed << " theta=" << p.theta << " r=" << p.r
      << " gamma=" << p.gamma;
}

class ScoringPropertyTest : public ::testing::TestWithParam<PropertyParam> {};

TEST_P(ScoringPropertyTest, MonotoneAndSubmodular) {
  const PropertyParam param = GetParam();
  Rng rng(param.seed);
  // Random connected graph with 6-9 nodes, 2 types.
  const int n = 6 + static_cast<int>(rng.NextUint(4));
  Graph g;
  for (int i = 0; i < n; ++i) {
    g.AddNode(static_cast<int>(rng.NextUint(2)));
  }
  for (int i = 1; i < n; ++i) {
    (void)g.AddEdge(i, static_cast<int>(rng.NextUint(static_cast<uint64_t>(i))));
  }
  for (int extra = 0; extra < n / 2; ++extra) {
    int u = static_cast<int>(rng.NextUint(static_cast<uint64_t>(n)));
    int v = static_cast<int>(rng.NextUint(static_cast<uint64_t>(n)));
    if (u != v) (void)g.AddEdge(u, v);
  }
  ASSERT_TRUE(g.SetOneHotFeaturesFromTypes(2).ok());

  GcnModel model = SmallModel(2, param.seed + 1000);
  Configuration c;
  c.theta = param.theta;
  c.r = param.r;
  c.gamma = param.gamma;
  c.influence_mode = InfluenceMode::kExactJacobian;
  GraphScoringContext ctx(model, g, c);

  // Random nested pair S'' ⊆ S' and u outside S'.
  std::vector<NodeId> s_prime;
  for (NodeId v = 0; v < n; ++v) {
    if (rng.NextBool(0.4)) s_prime.push_back(v);
  }
  if (static_cast<int>(s_prime.size()) >= n) s_prime.pop_back();
  std::vector<NodeId> s_small;
  for (NodeId v : s_prime) {
    if (rng.NextBool(0.5)) s_small.push_back(v);
  }
  NodeId u = -1;
  for (NodeId v = 0; v < n; ++v) {
    if (std::find(s_prime.begin(), s_prime.end(), v) == s_prime.end()) {
      u = v;
      break;
    }
  }
  ASSERT_GE(u, 0);

  auto with = [](std::vector<NodeId> s, NodeId x) {
    s.push_back(x);
    return s;
  };
  const double f_small = ScoreState::ScoreOfSet(ctx, s_small);
  const double f_prime = ScoreState::ScoreOfSet(ctx, s_prime);
  const double f_small_u = ScoreState::ScoreOfSet(ctx, with(s_small, u));
  const double f_prime_u = ScoreState::ScoreOfSet(ctx, with(s_prime, u));

  // Monotonicity.
  EXPECT_LE(f_small, f_prime + 1e-9);
  EXPECT_LE(f_small, f_small_u + 1e-9);
  EXPECT_LE(f_prime, f_prime_u + 1e-9);
  // Submodularity (diminishing returns).
  EXPECT_GE((f_small_u - f_small) - (f_prime_u - f_prime), -1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScoringPropertyTest,
    ::testing::Values(PropertyParam{1, 0.05f, 0.2f, 0.0f},
                      PropertyParam{2, 0.05f, 0.2f, 0.5f},
                      PropertyParam{3, 0.10f, 0.3f, 1.0f},
                      PropertyParam{4, 0.15f, 0.5f, 0.5f},
                      PropertyParam{5, 0.20f, 0.1f, 0.3f},
                      PropertyParam{6, 0.02f, 0.4f, 0.8f},
                      PropertyParam{7, 0.30f, 0.6f, 0.2f},
                      PropertyParam{8, 0.10f, 0.0f, 1.0f},
                      PropertyParam{9, 0.00f, 0.3f, 0.5f},
                      PropertyParam{10, 0.12f, 0.25f, 0.6f}));

}  // namespace
}  // namespace gvex
