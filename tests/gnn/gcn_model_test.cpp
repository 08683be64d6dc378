#include "gnn/gcn_model.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "gnn/loss.h"
#include "la/matrix_ops.h"
#include "test_util.h"

namespace gvex {
namespace {

GcnModel MakeModel(int input_dim = 2, int hidden = 4, int classes = 2,
                   uint64_t seed = 3) {
  GcnConfig cfg;
  cfg.input_dim = input_dim;
  cfg.hidden_dim = hidden;
  cfg.num_layers = 3;
  cfg.num_classes = classes;
  Rng rng(seed);
  return GcnModel(cfg, &rng);
}

TEST(GcnModelTest, PredictProbaIsDistribution) {
  GcnModel model = MakeModel();
  Graph g = testing::TriangleWithTail();
  auto p = model.PredictProba(g);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
  EXPECT_GE(p[0], 0.0f);
  EXPECT_GE(p[1], 0.0f);
}

TEST(GcnModelTest, PredictIsArgmaxOfProba) {
  GcnModel model = MakeModel();
  Graph g = testing::TriangleWithTail();
  auto p = model.PredictProba(g);
  EXPECT_EQ(model.Predict(g), p[0] > p[1] ? 0 : 1);
  EXPECT_NEAR(model.ProbaOf(g, 0), p[0], 1e-7f);
}

TEST(GcnModelTest, ProbaOfInvalidLabelIsZero) {
  GcnModel model = MakeModel();
  Graph g = testing::TriangleWithTail();
  EXPECT_EQ(model.ProbaOf(g, 99), 0.0f);
  EXPECT_EQ(model.ProbaOf(g, -1), 0.0f);
}

TEST(GcnModelTest, EmptyGraphPredictsFromBias) {
  GcnModel model = MakeModel();
  Graph empty;
  auto p = model.PredictProba(empty);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
}

TEST(GcnModelTest, NodeEmbeddingsShape) {
  GcnModel model = MakeModel();
  Graph g = testing::TriangleWithTail();
  Matrix emb = model.NodeEmbeddings(g);
  EXPECT_EQ(emb.rows(), g.num_nodes());
  EXPECT_EQ(emb.cols(), 4);
}

TEST(GcnModelTest, DeterministicInference) {
  GcnModel model = MakeModel();
  Graph g = testing::StarGraph(4);
  auto p1 = model.PredictProba(g);
  auto p2 = model.PredictProba(g);
  EXPECT_EQ(p1, p2);
}

TEST(GcnModelTest, DefaultFeatureFallbackForFeaturelessGraphs) {
  GcnModel model = MakeModel(/*input_dim=*/1);
  Graph g;
  g.AddNode(0);
  g.AddNode(0);
  (void)g.AddEdge(0, 1);
  // No features installed; model substitutes constant ones.
  auto p = model.PredictProba(g);
  EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
}

// End-to-end gradient check through conv layers + max pool + head + CE loss.
TEST(GcnModelTest, FullBackwardMatchesFiniteDifference) {
  GcnModel model = MakeModel(2, 3, 2, /*seed=*/17);
  Graph g = testing::PathGraph(4, 0, 2);
  // Slightly varied features so pooling winners are stable.
  Matrix x(4, 2);
  Rng xr(23);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 2; ++j) x.at(i, j) = xr.NextFloat(0.1f, 1.0f);
  }
  ASSERT_TRUE(g.SetFeatures(x).ok());

  auto loss_of = [&](GcnModel& m) {
    GcnModel::Trace t = m.Forward(g);
    return static_cast<double>(SoftmaxCrossEntropy(t.logits, 1, nullptr));
  };

  GcnModel::Trace trace = model.Forward(g);
  Matrix dlogits;
  SoftmaxCrossEntropy(trace.logits, 1, &dlogits);
  GcnModel::Gradients grads = model.ZeroGradients();
  model.Backward(trace, dlogits, &grads);

  // Check a sample of weight coordinates in every parameter tensor.
  const float eps = 1e-3f;
  auto params = model.MutableParams();
  ASSERT_EQ(params.size(), grads.mats.size());
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Matrix* w = params[pi];
    const int r = 0;
    const int c = w->cols() - 1;
    const float orig = w->at(r, c);
    w->at(r, c) = orig + eps;
    const double lp = loss_of(model);
    w->at(r, c) = orig - eps;
    const double lm = loss_of(model);
    w->at(r, c) = orig;
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grads.mats[pi].at(r, c), fd, 2e-2) << "param tensor " << pi;
  }
}

TEST(MaskedOperatorTest, AllOnesMatchesNormalizedAdjacency) {
  Graph g = testing::TriangleWithTail();
  std::vector<float> ones(static_cast<size_t>(g.num_edges()), 1.0f);
  Matrix masked = g.NormalizedAdjacency(ones).ToDense();
  Matrix plain = g.NormalizedAdjacency().ToDense();
  for (int i = 0; i < masked.rows(); ++i) {
    for (int j = 0; j < masked.cols(); ++j) {
      EXPECT_NEAR(masked.at(i, j), plain.at(i, j), 1e-6f);
    }
  }
  // Bit for bit, not only within tolerance.
  ASSERT_EQ(masked.size(), plain.size());
  EXPECT_EQ(std::memcmp(masked.data(), plain.data(),
                        masked.size() * sizeof(float)),
            0);
}

TEST(MaskedOperatorTest, ZeroMaskKeepsOnlySelfLoops) {
  Graph g = testing::PathGraph(3);
  std::vector<float> zeros(static_cast<size_t>(g.num_edges()), 0.0f);
  Matrix masked = g.NormalizedAdjacency(zeros).ToDense();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_EQ(masked.at(i, j), 0.0f);
      }
    }
  }
  EXPECT_GT(masked.at(0, 0), 0.0f);
}

TEST(LossTest, CrossEntropyGradientIsSoftmaxMinusOneHot) {
  Matrix logits = Matrix::FromRows({{1.0f, 2.0f, 0.5f}});
  Matrix grad;
  float loss = SoftmaxCrossEntropy(logits, 1, &grad);
  auto p = Softmax(logits.RowVec(0));
  EXPECT_NEAR(loss, -std::log(p[1]), 1e-5f);
  EXPECT_NEAR(grad.at(0, 0), p[0], 1e-6f);
  EXPECT_NEAR(grad.at(0, 1), p[1] - 1.0f, 1e-6f);
  EXPECT_NEAR(grad.at(0, 2), p[2], 1e-6f);
}

TEST(LossTest, NegLogLikelihoodClampsZero) {
  EXPECT_GT(NegLogLikelihood({1.0f, 0.0f}, 1), 20.0f);
  EXPECT_NEAR(NegLogLikelihood({1.0f, 0.0f}, 0), 0.0f, 1e-6f);
}

}  // namespace
}  // namespace gvex
