#include "gnn/trainer.h"

#include <gtest/gtest.h>

#include "data/mutagenicity.h"
#include "gnn/adam.h"
#include "test_util.h"

namespace gvex {
namespace {

TEST(AdamTest, DecreasesSimpleQuadratic) {
  // Minimize f(w) = w^2 via Adam; gradient = 2w.
  Matrix w(1, 1, 5.0f);
  AdamConfig cfg;
  cfg.lr = 0.1f;
  Adam opt({&w}, nullptr, cfg);
  for (int i = 0; i < 300; ++i) {
    Matrix grad(1, 1);
    grad.at(0, 0) = 2.0f * w.at(0, 0);
    opt.Step({&grad}, nullptr);
  }
  EXPECT_NEAR(w.at(0, 0), 0.0f, 0.05f);
  EXPECT_EQ(opt.step_count(), 300);
}

TEST(AdamTest, BiasVectorUpdated) {
  Matrix w(1, 1, 0.0f);
  std::vector<float> bias{4.0f};
  AdamConfig cfg;
  cfg.lr = 0.1f;
  Adam opt({&w}, &bias, cfg);
  for (int i = 0; i < 300; ++i) {
    Matrix grad(1, 1);
    std::vector<float> bgrad{2.0f * bias[0]};
    opt.Step({&grad}, &bgrad);
  }
  EXPECT_NEAR(bias[0], 0.0f, 0.05f);
}

TEST(AdamTest, WeightDecayShrinksWeights) {
  Matrix w(1, 1, 1.0f);
  AdamConfig cfg;
  cfg.lr = 0.01f;
  cfg.weight_decay = 1.0f;
  Adam opt({&w}, nullptr, cfg);
  Matrix zero_grad(1, 1);
  for (int i = 0; i < 100; ++i) opt.Step({&zero_grad}, nullptr);
  EXPECT_LT(w.at(0, 0), 1.0f);
}

TEST(TrainerTest, LearnsSeparableMoleculeTask) {
  const auto& fixture = testing::GetTrainedFixture();
  std::vector<int> all;
  for (int i = 0; i < fixture.db.size(); ++i) all.push_back(i);
  float acc = EvaluateAccuracy(fixture.model, fixture.db, all);
  // The nitro motif is perfectly separating; the GCN should learn it well.
  EXPECT_GT(acc, 0.9f);
}

TEST(TrainerTest, RejectsNullModel) {
  GraphDatabase db;
  db.Add(testing::PathGraph(3), 0);
  EXPECT_FALSE(TrainGcn(nullptr, db, {0}, {}).ok());
}

TEST(TrainerTest, RejectsEmptyTrainingSet) {
  const auto& fixture = testing::GetTrainedFixture();
  GcnModel model = fixture.model;
  EXPECT_FALSE(TrainGcn(&model, fixture.db, {}, {}).ok());
}

TEST(TrainerTest, RejectsOutOfRangeIndex) {
  const auto& fixture = testing::GetTrainedFixture();
  GcnModel model = fixture.model;
  EXPECT_TRUE(
      TrainGcn(&model, fixture.db, {9999}, {}).status().IsOutOfRange());
}

TEST(TrainerTest, RejectsLabelOutsideModelRange) {
  GraphDatabase db;
  db.Add(testing::PathGraph(3), 5);  // label 5 but model has 2 classes
  GcnConfig cfg;
  cfg.input_dim = 1;
  cfg.hidden_dim = 4;
  cfg.num_classes = 2;
  Rng rng(1);
  GcnModel model(cfg, &rng);
  EXPECT_TRUE(TrainGcn(&model, db, {0}, {}).status().IsInvalidArgument());
}

// A model must be as wide as the graphs it reads: a 4-wide GCN on the
// 14-wide MUT graphs is refused before any forward pass reads past its
// input weights.
TEST(TrainerTest, RejectsModelOfWrongInputWidth) {
  const auto& fixture = testing::GetTrainedFixture();
  ASSERT_EQ(fixture.db.graph(0).feature_dim(), 14);
  GcnConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 4;
  cfg.num_classes = 2;
  Rng rng(1);
  GcnModel model(cfg, &rng);
  EXPECT_TRUE(
      TrainGcn(&model, fixture.db, {0, 1}, {}).status().IsInvalidArgument());
  GraphDatabase db = fixture.db;
  EXPECT_TRUE(AssignPredictedLabels(model, &db).IsInvalidArgument());
}

TEST(TrainerTest, AssignPredictedLabelsFillsDatabase) {
  const auto& fixture = testing::GetTrainedFixture();
  GraphDatabase db = fixture.db;
  ASSERT_TRUE(AssignPredictedLabels(fixture.model, &db).ok());
  ASSERT_TRUE(db.has_predictions());
  int agree = 0;
  for (int i = 0; i < db.size(); ++i) {
    if (db.predicted_label(i) == db.true_label(i)) ++agree;
  }
  EXPECT_GT(agree, db.size() * 9 / 10);
}

TEST(TrainerTest, EvaluateAccuracyEmptyIndicesIsZero) {
  const auto& fixture = testing::GetTrainedFixture();
  EXPECT_EQ(EvaluateAccuracy(fixture.model, fixture.db, {}), 0.0f);
}

}  // namespace
}  // namespace gvex
