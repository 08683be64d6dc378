#include "gnn/trainer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "data/mutagenicity.h"
#include "gnn/adam.h"
#include "gnn/gin_model.h"
#include "gnn/rgcn_model.h"
#include "gnn/sage_model.h"
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

// A model must be as wide as the graphs it reads: a 4-wide model on the
// 14-wide MUT graphs is refused before any forward pass reads past its
// input weights, whatever the architecture.
template <typename Model, typename Config>
void ExpectWrongWidthRefused(const GraphDatabase& db) {
  Config cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 4;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  Rng rng(1);
  Model model(cfg, &rng);
  EXPECT_TRUE(
      TrainAnyModel(&model, db, {0, 1}, {}).status().IsInvalidArgument());
  GraphDatabase labelled = db;
  EXPECT_TRUE(AssignPredictedLabels(model, &labelled).IsInvalidArgument());
}

TEST(TrainerTest, RejectsModelOfWrongInputWidth) {
  const auto& fixture = testing::GetTrainedFixture();
  ASSERT_EQ(fixture.db.graph(0).feature_dim(), 14);
  ExpectWrongWidthRefused<GcnModel, GcnConfig>(fixture.db);
  ExpectWrongWidthRefused<GinModel, GinConfig>(fixture.db);
  ExpectWrongWidthRefused<SageModel, SageConfig>(fixture.db);
  ExpectWrongWidthRefused<RgcnModel, RgcnConfig>(fixture.db);
  GcnConfig cfg;
  cfg.input_dim = 4;
  cfg.hidden_dim = 4;
  cfg.num_classes = 2;
  Rng rng(1);
  GcnModel model(cfg, &rng);
  EXPECT_TRUE(
      TrainGcn(&model, fixture.db, {0, 1}, {}).status().IsInvalidArgument());
}

// FNV-1a over the bytes of every parameter tensor, in MutableParams()
// order, then the head bias.
template <typename Model>
uint64_t ParamHash(Model* model) {
  uint64_t h = 14695981039346656037ull;
  auto mix = [&h](const float* p, size_t n) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
  };
  for (const Matrix* w : model->MutableParams()) mix(w->data(), w->size());
  const std::vector<float>& bias = *model->MutableFcBias();
  mix(bias.data(), bias.size());
  return h;
}

struct Pinned {
  uint64_t init = 0;
  uint64_t trained = 0;
  uint32_t loss_bits = 0;
};

// Hashes a 2-layer, 8-wide model as initialized and after three epochs on
// 12 MUT graphs, and keeps the reported loss's bits.
template <typename Model, typename Config>
Pinned TrainAndHash(Config cfg, uint64_t seed) {
  cfg.input_dim = 14;
  cfg.hidden_dim = 8;
  cfg.num_layers = 2;
  Rng rng(seed);
  Model model(cfg, &rng);
  MutagenicityOptions mopt;
  mopt.num_graphs = 12;
  mopt.seed = 5;
  const GraphDatabase db = GenerateMutagenicity(mopt);
  std::vector<int> all;
  for (int i = 0; i < db.size(); ++i) all.push_back(i);
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 4;
  Pinned out;
  out.init = ParamHash(&model);
  auto report = TrainAnyModel(&model, db, all, tc);
  EXPECT_TRUE(report.ok());
  out.trained = ParamHash(&model);
  if (report.ok()) {
    std::memcpy(&out.loss_bits, &report.value().final_loss, sizeof(float));
  }
  return out;
}

// Initialization and training are pinned bit for bit to hashes recorded
// before the four architectures shared one substrate (Release and Debug
// builds agree). So is the reported loss, summed per batch and then per
// epoch as `gvex_cli train` prints it; R-GCN's is one ulp off the value
// of the old generic loop, which summed per epoch only.
TEST(TrainerTest, InitAndTrainingArePinnedForEveryArchitecture) {
  const Pinned gcn = TrainAndHash<GcnModel>(GcnConfig{}, 1);
  EXPECT_EQ(gcn.init, 0xdbc9f27c5c134dc9ull);
  EXPECT_EQ(gcn.trained, 0x41e3c12c8f483f2full);
  EXPECT_EQ(gcn.loss_bits, 0x3f36212du);

  const Pinned gin = TrainAndHash<GinModel>(GinConfig{}, 2);
  EXPECT_EQ(gin.init, 0x1c39d611e76cdc45ull);
  EXPECT_EQ(gin.trained, 0xacf43a1ce70733f9ull);
  EXPECT_EQ(gin.loss_bits, 0x3fe1f643u);

  const Pinned sage = TrainAndHash<SageModel>(SageConfig{}, 3);
  EXPECT_EQ(sage.init, 0xdd1c208a8d8a4e27ull);
  EXPECT_EQ(sage.trained, 0xfd4ce56703becf43ull);
  EXPECT_EQ(sage.loss_bits, 0x3f35381cu);

  RgcnConfig rgcn;
  rgcn.num_edge_types = 2;
  const Pinned r = TrainAndHash<RgcnModel>(rgcn, 4);
  EXPECT_EQ(r.init, 0x2279893b28c0344dull);
  EXPECT_EQ(r.trained, 0xbdc6f440478cf2c5ull);
  EXPECT_EQ(r.loss_bits, 0x3f3bc297u);
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
