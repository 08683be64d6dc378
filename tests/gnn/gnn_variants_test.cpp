// Tests for the message-passing variants (GIN, GraphSAGE, R-GCN) and the
// architecture-generic trainer — the model-agnosticism substrate.

#include <gtest/gtest.h>

#include <cstring>
#include <type_traits>
#include <vector>

#include "data/mutagenicity.h"
#include "explain/approx_gvex.h"
#include "gnn/gcn_model.h"
#include "gnn/gin_model.h"
#include "gnn/loss.h"
#include "gnn/rgcn_model.h"
#include "gnn/sage_model.h"
#include "gnn/trainer.h"
#include "test_util.h"

namespace gvex {
namespace {

GinModel MakeGin(int input_dim = 2, uint64_t seed = 71) {
  GinConfig cfg;
  cfg.input_dim = input_dim;
  cfg.hidden_dim = 4;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  Rng rng(seed);
  return GinModel(cfg, &rng);
}

SageModel MakeSage(int input_dim = 2, uint64_t seed = 73) {
  SageConfig cfg;
  cfg.input_dim = input_dim;
  cfg.hidden_dim = 4;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  Rng rng(seed);
  return SageModel(cfg, &rng);
}

RgcnModel MakeRgcn(int input_dim = 2, int edge_types = 2, uint64_t seed = 79) {
  RgcnConfig cfg;
  cfg.input_dim = input_dim;
  cfg.hidden_dim = 4;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  cfg.num_edge_types = edge_types;
  Rng rng(seed);
  return RgcnModel(cfg, &rng);
}

TEST(GinModelTest, PredictProbaIsDistribution) {
  GinModel model = MakeGin();
  Graph g = testing::TriangleWithTail();
  auto p = model.PredictProba(g);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
}

TEST(GinModelTest, EmptyGraphHandled) {
  GinModel model = MakeGin();
  Graph empty;
  auto p = model.PredictProba(empty);
  EXPECT_NEAR(p[0] + p[1], 1.0f, 1e-5f);
}

TEST(GinModelTest, AggregationOperatorSumsNeighborsPlusSelf) {
  GinModel model = MakeGin(1);
  Graph g = testing::PathGraph(3);
  SparseMatrix s = model.AggregationOperator(g);
  Matrix x(3, 1, 1.0f);
  Matrix agg = s.Multiply(x);
  // Node 1 has 2 neighbors + self (eps=0): 3; endpoints: 2.
  EXPECT_NEAR(agg.at(0, 0), 2.0f, 1e-6f);
  EXPECT_NEAR(agg.at(1, 0), 3.0f, 1e-6f);
}

TEST(SageModelTest, MeanOperatorRowsAverage) {
  SageModel model = MakeSage(1);
  Graph g = testing::PathGraph(3);
  SparseMatrix m = model.MeanOperator(g);
  Matrix x(3, 1);
  x.at(0, 0) = 0.0f;
  x.at(1, 0) = 6.0f;
  x.at(2, 0) = 12.0f;
  Matrix agg = m.Multiply(x);
  EXPECT_NEAR(agg.at(0, 0), 6.0f, 1e-5f);   // only neighbor is node 1
  EXPECT_NEAR(agg.at(1, 0), 6.0f, 1e-5f);   // mean of 0 and 12
}

TEST(RgcnModelTest, RelationOperatorsSplitByType) {
  RgcnModel model = MakeRgcn(1, 2);
  Graph g;
  g.AddNode(0);
  g.AddNode(0);
  g.AddNode(0);
  (void)g.AddEdge(0, 1, 0);
  (void)g.AddEdge(1, 2, 1);
  auto ops = model.RelationOperators(g);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_GT(ops[0].At(0, 1), 0.0f);
  EXPECT_EQ(ops[0].At(1, 2), 0.0f);
  EXPECT_GT(ops[1].At(1, 2), 0.0f);
  EXPECT_EQ(ops[1].At(0, 1), 0.0f);
}

TEST(RgcnModelTest, EdgeTypesChangeThePrediction) {
  // The same topology with different edge types must produce different
  // outputs (the future-work "impact of edge features").
  RgcnModel model = MakeRgcn(2, 2);
  Graph a = testing::PathGraph(4, 0, 2);
  Graph b;
  for (int i = 0; i < 4; ++i) b.AddNode(0);
  for (int i = 0; i + 1 < 4; ++i) (void)b.AddEdge(i, i + 1, 1);
  Matrix x(4, 2, 1.0f);
  (void)b.SetFeatures(x);
  auto pa = model.PredictProba(a);
  auto pb = model.PredictProba(b);
  EXPECT_NE(pa[0], pb[0]);
}

// Shared finite-difference gradient check across all variants.
template <typename Model>
void CheckGradients(Model* model, const Graph& g) {
  auto loss_of = [&](Model& m) {
    auto t = m.Forward(g);
    return static_cast<double>(SoftmaxCrossEntropy(t.logits, 1, nullptr));
  };
  auto trace = model->Forward(g);
  Matrix dlogits;
  SoftmaxCrossEntropy(trace.logits, 1, &dlogits);
  auto grads = model->ZeroGradients();
  model->Backward(trace, dlogits, &grads);
  auto params = model->MutableParams();
  ASSERT_EQ(params.size(), grads.mats.size());
  const float eps = 1e-3f;
  for (size_t pi = 0; pi < params.size(); ++pi) {
    Matrix* w = params[pi];
    if (w->size() == 0) continue;
    const int r = w->rows() - 1;
    const int c = 0;
    const float orig = w->at(r, c);
    w->at(r, c) = orig + eps;
    const double lp = loss_of(*model);
    w->at(r, c) = orig - eps;
    const double lm = loss_of(*model);
    w->at(r, c) = orig;
    const double fd = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(grads.mats[pi].at(r, c), fd, 3e-2) << "tensor " << pi;
  }
}

// Black-box inference keeps no trace, yet must answer Forward's bits:
// PredictProba is Forward(g).probs and NodeEmbeddings the last layer's
// `out`, for every architecture and readout, on MUT molecules (typed bonds)
// and on a graph without features (the constant default feature).
template <typename Model>
class InferenceWithoutTraceTest : public ::testing::Test {};

using Architectures =
    ::testing::Types<GcnModel, GinModel, SageModel, RgcnModel>;
TYPED_TEST_SUITE(InferenceWithoutTraceTest, Architectures);

template <typename T>
bool SameBits(const T* a, const T* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(T)) == 0;
}

TYPED_TEST(InferenceWithoutTraceTest, BitwiseEqualToForward) {
  using Model = TypeParam;
  MutagenicityOptions mopt;
  mopt.num_graphs = 6;
  mopt.seed = 13;
  const GraphDatabase db = GenerateMutagenicity(mopt);
  std::vector<Graph> graphs;
  for (int i = 0; i < db.size(); ++i) graphs.push_back(db.graph(i));
  Graph bare;  // no features
  for (int i = 0; i < 6; ++i) bare.AddNode(0);
  for (int i = 0; i + 1 < 6; ++i) ASSERT_TRUE(bare.AddEdge(i, i + 1, i % 2).ok());
  ASSERT_TRUE(bare.AddEdge(0, 5, 1).ok());
  graphs.push_back(bare);

  for (ReadoutKind readout :
       {ReadoutKind::kMax, ReadoutKind::kMean, ReadoutKind::kSum}) {
    std::decay_t<decltype(std::declval<Model>().config())> cfg;
    cfg.input_dim = db.graph(0).feature_dim();
    cfg.hidden_dim = 8;
    cfg.num_layers = 3;
    cfg.num_classes = 3;
    cfg.readout = readout;
    if constexpr (std::is_same_v<Model, RgcnModel>) cfg.num_edge_types = 2;
    Rng rng(17);
    const Model model(cfg, &rng);
    for (const Graph& g : graphs) {
      const auto trace = model.Forward(g);
      const std::vector<float> p = model.PredictProba(g);
      ASSERT_EQ(p.size(), trace.probs.size());
      EXPECT_TRUE(SameBits(p.data(), trace.probs.data(), p.size()));
      const Matrix& want = trace.caches.back().out;
      const Matrix h = model.NodeEmbeddings(g);
      ASSERT_EQ(h.rows(), want.rows());
      ASSERT_EQ(h.cols(), want.cols());
      EXPECT_TRUE(SameBits(h.data(), want.data(), h.size()));
    }
  }
}

TEST(GnnVariantGradientTest, GinBackwardMatchesFiniteDifference) {
  GinModel model = MakeGin(2, 91);
  Graph g = testing::PathGraph(4, 0, 2);
  Matrix x(4, 2);
  Rng xr(17);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 2; ++j) x.at(i, j) = xr.NextFloat(0.1f, 1.0f);
  }
  ASSERT_TRUE(g.SetFeatures(x).ok());
  CheckGradients(&model, g);
}

TEST(GnnVariantGradientTest, SageBackwardMatchesFiniteDifference) {
  SageModel model = MakeSage(2, 93);
  Graph g = testing::PathGraph(4, 0, 2);
  Matrix x(4, 2);
  Rng xr(19);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 2; ++j) x.at(i, j) = xr.NextFloat(0.1f, 1.0f);
  }
  ASSERT_TRUE(g.SetFeatures(x).ok());
  CheckGradients(&model, g);
}

TEST(GnnVariantGradientTest, RgcnBackwardMatchesFiniteDifference) {
  RgcnModel model = MakeRgcn(2, 2, 97);
  Graph g;
  for (int i = 0; i < 4; ++i) g.AddNode(0);
  (void)g.AddEdge(0, 1, 0);
  (void)g.AddEdge(1, 2, 1);
  (void)g.AddEdge(2, 3, 0);
  Matrix x(4, 2);
  Rng xr(23);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 2; ++j) x.at(i, j) = xr.NextFloat(0.1f, 1.0f);
  }
  ASSERT_TRUE(g.SetFeatures(x).ok());
  CheckGradients(&model, g);
}

// The generic trainer should fit the molecule task with every architecture.
template <typename Model>
float TrainOnMolecules(Model* model, GraphDatabase* db_out) {
  MutagenicityOptions mopt;
  mopt.num_graphs = 30;
  mopt.seed = 21;
  *db_out = GenerateMutagenicity(mopt);
  std::vector<int> all;
  for (int i = 0; i < db_out->size(); ++i) all.push_back(i);
  TrainConfig tc;
  tc.epochs = 80;
  tc.batch_size = 8;
  auto report = TrainAnyModel(model, *db_out, all, tc);
  EXPECT_TRUE(report.ok());
  return report.ok() ? report.value().train_accuracy : 0.0f;
}

TEST(TrainAnyTest, GinLearnsMoleculeTask) {
  GinConfig cfg;
  cfg.input_dim = 14;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  Rng rng(3);
  GinModel model(cfg, &rng);
  GraphDatabase db;
  EXPECT_GT(TrainOnMolecules(&model, &db), 0.85f);
}

TEST(TrainAnyTest, SageLearnsMoleculeTask) {
  SageConfig cfg;
  cfg.input_dim = 14;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  Rng rng(5);
  SageModel model(cfg, &rng);
  GraphDatabase db;
  EXPECT_GT(TrainOnMolecules(&model, &db), 0.85f);
}

TEST(TrainAnyTest, RgcnLearnsMoleculeTask) {
  RgcnConfig cfg;
  cfg.input_dim = 14;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  cfg.num_edge_types = 1;
  Rng rng(7);
  RgcnModel model(cfg, &rng);
  GraphDatabase db;
  EXPECT_GT(TrainOnMolecules(&model, &db), 0.85f);
}

TEST(TrainAnyTest, GcnThroughGenericTrainerMatchesDedicated) {
  GcnConfig cfg;
  cfg.input_dim = 14;
  cfg.hidden_dim = 16;
  cfg.num_classes = 2;
  Rng rng(9);
  GcnModel model(cfg, &rng);
  GraphDatabase db;
  EXPECT_GT(TrainOnMolecules(&model, &db), 0.85f);
}

// Model-agnosticism end-to-end: GVEX explains a trained GIN through the
// black-box interface (influence falls back to the random-walk surrogate).
TEST(ModelAgnosticTest, ApproxGvexExplainsGinModel) {
  GinConfig cfg;
  cfg.input_dim = 14;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.num_classes = 2;
  Rng rng(11);
  GinModel model(cfg, &rng);
  GraphDatabase db;
  float acc = TrainOnMolecules(&model, &db);
  ASSERT_GT(acc, 0.8f);
  ASSERT_TRUE(AssignPredictedLabels(model, &db).ok());
  Configuration config;
  config.theta = 0.05f;
  config.r = 0.3f;
  config.default_bound = {2, 8};
  config.miner.max_pattern_nodes = 3;
  ApproxGvex algo(&model, config);
  auto view = algo.GenerateView(db, 1);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_FALSE(view.value().patterns.empty());
  EXPECT_GT(view.value().explainability, 0.0);
}

TEST(ModelAgnosticTest, InfluenceFallsBackToRandomWalkForNonGcn) {
  GinModel model = MakeGin(2);
  Graph g = testing::PathGraph(5, 0, 2);
  NodeInfluence inf =
      NodeInfluence::Compute(model, g, InfluenceMode::kExactJacobian);
  EXPECT_EQ(inf.mode_used(), InfluenceMode::kRandomWalk);
}

}  // namespace
}  // namespace gvex
