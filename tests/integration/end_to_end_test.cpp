// Integration tests: full pipeline from dataset generation through training,
// view generation (both algorithms), verification, metrics, and querying —
// the complete workflow of the paper's system.

#include <gtest/gtest.h>

#include <vector>

#include "data/datasets.h"
#include "explain/approx_gvex.h"
#include "explain/metrics.h"
#include "explain/stream_gvex.h"
#include "explain/verify.h"
#include "gnn/model_io.h"
#include "gnn/trainer.h"
#include "serve/view_service.h"
#include "test_util.h"

namespace gvex {
namespace {

Configuration PipelineConfig() {
  Configuration c;
  c.theta = 0.05f;
  c.r = 0.3f;
  c.gamma = 0.5f;
  c.default_bound = {2, 8};
  c.verify_mode = VerifyMode::kConsistentOnly;
  c.miner.max_pattern_nodes = 3;
  return c;
}

TEST(EndToEndTest, FullPipelineOnMutagenicity) {
  const auto& fx = testing::GetTrainedFixture();
  Configuration config = PipelineConfig();

  // 1. Views for both labels with both algorithms.
  ApproxGvex approx(&fx.model, config);
  StreamGvex stream(&fx.model, config);
  auto ag_views = approx.GenerateViews(fx.db, {0, 1});
  ASSERT_TRUE(ag_views.ok());
  auto sg_view = stream.GenerateView(fx.db, 1);
  ASSERT_TRUE(sg_view.ok());

  // 2. Metrics behave like the paper's qualitative claims.
  for (const auto& view : ag_views.value()) {
    EXPECT_GT(Sparsity(fx.db, view.subgraphs), 0.3) << view.Summary();
    EXPECT_GT(Compression(view), 0.0) << view.Summary();
    EXPECT_LE(EdgeLoss(view), 1.0);
  }
  const double ag_fid = FidelityPlus(fx.model, fx.db,
                                     ag_views.value()[1].subgraphs);
  const double sg_fid =
      FidelityPlus(fx.model, fx.db, sg_view.value().subgraphs);
  EXPECT_GT(ag_fid, 0.0);
  EXPECT_GT(sg_fid, 0.0);

  // 3. Views are queryable.
  ViewService service(&fx.db);
  ASSERT_TRUE(service.AdmitViews(ag_views.value()).ok());
  EXPECT_EQ(service.Labels().size(), 2u);
  for (int label : service.Labels()) {
    EXPECT_FALSE(service.PatternsForLabel(label).empty());
  }
}

TEST(EndToEndTest, TrainThenExplainOnEnzymesMultiClass) {
  DatasetScale scale;
  scale.num_graphs = 36;
  GraphDatabase db = MakeDataset(DatasetId::kEnzymes, scale);
  // Hold out every fifth graph; train on the other 80%.
  std::vector<int> train;
  for (int i = 0; i < db.size(); ++i) {
    if (i % 5 != 4) train.push_back(i);
  }

  GcnConfig cfg;
  cfg.input_dim = SpecFor(DatasetId::kEnzymes).feature_dim;
  cfg.hidden_dim = 16;
  cfg.num_classes = SpecFor(DatasetId::kEnzymes).num_classes;
  Rng rng(17);
  GcnModel model(cfg, &rng);
  TrainConfig tc;
  tc.epochs = 60;
  auto report = TrainGcn(&model, db, train, tc);
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(AssignPredictedLabels(model, &db).ok());

  Configuration config = PipelineConfig();
  config.verify_mode = VerifyMode::kRelaxed;  // multi-class is harder
  ApproxGvex algo(&model, config);
  int produced = 0;
  for (int label : db.DistinctLabels()) {
    auto view = algo.GenerateView(db, label);
    if (view.ok()) {
      ++produced;
      EXPECT_FALSE(view.value().patterns.empty());
    }
  }
  EXPECT_GT(produced, 0);
}

TEST(EndToEndTest, ModelRoundTripPreservesExplanations) {
  const auto& fx = testing::GetTrainedFixture();
  auto reparsed = ParseModel(SerializeModel(fx.model));
  ASSERT_TRUE(reparsed.ok());
  Configuration config = PipelineConfig();
  ApproxGvex algo_a(&fx.model, config);
  ApproxGvex algo_b(&reparsed.value(), config);
  const int gi = fx.db.LabelGroup(1)[0];
  auto ex_a = algo_a.ExplainGraph(fx.db.graph(gi), gi, 1);
  auto ex_b = algo_b.ExplainGraph(fx.db.graph(gi), gi, 1);
  ASSERT_TRUE(ex_a.ok());
  ASSERT_TRUE(ex_b.ok());
  EXPECT_EQ(ex_a.value().nodes, ex_b.value().nodes);
}

TEST(EndToEndTest, ConfigurableCoverageChangesExplanationSize) {
  // The "configurable" property of Table 1: different [b_l, u_l] per label
  // yield different explanation sizes.
  const auto& fx = testing::GetTrainedFixture();
  Configuration config = PipelineConfig();
  config.coverage[1] = {2, 4};
  config.coverage[0] = {2, 10};
  ApproxGvex algo(&fx.model, config);
  auto view1 = algo.GenerateView(fx.db, 1);
  auto view0 = algo.GenerateView(fx.db, 0);
  ASSERT_TRUE(view1.ok());
  ASSERT_TRUE(view0.ok());
  for (const auto& s : view1.value().subgraphs) {
    EXPECT_LE(static_cast<int>(s.nodes.size()), 4);
  }
  int max0 = 0;
  for (const auto& s : view0.value().subgraphs) {
    max0 = std::max(max0, static_cast<int>(s.nodes.size()));
  }
  EXPECT_GT(max0, 4);  // the looser budget is actually used
}

TEST(EndToEndTest, StreamingAnytimeImprovesWithFraction) {
  const auto& fx = testing::GetTrainedFixture();
  StreamGvex stream(&fx.model, PipelineConfig());
  auto quarter = stream.GenerateViewPartial(fx.db, 1, 0.25);
  auto full = stream.GenerateViewPartial(fx.db, 1, 1.0);
  ASSERT_TRUE(quarter.ok());
  ASSERT_TRUE(full.ok());
  // More of the stream seen => at least as many feasible subgraphs.
  EXPECT_GE(full.value().subgraphs.size(),
            quarter.value().subgraphs.size());
}

}  // namespace
}  // namespace gvex
