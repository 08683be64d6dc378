#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/gcf_explainer.h"
#include "baselines/gnn_explainer.h"
#include "baselines/gstarx.h"
#include "baselines/random_explainer.h"
#include "baselines/subgraphx.h"
#include "explain/metrics.h"
#include "test_util.h"

namespace gvex {
namespace {

// Shared conformance suite: every baseline must produce bounded, valid
// explanation subgraphs on the trained fixture.
class BaselineConformanceTest
    : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<Explainer> MakeExplainer(const std::string& name) {
    const auto& fx = testing::GetTrainedFixture();
    if (name == "Random") {
      return std::make_unique<RandomExplainer>(&fx.model);
    }
    if (name == "GNNExplainer") {
      GnnExplainerOptions opt;
      opt.epochs = 30;
      return std::make_unique<GnnExplainer>(&fx.model, opt);
    }
    if (name == "SubgraphX") {
      SubgraphXOptions opt;
      opt.mcts_iterations = 5;
      opt.shapley_samples = 4;
      return std::make_unique<SubgraphX>(&fx.model, opt);
    }
    if (name == "GStarX") {
      GStarXOptions opt;
      opt.coalition_samples = 10;
      return std::make_unique<GStarX>(&fx.model, opt);
    }
    GcfExplainerOptions opt;
    return std::make_unique<GcfExplainer>(&fx.model, opt);
  }
};

TEST_P(BaselineConformanceTest, ProducesBoundedValidSubgraph) {
  const auto& fx = testing::GetTrainedFixture();
  auto explainer = MakeExplainer(GetParam());
  EXPECT_EQ(explainer->name(), GetParam());
  const int gi = fx.db.LabelGroup(1)[0];
  const Graph& g = fx.db.graph(gi);
  auto ex = explainer->Explain(g, gi, 1, /*max_nodes=*/6);
  ASSERT_TRUE(ex.ok()) << ex.status().ToString();
  EXPECT_GE(static_cast<int>(ex.value().nodes.size()), 1);
  EXPECT_LE(static_cast<int>(ex.value().nodes.size()), 6);
  EXPECT_EQ(ex.value().graph_index, gi);
  EXPECT_EQ(ex.value().subgraph.num_nodes(),
            static_cast<int>(ex.value().nodes.size()));
  for (NodeId v : ex.value().nodes) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, g.num_nodes());
  }
}

TEST_P(BaselineConformanceTest, RejectsEmptyGraph) {
  auto explainer = MakeExplainer(GetParam());
  Graph empty;
  EXPECT_FALSE(explainer->Explain(empty, 0, 1, 5).ok());
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineConformanceTest,
                         ::testing::Values("Random", "GNNExplainer",
                                           "SubgraphX", "GStarX",
                                           "GCFExplainer"));

TEST(GnnExplainerTest, MaskConvergesTowardExtremes) {
  const auto& fx = testing::GetTrainedFixture();
  GnnExplainerOptions opt;
  opt.epochs = 60;
  GnnExplainer ge(&fx.model, opt);
  const int gi = fx.db.LabelGroup(1)[0];
  auto ex = ge.Explain(fx.db.graph(gi), gi, 1, 6);
  ASSERT_TRUE(ex.ok());
  const auto& mask = ge.last_mask();
  ASSERT_EQ(mask.size(), static_cast<size_t>(fx.db.graph(gi).num_edges()));
  for (float m : mask) {
    EXPECT_GE(m, 0.0f);
    EXPECT_LE(m, 1.0f);
  }
}

// The learned mask is pinned bit for bit: FNV-1a over the bytes of
// last_mask() after five epochs on two fixture graphs, recorded from the
// build that rebuilt the base coefficients on every epoch.
TEST(GnnExplainerTest, MaskBitsArePinned) {
  const auto& fx = testing::GetTrainedFixture();
  GnnExplainerOptions opt;
  opt.epochs = 5;
  GnnExplainer ge(&fx.model, opt);
  std::vector<uint64_t> hashes;
  for (int label : {0, 1}) {
    const int gi = fx.db.LabelGroup(label)[0];
    ASSERT_TRUE(ge.Explain(fx.db.graph(gi), gi, label, 6).ok());
    const std::vector<float>& mask = ge.last_mask();
    ASSERT_EQ(mask.size(), static_cast<size_t>(fx.db.graph(gi).num_edges()));
    uint64_t h = 14695981039346656037ull;
    const auto* bytes = reinterpret_cast<const unsigned char*>(mask.data());
    for (size_t i = 0; i < mask.size() * sizeof(float); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ull;
    }
    hashes.push_back(h);
  }
  EXPECT_EQ(hashes, (std::vector<uint64_t>{15788287808474347651ull,
                                           2653967174985165644ull}));
}

TEST(GcfExplainerTest, DeletionSetIsCounterfactualWhenFlipFound) {
  const auto& fx = testing::GetTrainedFixture();
  GcfExplainer gcf(&fx.model);
  const int gi = fx.db.LabelGroup(1)[0];
  auto ex = gcf.Explain(fx.db.graph(gi), gi, 1, 12);
  ASSERT_TRUE(ex.ok());
  // GCF greedily removes until the label flips; when it reports
  // counterfactual, re-verification must agree (AnnotateVerification ran).
  if (ex.value().counterfactual) {
    SUCCEED();
  } else {
    // Budget may have been exhausted before flipping — legal.
    EXPECT_LE(static_cast<int>(ex.value().nodes.size()), 12);
  }
}

TEST(BaselineQualityTest, GvexStyleSelectionBeatsRandomOnFidelity) {
  // Sanity separation: informed explainers should beat the random floor on
  // Fidelity+ on average over the mutagen group.
  const auto& fx = testing::GetTrainedFixture();
  RandomExplainer random(&fx.model);
  GcfExplainer gcf(&fx.model);
  std::vector<ExplanationSubgraph> rand_group;
  std::vector<ExplanationSubgraph> gcf_group;
  for (int gi : fx.db.LabelGroup(1)) {
    auto r = random.Explain(fx.db.graph(gi), gi, 1, 6);
    auto c = gcf.Explain(fx.db.graph(gi), gi, 1, 6);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(c.ok());
    rand_group.push_back(std::move(r).value());
    gcf_group.push_back(std::move(c).value());
  }
  const double rand_fid = FidelityPlus(fx.model, fx.db, rand_group);
  const double gcf_fid = FidelityPlus(fx.model, fx.db, gcf_group);
  EXPECT_GT(gcf_fid, rand_fid - 0.05);
}

}  // namespace
}  // namespace gvex
