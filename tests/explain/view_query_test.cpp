// The Table 1 queries of §1 ("which toxicophores occur in mutagens?"),
// answered by the view store — a ViewService holding views generated on the
// trained fixture.

#include <gtest/gtest.h>

#include "data/motifs.h"
#include "explain/approx_gvex.h"
#include "serve/view_service.h"
#include "test_util.h"

namespace gvex {
namespace {

Pattern NitroPattern() {
  // N bonded to two O — the toxicophore of Example 1.1.
  Graph g;
  NodeId n = g.AddNode(kNitrogen);
  NodeId o1 = g.AddNode(kOxygen);
  NodeId o2 = g.AddNode(kOxygen);
  (void)g.AddEdge(n, o1);
  (void)g.AddEdge(n, o2);
  return std::move(Pattern::Create(std::move(g))).value();
}

class ViewStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto& fx = testing::GetTrainedFixture();
    Configuration c;
    c.theta = 0.05f;
    c.r = 0.3f;
    c.default_bound = {2, 8};
    c.miner.max_pattern_nodes = 3;
    ApproxGvex algo(&fx.model, c);
    store_ = std::make_unique<ViewService>(&fx.db);
    std::vector<ExplanationView> views;
    for (int label : {0, 1}) {
      auto view = algo.GenerateView(fx.db, label);
      ASSERT_TRUE(view.ok());
      views.push_back(std::move(view).value());
    }
    ASSERT_TRUE(store_->AdmitViews(std::move(views)).ok());
  }

  std::unique_ptr<ViewService> store_;
};

TEST_F(ViewStoreTest, LabelsRegistered) {
  EXPECT_EQ(store_->Labels(), (std::vector<int>{0, 1}));
}

TEST_F(ViewStoreTest, PatternsForLabelNonEmpty) {
  EXPECT_FALSE(store_->PatternsForLabel(0).empty());
  EXPECT_FALSE(store_->PatternsForLabel(1).empty());
  EXPECT_TRUE(store_->PatternsForLabel(7).empty());
}

TEST_F(ViewStoreTest, WhichToxicophoresOccurInMutagens) {
  // The motivating query: the nitro pattern should occur in the mutagen
  // label group's database graphs.
  auto graphs = store_->DatabaseGraphsWithPattern(NitroPattern(), 1);
  EXPECT_FALSE(graphs.empty());
  // And in none of the nonmutagens (generator plants nitro only in class 1).
  auto nonmut = store_->DatabaseGraphsWithPattern(NitroPattern(), 0);
  EXPECT_TRUE(nonmut.empty());
}

TEST_F(ViewStoreTest, GraphsWithPatternReturnsGroupMembers) {
  const auto& fx = testing::GetTrainedFixture();
  for (const Pattern& p : store_->PatternsForLabel(1)) {
    auto graphs = store_->GraphsWithPattern(1, p);
    for (int gi : graphs) {
      EXPECT_EQ(fx.db.predicted_label(gi), 1);
    }
  }
}

TEST_F(ViewStoreTest, LabelsOfPatternFindsOwnPatterns) {
  const auto patterns = store_->PatternsForLabel(1);
  ASSERT_FALSE(patterns.empty());
  auto labels = store_->LabelsOfPattern(patterns[0]);
  EXPECT_NE(std::find(labels.begin(), labels.end(), 1), labels.end());
}

TEST_F(ViewStoreTest, DiscriminativePatternsExcludeSharedStructures) {
  auto disc = store_->DiscriminativePatterns(1);
  // Every discriminative pattern must not match any label-0 subgraph.
  for (const Pattern& p : disc) {
    EXPECT_TRUE(store_->GraphsWithPattern(0, p).empty());
  }
}

TEST(ViewStoreStandaloneTest, EmptyStoreBehaves) {
  GraphDatabase db;
  ViewService store(&db);
  EXPECT_TRUE(store.Labels().empty());
  EXPECT_TRUE(store.LabelsOfPattern(NitroPattern()).empty());
  EXPECT_TRUE(store.DatabaseGraphsWithPattern(NitroPattern()).empty());
  EXPECT_TRUE(store.DiscriminativePatterns(0).empty());
}

}  // namespace
}  // namespace gvex
