#include "data/datasets.h"

#include <gtest/gtest.h>

#include "data/motifs.h"
#include "graph/connectivity.h"
#include "pattern/matcher.h"

namespace gvex {
namespace {

TEST(DatasetRegistryTest, SevenDatasetsRegistered) {
  EXPECT_EQ(AllDatasets().size(), 7u);
}

TEST(DatasetRegistryTest, AbbrevLookup) {
  auto id = DatasetFromAbbrev("MUT");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(id.value(), DatasetId::kMutagenicity);
  EXPECT_FALSE(DatasetFromAbbrev("XXX").ok());
}

TEST(DatasetRegistryTest, SpecMetadataMatchesTable3) {
  EXPECT_EQ(SpecFor(DatasetId::kMutagenicity).num_classes, 2);
  EXPECT_EQ(SpecFor(DatasetId::kMutagenicity).feature_dim, 14);
  EXPECT_EQ(SpecFor(DatasetId::kEnzymes).num_classes, 6);
  EXPECT_EQ(SpecFor(DatasetId::kEnzymes).feature_dim, 3);
  EXPECT_EQ(SpecFor(DatasetId::kMalnet).num_classes, 5);
  EXPECT_EQ(SpecFor(DatasetId::kPcqm).feature_dim, 9);
  EXPECT_EQ(SpecFor(DatasetId::kReddit).num_classes, 2);
}

// Parameterized conformance over all datasets.
class DatasetConformanceTest : public ::testing::TestWithParam<int> {};

TEST_P(DatasetConformanceTest, GeneratesValidLabeledGraphs) {
  const DatasetSpec& spec =
      AllDatasets()[static_cast<size_t>(GetParam())];
  DatasetScale scale;
  scale.num_graphs = 12;
  GraphDatabase db = MakeDataset(spec.id, scale);
  ASSERT_EQ(db.size(), 12);
  for (int i = 0; i < db.size(); ++i) {
    const Graph& g = db.graph(i);
    EXPECT_GT(g.num_nodes(), 0) << spec.abbrev;
    EXPECT_GT(g.num_edges(), 0) << spec.abbrev;
    EXPECT_TRUE(g.has_features()) << spec.abbrev;
    EXPECT_EQ(g.feature_dim(), spec.feature_dim) << spec.abbrev;
    EXPECT_GE(db.true_label(i), 0);
    EXPECT_LT(db.true_label(i), spec.num_classes);
  }
  // All classes present in a round-robin generation of 12.
  auto labels = db.DistinctLabels();
  EXPECT_EQ(static_cast<int>(labels.size()),
            std::min(12, spec.num_classes));
}

TEST_P(DatasetConformanceTest, DeterministicForSameSeed) {
  const DatasetSpec& spec =
      AllDatasets()[static_cast<size_t>(GetParam())];
  DatasetScale scale;
  scale.num_graphs = 4;
  scale.seed = 12345;
  GraphDatabase a = MakeDataset(spec.id, scale);
  GraphDatabase b = MakeDataset(spec.id, scale);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.graph(i).num_nodes(), b.graph(i).num_nodes());
    EXPECT_EQ(a.graph(i).num_edges(), b.graph(i).num_edges());
    EXPECT_EQ(a.true_label(i), b.true_label(i));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetConformanceTest,
                         ::testing::Range(0, 7));

TEST(MutagenicityTest, NitroPlantedOnlyInMutagens) {
  DatasetScale scale;
  scale.num_graphs = 20;
  GraphDatabase db = MakeDataset(DatasetId::kMutagenicity, scale);
  Graph nitro;
  NodeId n = nitro.AddNode(kNitrogen);
  NodeId o1 = nitro.AddNode(kOxygen);
  NodeId o2 = nitro.AddNode(kOxygen);
  (void)nitro.AddEdge(n, o1);
  (void)nitro.AddEdge(n, o2);
  MatchOptions opt;
  opt.semantics = MatchSemantics::kNonInduced;
  for (int i = 0; i < db.size(); ++i) {
    const bool has_nitro = ContainsPattern(db.graph(i), nitro, opt);
    EXPECT_EQ(has_nitro, db.true_label(i) == 1) << "graph " << i;
  }
}

TEST(MalnetTest, GraphsAreDirected) {
  DatasetScale scale;
  scale.num_graphs = 5;
  GraphDatabase db = MakeDataset(DatasetId::kMalnet, scale);
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_TRUE(db.graph(i).directed());
  }
}

TEST(RedditTest, ThreadsAreUndirectedAndConnectedEnough) {
  DatasetScale scale;
  scale.num_graphs = 6;
  GraphDatabase db = MakeDataset(DatasetId::kReddit, scale);
  for (int i = 0; i < db.size(); ++i) {
    EXPECT_FALSE(db.graph(i).directed());
    // Background attachment links every new user to an existing one.
    EXPECT_TRUE(IsConnected(db.graph(i))) << "thread " << i;
  }
}

}  // namespace
}  // namespace gvex
