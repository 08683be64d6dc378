#include "graph/graph_database.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace gvex {
namespace {

GraphDatabase MakeDb() {
  GraphDatabase db;
  db.Add(testing::PathGraph(3), 0);
  db.Add(testing::PathGraph(4), 1);
  db.Add(testing::PathGraph(5), 1);
  return db;
}

TEST(GraphDatabaseTest, AddAndAccess) {
  GraphDatabase db = MakeDb();
  EXPECT_EQ(db.size(), 3);
  EXPECT_EQ(db.graph(1).num_nodes(), 4);
  EXPECT_EQ(db.true_label(2), 1);
}

TEST(GraphDatabaseTest, LabelGroupUsesTrueLabelsWithoutPredictions) {
  GraphDatabase db = MakeDb();
  EXPECT_FALSE(db.has_predictions());
  EXPECT_EQ(db.LabelGroup(1), (std::vector<int>{1, 2}));
  EXPECT_EQ(db.LabelGroup(0), (std::vector<int>{0}));
  EXPECT_TRUE(db.LabelGroup(9).empty());
}

TEST(GraphDatabaseTest, PredictionsOverrideGrouping) {
  GraphDatabase db = MakeDb();
  ASSERT_TRUE(db.SetPredictedLabels({1, 1, 0}).ok());
  EXPECT_TRUE(db.has_predictions());
  EXPECT_EQ(db.LabelGroup(1), (std::vector<int>{0, 1}));
  EXPECT_EQ(db.predicted_label(2), 0);
}

TEST(GraphDatabaseTest, SetPredictedLabelsValidatesSize) {
  GraphDatabase db = MakeDb();
  EXPECT_TRUE(db.SetPredictedLabels({0}).IsInvalidArgument());
}

TEST(GraphDatabaseTest, DistinctLabelsSorted) {
  GraphDatabase db = MakeDb();
  EXPECT_EQ(db.DistinctLabels(), (std::vector<int>{0, 1}));
}

TEST(GraphDatabaseTest, StatsComputeAverages) {
  GraphDatabase db = MakeDb();
  auto stats = db.ComputeStats();
  EXPECT_EQ(stats.num_graphs, 3);
  EXPECT_NEAR(stats.avg_nodes, 4.0, 1e-9);
  EXPECT_NEAR(stats.avg_edges, 3.0, 1e-9);
  EXPECT_EQ(stats.num_classes, 2);
  EXPECT_EQ(stats.feature_dim, 1);
}

TEST(GraphDatabaseTest, EmptyStats) {
  GraphDatabase db;
  auto stats = db.ComputeStats();
  EXPECT_EQ(stats.num_graphs, 0);
  EXPECT_EQ(stats.num_classes, 0);
}

}  // namespace
}  // namespace gvex
