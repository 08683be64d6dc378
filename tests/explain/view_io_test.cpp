#include "explain/view_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "explain/approx_gvex.h"
#include "test_util.h"

namespace gvex {
namespace {

ExplanationView MakeRealView() {
  const auto& fx = testing::GetTrainedFixture();
  Configuration c;
  c.theta = 0.05f;
  c.r = 0.3f;
  c.default_bound = {2, 6};
  c.miner.max_pattern_nodes = 3;
  ApproxGvex algo(&fx.model, c);
  auto view = algo.GenerateView(fx.db, 1);
  EXPECT_TRUE(view.ok());
  return std::move(view).value();
}

TEST(ViewIoTest, RoundTripPreservesStructure) {
  ExplanationView view = MakeRealView();
  auto parsed = ParseViews(SerializeView(view));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  const ExplanationView& back = parsed.value()[0];
  EXPECT_EQ(back.label, view.label);
  EXPECT_NEAR(back.explainability, view.explainability, 1e-6);
  ASSERT_EQ(back.patterns.size(), view.patterns.size());
  for (size_t i = 0; i < view.patterns.size(); ++i) {
    EXPECT_TRUE(back.patterns[i].IsomorphicTo(view.patterns[i]));
  }
  ASSERT_EQ(back.subgraphs.size(), view.subgraphs.size());
  for (size_t i = 0; i < view.subgraphs.size(); ++i) {
    EXPECT_EQ(back.subgraphs[i].graph_index, view.subgraphs[i].graph_index);
    EXPECT_EQ(back.subgraphs[i].nodes, view.subgraphs[i].nodes);
    EXPECT_EQ(back.subgraphs[i].consistent, view.subgraphs[i].consistent);
    EXPECT_EQ(back.subgraphs[i].counterfactual,
              view.subgraphs[i].counterfactual);
    EXPECT_EQ(back.subgraphs[i].subgraph.num_nodes(),
              view.subgraphs[i].subgraph.num_nodes());
    EXPECT_EQ(back.subgraphs[i].subgraph.num_edges(),
              view.subgraphs[i].subgraph.num_edges());
  }
}

TEST(ViewIoTest, MultipleViewsInOneText) {
  ExplanationView view = MakeRealView();
  std::string text = SerializeView(view) + SerializeView(view);
  auto parsed = ParseViews(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().size(), 2u);
}

TEST(ViewIoTest, FileRoundTrip) {
  ExplanationView view = MakeRealView();
  const std::string path = ::testing::TempDir() + "/gvex_views.txt";
  ASSERT_TRUE(SaveViews(path, {view}).ok());
  auto loaded = LoadViews(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 1u);
  EXPECT_EQ(loaded.value()[0].label, view.label);
  std::remove(path.c_str());
}

TEST(ViewIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseViews("garbage\n").ok());
  EXPECT_FALSE(ParseViews("view 1 0.5 1 0\npattern\n").ok());  // truncated
  ExplanationView view = MakeRealView();
  std::string text = SerializeView(view);
  text.resize(text.size() / 2);
  EXPECT_FALSE(ParseViews(text).ok());
}

TEST(ViewIoTest, EmptyTextGivesNoViews) {
  auto parsed = ParseViews("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value().empty());
}

TEST(ViewIoTest, MissingFileFails) {
  EXPECT_TRUE(LoadViews("/no/such/views.txt").status().IsIOError());
}

// The binary entry points (implemented by the store module) sit next to
// the text ones and preserve MORE: doubles round-trip bit-exactly instead
// of through "%.9g".
TEST(ViewIoTest, BinaryRoundTripIsBitExact) {
  ExplanationView view = MakeRealView();
  auto parsed = ParseViewsBinary(SerializeViewsBinary({view}));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 1u);
  const ExplanationView& back = parsed.value()[0];
  EXPECT_EQ(back.label, view.label);
  EXPECT_EQ(back.explainability, view.explainability);  // exact, not NEAR
  ASSERT_EQ(back.patterns.size(), view.patterns.size());
  for (size_t i = 0; i < view.patterns.size(); ++i) {
    EXPECT_TRUE(back.patterns[i].IsomorphicTo(view.patterns[i]));
  }
  ASSERT_EQ(back.subgraphs.size(), view.subgraphs.size());
  for (size_t i = 0; i < view.subgraphs.size(); ++i) {
    EXPECT_EQ(back.subgraphs[i].nodes, view.subgraphs[i].nodes);
    EXPECT_EQ(back.subgraphs[i].explainability,
              view.subgraphs[i].explainability);
  }
  // Text and binary describe the same view.
  EXPECT_EQ(SerializeView(back), SerializeView(view));
}

TEST(ViewIoTest, BinaryFileRoundTripAndCorruptionRejection) {
  ExplanationView view = MakeRealView();
  const std::string path = ::testing::TempDir() + "/gvex_views.gvxv";
  ASSERT_TRUE(SaveViewsBinary(path, {view}).ok());
  auto loaded = LoadViewsBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 1u);
  std::remove(path.c_str());

  std::string bytes = SerializeViewsBinary({view});
  bytes.resize(bytes.size() / 2);  // truncation never partially loads
  EXPECT_FALSE(ParseViewsBinary(bytes).ok());
  EXPECT_TRUE(LoadViewsBinary("/no/such/views.gvxv").status().IsIOError());
}

// Both serving hosts load --views through one loader that sniffs the
// format: the same views saved as text and as binary load equal.
TEST(ViewIoTest, AnyFormatLoaderReadsTextAndBinaryAlike) {
  const std::vector<ExplanationView> views = {MakeRealView()};
  const std::string text_path = ::testing::TempDir() + "/gvex_any_views.txt";
  const std::string binary_path =
      ::testing::TempDir() + "/gvex_any_views.gvxv";
  ASSERT_TRUE(SaveViews(text_path, views).ok());
  ASSERT_TRUE(SaveViewsBinary(binary_path, views).ok());
  auto text = LoadViewsAnyFormat(text_path);
  auto binary = LoadViewsAnyFormat(binary_path);
  std::remove(text_path.c_str());
  std::remove(binary_path.c_str());
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  ASSERT_EQ(text.value().size(), 1u);
  ASSERT_EQ(binary.value().size(), 1u);
  EXPECT_EQ(SerializeView(text.value()[0]), SerializeView(binary.value()[0]));
  EXPECT_EQ(SerializeView(binary.value()[0]), SerializeView(views[0]));
  EXPECT_TRUE(
      LoadViewsAnyFormat("/no/such/views.txt").status().IsIOError());
}

// Regression: malformed numerics in view blocks used to throw out of
// std::stoi/std::stod and crash; they must be parse errors.
TEST(ViewIoTest, MalformedNumericsAreErrorsNotCrashes) {
  EXPECT_FALSE(ParseViews("view abc 0.5 0 0\nendview\n").ok());   // label
  EXPECT_FALSE(ParseViews("view 0 1e 0 0\nendview\n").ok());      // explain.
  EXPECT_FALSE(ParseViews("view 0 0.5 x 0\nendview\n").ok());     // counts
  EXPECT_FALSE(ParseViews("view 0 0.5 0 -1\nendview\n").ok());    // negative
  EXPECT_FALSE(
      ParseViews("view 0 0.5 0 1\nsubgraph zero 0.5 1 0\nnodes 0\n"
                 "endview\n")
          .ok());                                                // subgraph
  EXPECT_FALSE(
      ParseViews("view 0 0.5 0 1\nsubgraph 0 1 0 0.5\nnodes 0 nope\n"
                 "endview\n")
          .ok());                                                // node id
}

}  // namespace
}  // namespace gvex
