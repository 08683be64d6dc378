// Oracle suite for the exact-Jacobian influence kernel: every I1 and I2
// float NodeInfluence computes in kExactJacobian mode must be bit-equal
// (memcmp, not a tolerance) to the dense reference propagation in
// influence_reference.h. Covered: every graph of the default MUT database
// under the gvex_cli model, plus the shapes where the mask-aware kernel
// skips work — empty and one-node graphs, an isolated node, nodes beyond
// k hops of the source, and a node whose ReLU rows are all dead.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "gnn/influence.h"
#include "gnn/influence_reference.h"
#include "gnn/trainer.h"
#include "test_util.h"

namespace gvex {
namespace {

// Bitwise equality of two float matrices; names the first differing entry.
::testing::AssertionResult BitEqual(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  if (got.size() == 0 ||
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (int r = 0; r < got.rows(); ++r) {
    for (int c = 0; c < got.cols(); ++c) {
      if (std::memcmp(&got.row(r)[c], &want.row(r)[c], sizeof(float)) != 0) {
        return ::testing::AssertionFailure()
               << "entry (" << r << ", " << c << "): " << got.at(r, c)
               << " vs reference " << want.at(r, c);
      }
    }
  }
  return ::testing::AssertionFailure() << "unreachable";
}

Matrix I1Matrix(const NodeInfluence& inf) {
  const int n = inf.num_nodes();
  Matrix out(n, n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u = 0; u < n; ++u) out.at(v, u) = inf.I1(v, u);
  }
  return out;
}

// Runs both kernels on `g`; returns the kernel's I1 for further checks.
Matrix ExpectMatchesReference(const GcnModel& model, const Graph& g,
                              const std::string& what) {
  const NodeInfluence inf =
      NodeInfluence::Compute(model, g, InfluenceMode::kExactJacobian);
  EXPECT_EQ(inf.mode_used(), InfluenceMode::kExactJacobian) << what;
  const Matrix ref_i1 = testing::ReferenceExactI1(model, g);
  const Matrix i1 = I1Matrix(inf);
  EXPECT_TRUE(BitEqual(i1, ref_i1)) << what << ": I1";
  EXPECT_TRUE(BitEqual(inf.i2_matrix(), testing::ReferenceI2(ref_i1)))
      << what << ": I2";
  return i1;
}

GcnModel UntrainedModel(int input_dim, int num_layers, uint64_t seed) {
  GcnConfig cfg;
  cfg.input_dim = input_dim;
  cfg.hidden_dim = 8;
  cfg.num_layers = num_layers;
  cfg.num_classes = 2;
  Rng rng(seed);
  return GcnModel(cfg, &rng);
}

// The default MUT database and the model gvex_cli trains on it (3-layer
// GCN, 32 hidden, seed 7, 100 epochs), built once per binary.
struct MutFixture {
  GraphDatabase db;
  GcnModel model;
};

const MutFixture& DefaultMut() {
  static MutFixture* fixture = [] {
    auto* f = new MutFixture();
    DatasetScale scale;
    scale.num_graphs = 120;
    f->db = MakeDataset(DatasetId::kMutagenicity, scale);
    const DatasetSpec& spec = SpecFor(DatasetId::kMutagenicity);
    GcnConfig cfg;
    cfg.input_dim = spec.feature_dim;
    cfg.hidden_dim = 32;
    cfg.num_layers = 3;
    cfg.num_classes = spec.num_classes;
    Rng rng(7);
    f->model = GcnModel(cfg, &rng);
    std::vector<int> all(static_cast<size_t>(f->db.size()));
    std::iota(all.begin(), all.end(), 0);
    TrainConfig tc;
    tc.epochs = 100;
    (void)TrainGcn(&f->model, f->db, all, tc);
    return f;
  }();
  return *fixture;
}

TEST(InfluenceOracleTest, EveryDefaultMutGraphIsBitIdentical) {
  const MutFixture& mut = DefaultMut();
  ASSERT_EQ(mut.db.size(), 120);
  int dead_rows = 0;
  for (int gi = 0; gi < mut.db.size(); ++gi) {
    const Graph& g = mut.db.graph(gi);
    ExpectMatchesReference(mut.model, g, "graph " + std::to_string(gi));
    const GcnModel::Trace trace = mut.model.Forward(g);
    for (const GcnLayer::Cache& c : trace.caches) {
      for (size_t i = 0; i < c.relu_mask.size(); ++i) {
        dead_rows += c.relu_mask.data()[i] == 0.0f ? 1 : 0;
      }
    }
  }
  // The trained model must actually exercise the masked skips.
  EXPECT_GT(dead_rows, 0);
}

TEST(InfluenceOracleTest, EmptyAndSingleNodeGraphs) {
  GcnModel model = UntrainedModel(2, 3, 11);
  Graph empty;
  EXPECT_EQ(ExpectMatchesReference(model, empty, "n=0").rows(), 0);

  Graph one;
  one.AddNode(1);
  ASSERT_TRUE(one.SetOneHotFeaturesFromTypes(2).ok());
  ExpectMatchesReference(model, one, "n=1");
}

TEST(InfluenceOracleTest, IsolatedNodeInfluencesOnlyItself) {
  Graph g = testing::TriangleWithTail();
  const NodeId lone = g.AddNode(1);
  ASSERT_TRUE(g.SetOneHotFeaturesFromTypes(2).ok());
  GcnModel model = UntrainedModel(2, 3, 13);
  const Matrix i1 = ExpectMatchesReference(model, g, "isolated node");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == lone) continue;
    EXPECT_EQ(i1.at(v, lone), 0.0f);
    EXPECT_EQ(i1.at(lone, v), 0.0f);
  }
}

TEST(InfluenceOracleTest, NodesBeyondKHopsGetZero) {
  // On a 10-node path a 3-layer model reaches 3 hops from each source.
  Graph g = testing::PathGraph(10, /*type=*/0, /*feature_dim=*/3);
  GcnModel model = UntrainedModel(3, 3, 17);
  const Matrix i1 = ExpectMatchesReference(model, g, "path");
  for (NodeId v = 4; v < g.num_nodes(); ++v) EXPECT_EQ(i1.at(v, 0), 0.0f);
}

TEST(InfluenceOracleTest, NodeWithAllReluRowsDead) {
  // Layer 0 maps type-0 features to negative pre-activations and type-1
  // features to positive ones. Tail node 4 and its only neighbour 3 are
  // type 0, so every layer-0 row of node 4 is dead.
  Graph g = testing::TriangleWithTail();
  GcnModel model = UntrainedModel(2, 3, 19);
  Matrix* w0 = model.MutableParams()[0];
  for (int c = 0; c < w0->cols(); ++c) {
    w0->at(0, c) = -std::fabs(w0->at(0, c)) - 0.1f;
    w0->at(1, c) = std::fabs(w0->at(1, c)) + 0.1f;
  }
  const GcnModel::Trace trace = model.Forward(g);
  const Matrix& mask0 = trace.caches[0].relu_mask;
  for (int r = 0; r < mask0.cols(); ++r) ASSERT_EQ(mask0.at(4, r), 0.0f);
  const Matrix i1 = ExpectMatchesReference(model, g, "dead node");
  double total = 0.0;
  for (size_t i = 0; i < i1.size(); ++i) total += i1.data()[i];
  EXPECT_GT(total, 0.0);  // the rest of the graph still carries influence
}

}  // namespace
}  // namespace gvex
