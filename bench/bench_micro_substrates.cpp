// Micro-benchmarks of the substrates (google-benchmark): dense GEMM, sparse
// propagation, GCN inference, exact-Jacobian influence, VF2 matching,
// canonical codes, and pattern mining.

#include <benchmark/benchmark.h>

#include "data/mutagenicity.h"
#include "gnn/influence.h"
#include "gnn/gcn_model.h"
#include "la/matrix_ops.h"
#include "pattern/canonical.h"
#include "pattern/matcher.h"
#include "pattern/miner.h"
#include "util/rng.h"

namespace gvex {
namespace {

Matrix RandomMatrix(int rows, int cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m.at(i, j) = rng.NextFloat(-1.0f, 1.0f);
  }
  return m;
}

const GraphDatabase& BenchDb() {
  static const GraphDatabase* db = [] {
    MutagenicityOptions opt;
    opt.num_graphs = 16;
    return new GraphDatabase(GenerateMutagenicity(opt));
  }();
  return *db;
}

const GcnModel& BenchModel() {
  static const GcnModel* model = [] {
    GcnConfig cfg;
    cfg.input_dim = 14;
    cfg.hidden_dim = 64;
    cfg.num_classes = 2;
    Rng rng(3);
    return new GcnModel(cfg, &rng);
  }();
  return *model;
}

void BM_DenseGemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Matrix a = RandomMatrix(n, n, 1);
  Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
}
BENCHMARK(BM_DenseGemm)->Arg(32)->Arg(64)->Arg(128);

void BM_SparsePropagation(benchmark::State& state) {
  const Graph& g = BenchDb().graph(0);
  SparseMatrix s = g.NormalizedAdjacency();
  Matrix x = RandomMatrix(g.num_nodes(), 64, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.Multiply(x));
  }
}
BENCHMARK(BM_SparsePropagation);

void BM_GcnInference(benchmark::State& state) {
  const Graph& g = BenchDb().graph(0);
  const GcnModel& model = BenchModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.PredictProba(g));
  }
}
BENCHMARK(BM_GcnInference);

void BM_ExactJacobianInfluence(benchmark::State& state) {
  const Graph& g = BenchDb().graph(0);
  const GcnModel& model = BenchModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NodeInfluence::Compute(model, g, InfluenceMode::kExactJacobian));
  }
}
BENCHMARK(BM_ExactJacobianInfluence);

void BM_RandomWalkInfluence(benchmark::State& state) {
  const Graph& g = BenchDb().graph(0);
  const GcnModel& model = BenchModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        NodeInfluence::Compute(model, g, InfluenceMode::kRandomWalk));
  }
}
BENCHMARK(BM_RandomWalkInfluence);

void BM_SubgraphIsomorphism(benchmark::State& state) {
  const Graph& g = BenchDb().graph(1);
  Graph nitro;
  NodeId n = nitro.AddNode(1);
  NodeId o1 = nitro.AddNode(2);
  NodeId o2 = nitro.AddNode(2);
  (void)nitro.AddEdge(n, o1);
  (void)nitro.AddEdge(n, o2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindMatches(nitro, g));
  }
}
BENCHMARK(BM_SubgraphIsomorphism);

void BM_CanonicalCode(benchmark::State& state) {
  Graph ring;
  for (int i = 0; i < 6; ++i) ring.AddNode(i % 2);
  for (int i = 0; i < 6; ++i) (void)ring.AddEdge(i, (i + 1) % 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CanonicalCode(ring));
  }
}
BENCHMARK(BM_CanonicalCode);

void BM_PatternMining(benchmark::State& state) {
  std::vector<const Graph*> graphs;
  for (int i = 0; i < 4; ++i) graphs.push_back(&BenchDb().graph(i));
  MinerOptions opt;
  opt.max_pattern_nodes = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinePatterns(graphs, opt));
  }
}
BENCHMARK(BM_PatternMining);

}  // namespace
}  // namespace gvex

BENCHMARK_MAIN();
