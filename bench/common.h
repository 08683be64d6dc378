// Shared benchmark infrastructure: dataset + trained-classifier contexts,
// method registry (GVEX algorithms + baselines under one interface), and the
// uniform "explain a label group" runner every figure bench uses.
//
// Scale notes: generator sizes and explanation caps are chosen so the whole
// bench suite completes in minutes on a laptop while preserving the paper's
// comparative shapes (see EXPERIMENTS.md). Like the paper's ">24h" cutoffs,
// baselines are skipped on MALNET (only AG/SG can handle the large graphs).

#ifndef GVEX_BENCH_COMMON_H_
#define GVEX_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/explainer.h"
#include "data/datasets.h"
#include "explain/approx_gvex.h"
#include "explain/config.h"
#include "explain/explanation.h"
#include "explain/stream_gvex.h"
#include "gnn/gcn_model.h"
#include "graph/graph_database.h"
#include "util/csv.h"

namespace gvex {
namespace bench {

/// A dataset with a trained classifier and predicted labels installed.
struct Context {
  DatasetSpec spec;
  GraphDatabase db;
  GcnModel model;
  float train_accuracy = 0.0f;
};

/// Builds (generates + trains) a context. `num_graphs` 0 = generator default.
Context MakeContext(DatasetId id, int num_graphs = 0, int hidden_dim = 32,
                    int epochs = 80, uint64_t seed = 1);

/// The default GVEX configuration for a dataset with node budget `ul`
/// (grid-searched values in the spirit of §6.1's parameter tuning).
Configuration ConfigFor(const Context& ctx, int ul);

/// Method abbreviations used in the paper's plots.
/// AG = ApproxGVEX, SG = StreamGVEX, GE = GNNExplainer, SX = SubgraphX,
/// GX = GStarX, GCF = GCFExplainer.
const std::vector<std::string>& AllMethods();
const std::vector<std::string>& BaselineMethods();

/// True if `method` is skipped on this dataset (the paper's ">24h" rule).
bool MethodSkipped(const std::string& method, DatasetId id);

/// Result of one (method, label group) run.
struct MethodRun {
  std::vector<ExplanationSubgraph> explanations;
  std::vector<Pattern> patterns;  // only for AG / SG (two-tier methods)
  double seconds = 0.0;
  bool ok = false;
};

/// Runs `method` over (at most `cap`) graphs of `label`'s group with node
/// budget `ul`. `num_threads` applies to AG/SG only.
MethodRun RunMethod(const std::string& method, const Context& ctx, int label,
                    int ul, int cap = 8, int num_threads = 1);

/// First label whose group is non-empty (the "label of user's interest").
int PickLabel(const Context& ctx);

/// Caps a label group to the first `cap` graphs (stable order).
std::vector<int> CappedGroup(const GraphDatabase& db, int label, int cap);

/// Prints a section header like "== Fig 5(a): RED ==".
void PrintHeader(const std::string& title);

/// Machine-readable bench output: accumulates named scalar metrics for one
/// bench section and merge-writes them into a shared JSON baseline file
/// (e.g. BENCH_parallel.json). The file format is a two-level JSON object —
/// top-level keys are bench names, each mapping to a flat object of numeric
/// metrics — which is what tools/check_bench.py consumes to gate perf
/// regressions against the committed baseline.
class BenchReport {
 public:
  /// `bench_name` becomes the section key, e.g. "fig9e_parallel".
  explicit BenchReport(std::string bench_name);

  /// Records one metric (insertion order is preserved in the output).
  /// Re-adding a key overwrites its value in place.
  void Add(const std::string& key, double value);

  /// Merge-writes into `path`: sections of other benches already in the file
  /// are preserved; this bench's section is replaced wholesale. Creates the
  /// file when missing; fails with IOError on unparsable existing content.
  /// The read-modify-write is not synchronized across processes — run bench
  /// drivers that share a baseline file sequentially, or a concurrent
  /// writer's section can be lost.
  Status WriteMerged(const std::string& path) const;

  /// Output path resolution: the GVEX_BENCH_OUT environment variable when
  /// set, else `default_path`.
  static std::string OutPath(const std::string& default_path);

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
};

}  // namespace bench
}  // namespace gvex

#endif  // GVEX_BENCH_COMMON_H_
