// ApproxGVEX (Algorithm 1): the 1/2-approximate "explain-and-summarize"
// view generator.
//
// Explanation phase — greedy submodular maximization over nodes: repeatedly
// pick the candidate with maximum marginal explainability gain that passes
// VpExtend, until the upper bound u_l is reached; then backfill from the
// candidate pool V_u until the lower bound b_l holds (lines 3-17).
//
// Summary phase — Psum covers the selected nodes with mined patterns
// (line 18).
//
// Complexity: ExplainGraph is O(u_l · n log n) gain evaluations plus the
// VpExtend verification calls for one graph of n nodes; GenerateView is the
// sum over the label group plus one Psum. The approximation ratio of the
// explanation tier is 1/2 (Theorem 4.2).
//
// Thread-safety: ApproxGvex is immutable after construction; all member
// functions are const and safe to call concurrently from multiple threads
// (the shared GnnClassifier is only read). The parallel path of
// GenerateViews (§A.7) shards the label group across a worker pool with
// shard-local accumulators merged deterministically at a barrier — its
// output is bit-identical to the num_threads == 1 path.

#ifndef GVEX_EXPLAIN_APPROX_GVEX_H_
#define GVEX_EXPLAIN_APPROX_GVEX_H_

#include <vector>

#include "explain/config.h"
#include "explain/explanation.h"
#include "explain/scoring.h"
#include "gnn/gcn_model.h"
#include "graph/graph_database.h"
#include "util/status.h"

namespace gvex {

class ThreadPool;

/// The explain-and-summarize view generator.
class ApproxGvex {
 public:
  /// `model` must outlive this object.
  ApproxGvex(const GnnClassifier* model, Configuration config);

  const Configuration& config() const { return config_; }

  /// Explanation phase for one graph: greedily selects V_S and induces the
  /// explanation subgraph. Returns FailedPrecondition when no subgraph
  /// satisfying the lower bound exists (Algorithm 1 lines 16-17).
  Result<ExplanationSubgraph> ExplainGraph(const Graph& g, int graph_index,
                                           int label) const;

  /// Full pipeline for one label group: ExplainGraph over each graph in the
  /// group, then Psum to build the pattern tier. Graphs whose explanation is
  /// infeasible are skipped (reported via skipped count if non-null).
  Result<ExplanationView> GenerateView(const GraphDatabase& db, int label,
                                       int* skipped = nullptr) const;

  /// Views for several labels; `num_threads` > 1 parallelizes each label
  /// group's explanation phase over a single worker pool shared across
  /// labels (§A.7); Psum runs sequentially after it. Graphs are partitioned
  /// into batched shards with shard-local result accumulators merged in
  /// shard order at a barrier, so the views are identical for every thread
  /// count.
  Result<std::vector<ExplanationView>> GenerateViews(
      const GraphDatabase& db, const std::vector<int>& labels,
      int num_threads = 1) const;

 private:
  // Shared by GenerateView{,s}: explanation phase over a label group,
  // sharded across `pool` when non-null (else sequential), then summary
  // phase.
  Result<ExplanationView> GenerateViewImpl(const GraphDatabase& db, int label,
                                           ThreadPool* pool,
                                           int* skipped) const;

  const GnnClassifier* model_;
  Configuration config_;
};

}  // namespace gvex

#endif  // GVEX_EXPLAIN_APPROX_GVEX_H_
