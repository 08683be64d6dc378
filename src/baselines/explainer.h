// Common interface for instance-level subgraph explainers — the competitor
// methods of §6.1 are implemented against this so the benchmark harness can
// sweep methods uniformly. Every explainer receives the trained model as a
// black box (plus gradients where its original formulation needs them), a
// graph, the label to explain, and a node budget (the u_l analogue used for
// fair comparison).

#ifndef GVEX_BASELINES_EXPLAINER_H_
#define GVEX_BASELINES_EXPLAINER_H_

#include <string>
#include <vector>

#include "explain/explanation.h"
#include "gnn/gcn_model.h"
#include "util/status.h"

namespace gvex {

/// Abstract instance-level explainer.
class Explainer {
 public:
  virtual ~Explainer() = default;

  /// Display name used in benchmark tables (paper abbreviations: GE, SX, GX,
  /// GCF, AG, SG).
  virtual std::string name() const = 0;

  /// Produces an explanation subgraph with at most `max_nodes` nodes for
  /// `label` on `g`.
  virtual Result<ExplanationSubgraph> Explain(const Graph& g, int graph_index,
                                              int label, int max_nodes) = 0;
};

/// Fills the consistency/counterfactual flags of `ex` via EVerify.
void AnnotateVerification(const GnnClassifier& model, const Graph& g,
                          ExplanationSubgraph* ex, int label);

/// Utility shared by several baselines: expands `seed` greedily to a
/// connected node set of size `max_nodes` following `score` (higher first).
std::vector<NodeId> GrowConnectedSet(const Graph& g, NodeId seed,
                                     const std::vector<double>& score,
                                     int max_nodes);

}  // namespace gvex

#endif  // GVEX_BASELINES_EXPLAINER_H_
