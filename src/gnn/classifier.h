// The abstract black-box classifier interface the explainers program
// against. GVEX is model-agnostic (Table 1): it only needs the outputs of a
// trained GNN — class probabilities and last-layer node embeddings — never
// its internals. Any message-passing architecture (GCN, GIN, GraphSAGE,
// R-GCN, ...) plugs in by implementing this interface.

#ifndef GVEX_GNN_CLASSIFIER_H_
#define GVEX_GNN_CLASSIFIER_H_

#include <memory>
#include <vector>

#include "graph/graph.h"
#include "la/matrix.h"
#include "la/matrix_ops.h"
#include "util/status.h"

namespace gvex {

/// P(· | G \ R) for many removal sets R of one graph G: the remainder
/// inference of the counterfactual check (C2) that counterfactual repair,
/// EVerify and the fidelity metrics run. Made by
/// GnnClassifier::MakeRemainderPredictor. Every answer is bit-identical to
/// PredictProba on RemoveNodes(G, R). An instance keeps per-graph scratch
/// state, so it serves one thread; the graph and model must outlive it.
class RemainderPredictor {
 public:
  virtual ~RemainderPredictor() = default;

  /// Class probabilities of G \ removed. Ids may repeat; an id outside
  /// [0, n) is InvalidArgument, as in RemoveNodes.
  virtual Result<std::vector<float>> ProbaWithout(
      const std::vector<NodeId>& removed) = 0;

  /// Declares that the following queries differ from `base` by a few
  /// nodes. A speed hint only: no answer depends on it.
  virtual void Pin(const std::vector<NodeId>& base) { (void)base; }
};

/// Black-box GNN classifier view.
class GnnClassifier {
 public:
  virtual ~GnnClassifier() = default;

  /// Number of class labels.
  virtual int num_classes() const = 0;

  /// Number of message-passing layers (the k of k-hop influence).
  virtual int num_layers() const = 0;

  /// Class probability distribution for a graph (empty graphs are legal).
  virtual std::vector<float> PredictProba(const Graph& g) const = 0;

  /// Last-layer node embeddings X^k (n x d).
  virtual Matrix NodeEmbeddings(const Graph& g) const = 0;

  /// argmax class label.
  virtual int Predict(const Graph& g) const {
    return ArgMax(PredictProba(g));
  }

  /// Probability assigned to `label` (0 for out-of-range labels).
  virtual float ProbaOf(const Graph& g, int label) const {
    return ProbaAt(PredictProba(g), label);
  }

  /// Remainder predictor over `g`. The default rebuilds G \ R with
  /// RemoveNodes and runs PredictProba on it for every query; a model may
  /// override it with an incremental one that answers the same bits.
  virtual std::unique_ptr<RemainderPredictor> MakeRemainderPredictor(
      const Graph& g) const;

  /// p[label], or 0 for an out-of-range label.
  static float ProbaAt(const std::vector<float>& p, int label) {
    if (label < 0 || label >= static_cast<int>(p.size())) return 0.0f;
    return p[static_cast<size_t>(label)];
  }
};

}  // namespace gvex

#endif  // GVEX_GNN_CLASSIFIER_H_
