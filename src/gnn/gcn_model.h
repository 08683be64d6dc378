// The GNN-based classifier M of §2.1: a k-layer GCN (Eq. 1) with max-pool
// readout and a fully-connected head, exactly the architecture the paper's
// experiments use. The model is the *black box* the explainers query: they
// only call Predict / PredictProba / NodeEmbeddings (last-layer outputs).
//
// Training support (Forward trace + Backward) lives on the same class; the
// head, inference and gradient layout come from gnn/substrate.h. Explainers
// never touch it.

#ifndef GVEX_GNN_GCN_MODEL_H_
#define GVEX_GNN_GCN_MODEL_H_

#include <memory>
#include <vector>

#include "gnn/gcn_layer.h"
#include "gnn/substrate.h"
#include "graph/graph.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "util/rng.h"

namespace gvex {

/// Architecture hyperparameters.
struct GcnConfig {
  int input_dim = 0;
  int hidden_dim = 64;
  int num_layers = 3;      // the paper uses 3 convolution layers
  int num_classes = 2;
  ReadoutKind readout = ReadoutKind::kMax;
};

/// k-layer GCN graph classifier.
class GcnModel : public MessagePassingModel<GcnModel, GcnConfig> {
 public:
  GcnModel() = default;

  /// Random (Glorot) initialization from a config.
  GcnModel(const GcnConfig& config, Rng* rng);

  /// Incremental remainder predictor (gnn/gcn_remainder.cpp): no G \ R is
  /// built, and a query re-runs only the rows near the nodes it toggles
  /// against the pinned base. Bit-identical to the default.
  std::unique_ptr<RemainderPredictor> MakeRemainderPredictor(
      const Graph& g) const override;

  // ---- Training / gradient API (substrate-internal) ----

  /// Everything recorded during a forward pass.
  struct Trace : HeadTrace {
    SparseMatrix s;                       // propagation operator used
    std::vector<GcnLayer::Cache> caches;  // one per GCN layer
  };

  /// Forward over the graph's own normalized adjacency.
  Trace Forward(const Graph& g) const;

  /// The last layer's output of Forward(g), keeping no trace.
  Matrix LastLayer(const Graph& g) const;

  /// Forward with a caller-supplied propagation operator and features — the
  /// hook GNNExplainer-style mask learning uses (S entries reweighted by the
  /// learned edge mask, features possibly masked).
  Trace ForwardWithOperator(const SparseMatrix& s, const Matrix& x) const;

  /// Backprop from dL/dlogits (1 x classes). Accumulates into `grads`
  /// (required), and optionally produces dL/dX^0 (`grad_input`, n x in) and
  /// dL/dS as a dense matrix (`grad_s`, n x n) for mask learning.
  void Backward(const Trace& trace, const Matrix& grad_logits,
                Gradients* grads, Matrix* grad_input = nullptr,
                Matrix* grad_s = nullptr) const;

  /// Parameter tensors: the layer weights, then the head weight.
  std::vector<Matrix*> MutableParams();

  const std::vector<GcnLayer>& gcn_layers() const { return gcn_layers_; }

 private:
  std::vector<GcnLayer> gcn_layers_;
};

}  // namespace gvex

#endif  // GVEX_GNN_GCN_MODEL_H_
