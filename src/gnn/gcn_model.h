// The GNN-based classifier M of §2.1: a k-layer GCN (Eq. 1) with max-pool
// readout and a fully-connected head, exactly the architecture the paper's
// experiments use. The model is the *black box* the explainers query: they
// only call Predict / PredictProba / NodeEmbeddings (last-layer outputs).
//
// Training support (Forward trace + Backward) lives on the same class so the
// substrate is self-contained; explainers never touch it.

#ifndef GVEX_GNN_GCN_MODEL_H_
#define GVEX_GNN_GCN_MODEL_H_

#include <memory>
#include <vector>

#include "gnn/classifier.h"
#include "gnn/dense_layer.h"
#include "gnn/gcn_layer.h"
#include "gnn/readout.h"
#include "graph/graph.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "util/rng.h"
#include "util/status.h"

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
class GcnModel : public GnnClassifier {
 public:
  GcnModel() = default;

  /// Random (Glorot) initialization from a config.
  GcnModel(const GcnConfig& config, Rng* rng);

  const GcnConfig& config() const { return config_; }
  int num_layers() const override {
    return static_cast<int>(gcn_layers_.size());
  }
  int num_classes() const override { return config_.num_classes; }

  // ---- Black-box inference API (what explainers are allowed to use) ----

  /// Class probabilities for a graph. Empty graphs are legal (pooled zeros).
  std::vector<float> PredictProba(const Graph& g) const override;

  /// Last-layer node embeddings X^k (n x hidden) — the paper's diversity
  /// measure reads these (outputs of the final layer, still black-box).
  Matrix NodeEmbeddings(const Graph& g) const override;

  /// Incremental remainder predictor (gnn/gcn_remainder.cpp): no G \ R is
  /// built, and a query re-runs only the rows near the nodes it toggles
  /// against the pinned base. Bit-identical to the default.
  std::unique_ptr<RemainderPredictor> MakeRemainderPredictor(
      const Graph& g) const override;

  // ---- Training / gradient API (substrate-internal) ----

  /// Everything recorded during a forward pass.
  struct Trace {
    SparseMatrix s;                       // propagation operator used
    std::vector<GcnLayer::Cache> caches;  // one per GCN layer
    std::vector<int> pool_argmax;         // max-pool winners
    Matrix pooled;                        // 1 x hidden
    Matrix logits;                        // 1 x classes
    std::vector<float> probs;
  };

  /// Forward over the graph's own normalized adjacency.
  Trace Forward(const Graph& g) const;

  /// Forward with a caller-supplied propagation operator and features — the
  /// hook GNNExplainer-style mask learning uses (S entries reweighted by the
  /// learned edge mask, features possibly masked).
  Trace ForwardWithOperator(const SparseMatrix& s, const Matrix& x) const;

  /// Parameter gradients, same shapes as the parameters.
  struct Gradients {
    std::vector<Matrix> gcn_weights;
    Matrix fc_weight;
    std::vector<float> fc_bias;
  };
  Gradients ZeroGradients() const;

  /// Backprop from dL/dlogits (1 x classes). Accumulates into `grads`
  /// (required), and optionally produces dL/dX^0 (`grad_input`, n x in) and
  /// dL/dS as a dense matrix (`grad_s`, n x n) for mask learning.
  void Backward(const Trace& trace, const Matrix& grad_logits,
                Gradients* grads, Matrix* grad_input = nullptr,
                Matrix* grad_s = nullptr) const;

  /// Flat views of all parameter tensors (for the optimizer and tests).
  std::vector<Matrix*> MutableParams();
  std::vector<const Matrix*> Params() const;
  std::vector<float>* MutableFcBias() { return fc_.mutable_bias(); }
  const std::vector<float>& FcBias() const { return fc_.bias(); }

  const std::vector<GcnLayer>& gcn_layers() const { return gcn_layers_; }
  const DenseLayer& fc() const { return fc_; }

 private:
  GcnConfig config_;
  std::vector<GcnLayer> gcn_layers_;
  DenseLayer fc_;
};

/// Builds a propagation operator with per-edge weights in [0,1] applied to
/// the off-diagonal entries of the graph's normalized adjacency; self loops
/// keep weight 1 (degree normalization from the *unmasked* graph, the usual
/// GNNExplainer simplification). `edge_weights` aligns with g.edges().
SparseMatrix BuildMaskedOperator(const Graph& g,
                                 const std::vector<float>& edge_weights);

}  // namespace gvex

#endif  // GVEX_GNN_GCN_MODEL_H_
