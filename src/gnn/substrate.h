// The substrate every GNN architecture shares (GCN, GIN, GraphSAGE, R-GCN):
// the layer helpers, the readout → dense → softmax head, the gradient
// layout, and MessagePassingModel, which builds black-box inference on an
// architecture's LastLayer and the training protocol on its Forward. Each
// architecture supplies only its layer math.

#ifndef GVEX_GNN_SUBSTRATE_H_
#define GVEX_GNN_SUBSTRATE_H_

#include <cassert>
#include <vector>

#include "gnn/classifier.h"
#include "gnn/readout.h"
#include "graph/graph.h"
#include "la/matrix.h"
#include "util/rng.h"

namespace gvex {

/// Glorot-uniform (rows x cols) matrix, drawn row by row from `rng`.
Matrix GlorotMatrix(int rows, int cols, Rng* rng);

/// Adds a row-broadcast bias (1 x d) to every row of x.
void AddRowBias(const Matrix& bias, Matrix* x);

/// Column sums of `grad` accumulated into a 1 x d bias gradient.
void AccumulateBiasGrad(const Matrix& grad, Matrix* bias_grad);

/// The graph's node features, or the constant default feature (n x
/// input_dim ones) for a graph without them (paper: "For datasets without
/// node features, we assign each node a default feature").
Matrix InputFeatures(const Graph& g, int input_dim);

/// Parameter gradients of every architecture: one matrix per
/// MutableParams() entry, in that order, then the head bias.
struct GnnGradients {
  std::vector<Matrix> mats;
  std::vector<float> fc_bias;
};

/// The head's part of a forward trace; every model's Trace extends it.
struct HeadTrace {
  int num_nodes = 0;             // rows of the last layer's output
  std::vector<int> pool_argmax;  // max-pool winners
  Matrix pooled;                 // 1 x hidden
  Matrix logits;                 // 1 x classes
  std::vector<float> probs;
};

/// Readout, then logits = pooled W + b, then softmax: the top of every
/// architecture.
class GraphHead {
 public:
  GraphHead() = default;

  /// Glorot-uniform (hidden x classes) weight; zero bias.
  GraphHead(ReadoutKind readout, int hidden_dim, int num_classes, Rng* rng);

  const Matrix& weight() const { return weight_; }
  const std::vector<float>& bias() const { return bias_; }
  Matrix* mutable_weight() { return &weight_; }
  std::vector<float>* mutable_bias() { return &bias_; }

  /// Class probabilities for a pooled embedding (1 x hidden).
  std::vector<float> Proba(const Matrix& pooled) const;

  /// Class probabilities for the last layer's output h (n x hidden): what
  /// Forward computes, without the trace.
  std::vector<float> Predict(const Matrix& h) const;

  /// Pools the last layer's output h (n x hidden) and fills `t`.
  void Forward(const Matrix& h, HeadTrace* t) const;

  /// Backprop from dL/dlogits (1 x classes): accumulates the head weight's
  /// gradient into grads->mats.back() and the bias's into grads->fc_bias,
  /// and returns dL/dh (n x hidden).
  Matrix Backward(const HeadTrace& t, const Matrix& grad_logits,
                  GnnGradients* grads) const;

 private:
  Matrix Logits(const Matrix& pooled) const;

  ReadoutKind readout_ = ReadoutKind::kMax;
  Matrix weight_;
  std::vector<float> bias_;
};

/// A message-passing graph classifier. `Model` derives from
/// MessagePassingModel<Model, Config> and supplies
///   - Forward(g): a trace that extends HeadTrace and whose `caches` end
///     with the last layer's output `out`;
///   - LastLayer(g): that output alone, with the same bits, keeping no
///     trace (black-box inference runs it);
///   - MutableParams(): its layer tensors, then head().mutable_weight();
///   - Backward(trace, grad_logits, grads), accumulating in that order.
/// `Config` has input_dim, hidden_dim, num_layers, num_classes and readout.
template <typename Model, typename Config>
class MessagePassingModel : public GnnClassifier {
 public:
  using Gradients = GnnGradients;

  const Config& config() const { return config_; }
  int num_classes() const override { return config_.num_classes; }
  int num_layers() const override { return config_.num_layers; }
  const GraphHead& head() const { return head_; }

  /// Class probabilities; an empty graph pools to zero, so its logits are
  /// the head bias.
  std::vector<float> PredictProba(const Graph& g) const override {
    if (g.num_nodes() == 0) return head_.Proba(Matrix(1, config_.hidden_dim));
    return head_.Predict(self().LastLayer(g));
  }

  /// Last-layer node embeddings X^k (n x hidden).
  Matrix NodeEmbeddings(const Graph& g) const override {
    if (g.num_nodes() == 0) return Matrix(0, config_.hidden_dim);
    return self().LastLayer(g);
  }

  /// Zero gradients shaped like the parameters.
  Gradients ZeroGradients() const {
    Gradients grads;
    // Only the shapes are read; no parameter is written.
    for (const Matrix* p : const_cast<Model&>(self()).MutableParams()) {
      grads.mats.emplace_back(p->rows(), p->cols());
    }
    grads.fc_bias.assign(head_.bias().size(), 0.0f);
    return grads;
  }

  std::vector<float>* MutableFcBias() { return head_.mutable_bias(); }

 protected:
  MessagePassingModel() = default;
  explicit MessagePassingModel(const Config& config) : config_(config) {
    assert(config.input_dim > 0 && config.num_layers >= 1);
  }

  /// Draws the head; models call it after their layers, so the head's
  /// weights come last from `rng`.
  void InitHead(Rng* rng) {
    head_ = GraphHead(config_.readout, config_.hidden_dim,
                      config_.num_classes, rng);
  }

  Config config_;
  GraphHead head_;

 private:
  const Model& self() const { return static_cast<const Model&>(*this); }
};

}  // namespace gvex

#endif  // GVEX_GNN_SUBSTRATE_H_
