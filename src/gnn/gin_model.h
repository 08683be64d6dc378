// Graph Isomorphism Network [Xu et al., ICLR'19] — one of the message-
// passing variants the paper lists in §2.1. Each layer computes
//   h'_v = MLP( (1+ε) h_v + Σ_{u∈N(v)} h_u ),
// with a 2-layer ReLU MLP, followed by sum-pool readout and a linear head.
// Used to demonstrate GVEX's model-agnosticism: explainers consume it
// through the GnnClassifier interface only.

#ifndef GVEX_GNN_GIN_MODEL_H_
#define GVEX_GNN_GIN_MODEL_H_

#include <vector>

#include "gnn/substrate.h"
#include "graph/graph.h"
#include "la/sparse.h"
#include "util/rng.h"

namespace gvex {

/// GIN hyperparameters.
struct GinConfig {
  int input_dim = 0;
  int hidden_dim = 64;
  int num_layers = 3;
  int num_classes = 2;
  float eps = 0.0f;  // GIN-0 by default
  ReadoutKind readout = ReadoutKind::kSum;
};

/// k-layer GIN graph classifier with full training support.
class GinModel : public MessagePassingModel<GinModel, GinConfig> {
 public:
  GinModel() = default;
  GinModel(const GinConfig& config, Rng* rng);

  /// One layer's MLP parameters (biases stored as 1 x d matrices so the
  /// optimizer treats all tensors uniformly).
  struct LayerParams {
    Matrix w1, b1, w2, b2;
  };

  /// Forward artifacts per layer.
  struct LayerCache {
    Matrix input;  // X
    Matrix agg;    // S_gin X
    Matrix z1, h1, z2, out;
  };

  struct Trace : HeadTrace {
    SparseMatrix s;  // A + (1+eps) I
    std::vector<LayerCache> caches;
  };

  Trace Forward(const Graph& g) const;
  /// The last layer's output of Forward(g), keeping no trace.
  Matrix LastLayer(const Graph& g) const;
  void Backward(const Trace& trace, const Matrix& grad_logits,
                Gradients* grads) const;

  /// Parameter tensors: per layer {w1,b1,w2,b2}, then the head weight.
  std::vector<Matrix*> MutableParams();

  /// The GIN aggregation operator S = A + (1+ε) I for `g`.
  SparseMatrix AggregationOperator(const Graph& g) const;

 private:
  // Layer k over aggregation operator s; fills `c` if non-null.
  Matrix LayerForward(const SparseMatrix& s, size_t k, const Matrix& x,
                      LayerCache* c) const;

  std::vector<LayerParams> layers_;
};

}  // namespace gvex

#endif  // GVEX_GNN_GIN_MODEL_H_
