// GraphSAGE [Hamilton et al., NeurIPS'17] with mean aggregation — another
// message-passing variant from §2.1. Each layer computes
//   h'_v = ReLU( h_v W_self + mean_{u∈N(v)} h_u · W_nb + b ),
// followed by mean-pool readout and a linear head.

#ifndef GVEX_GNN_SAGE_MODEL_H_
#define GVEX_GNN_SAGE_MODEL_H_

#include <vector>

#include "gnn/substrate.h"
#include "graph/graph.h"
#include "la/sparse.h"
#include "util/rng.h"

namespace gvex {

/// GraphSAGE hyperparameters.
struct SageConfig {
  int input_dim = 0;
  int hidden_dim = 64;
  int num_layers = 3;
  int num_classes = 2;
  ReadoutKind readout = ReadoutKind::kMean;
};

/// k-layer GraphSAGE graph classifier with full training support.
class SageModel : public MessagePassingModel<SageModel, SageConfig> {
 public:
  SageModel() = default;
  SageModel(const SageConfig& config, Rng* rng);

  struct LayerParams {
    Matrix w_self, w_nb, bias;  // bias is 1 x d
  };

  struct LayerCache {
    Matrix input;  // X
    Matrix nb;     // M X (mean of neighbors)
    Matrix z;      // pre-activation
    Matrix out;
  };

  struct Trace : HeadTrace {
    SparseMatrix m;  // row-normalized adjacency D^-1 A (no self loop)
    std::vector<LayerCache> caches;
  };

  Trace Forward(const Graph& g) const;
  /// The last layer's output of Forward(g), keeping no trace.
  Matrix LastLayer(const Graph& g) const;
  void Backward(const Trace& trace, const Matrix& grad_logits,
                Gradients* grads) const;

  /// Parameter tensors: per layer {w_self, w_nb, bias}, then head weight.
  std::vector<Matrix*> MutableParams();

  /// Row-normalized mean-aggregation operator for `g`.
  SparseMatrix MeanOperator(const Graph& g) const;

 private:
  // Layer k over mean operator m; fills `c` if non-null.
  Matrix LayerForward(const SparseMatrix& m, size_t k, const Matrix& x,
                      LayerCache* c) const;

  std::vector<LayerParams> layers_;
};

}  // namespace gvex

#endif  // GVEX_GNN_SAGE_MODEL_H_
