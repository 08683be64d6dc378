// Relational GCN (R-GCN, Schlichtkrull et al. 2018) — implements the paper's
// future-work item "consider the impact of edge features": message passing
// with one weight matrix per edge type,
//   h'_v = ReLU( h_v W_self + Σ_t Σ_{u∈N_t(v)} (1/|N_t(v)|) h_u W_t ),
// so bond types / relation labels shape the learned representation. Plugs
// into the explainers through GnnClassifier like every other architecture.

#ifndef GVEX_GNN_RGCN_MODEL_H_
#define GVEX_GNN_RGCN_MODEL_H_

#include <vector>

#include "gnn/substrate.h"
#include "graph/graph.h"
#include "la/sparse.h"
#include "util/rng.h"

namespace gvex {

/// R-GCN hyperparameters.
struct RgcnConfig {
  int input_dim = 0;
  int hidden_dim = 64;
  int num_layers = 2;
  int num_classes = 2;
  int num_edge_types = 1;
  ReadoutKind readout = ReadoutKind::kMax;
};

/// Edge-type-aware graph classifier with full training support.
class RgcnModel : public MessagePassingModel<RgcnModel, RgcnConfig> {
 public:
  RgcnModel() = default;
  RgcnModel(const RgcnConfig& config, Rng* rng);

  struct LayerParams {
    Matrix w_self;
    std::vector<Matrix> w_rel;  // one per edge type
    Matrix bias;                // 1 x d
  };

  struct LayerCache {
    Matrix input;
    std::vector<Matrix> rel_agg;  // per type: S_t X
    Matrix z;
    Matrix out;
  };

  struct Trace : HeadTrace {
    std::vector<SparseMatrix> rel_ops;  // per-type mean operators
    std::vector<LayerCache> caches;
  };

  Trace Forward(const Graph& g) const;
  /// The last layer's output of Forward(g), keeping no trace.
  Matrix LastLayer(const Graph& g) const;
  void Backward(const Trace& trace, const Matrix& grad_logits,
                Gradients* grads) const;

  /// Parameter tensors: per layer {w_self, w_rel[0..T), bias}, then head.
  std::vector<Matrix*> MutableParams();

  /// Per-edge-type mean aggregation operators (edges whose type exceeds
  /// num_edge_types-1 are clamped to the last relation).
  std::vector<SparseMatrix> RelationOperators(const Graph& g) const;

 private:
  // Layer k over the per-type operators; fills `c` if non-null.
  Matrix LayerForward(const std::vector<SparseMatrix>& rel_ops, size_t k,
                      const Matrix& x, LayerCache* c) const;

  std::vector<LayerParams> layers_;
};

}  // namespace gvex

#endif  // GVEX_GNN_RGCN_MODEL_H_
