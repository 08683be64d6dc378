// Feature-influence analysis (§3.1, Eqs. 3-4). For a k-layer GCN, the
// influence of node u on node v is the L1 norm of the Jacobian of v's final
// embedding w.r.t. u's input features:
//
//     I1(v, u) = || ∂X^k_v / ∂X^0_u ||_1                          (Eq. 3)
//     I2(u, v) = I1(v, u) / Σ_w I1(v, w)                          (Eq. 4)
//
// Two computation modes:
//  * kExactJacobian — differentiates through the trained network. For each
//    source u we forward-propagate the Jacobian block J_k(w,u) ∈ R^{d_k×d_0}
//    through J_k(v,·) = diag(relu'_k(v)) Σ_w S_vw W_k^T J_{k-1}(w,·),
//    computing only the rows the ReLU masks keep. Cost
//    O(|V| · Σ_k nnz(S) · live_k · live_{k-1} · d0), live_k being the
//    rows per node that layer k's mask keeps; exact (bit-identical to the
//    dense propagation) but only practical for small graphs (molecules).
//  * kRandomWalk — the expected-Jacobian surrogate of [Xu et al., ICML'18]
//    cited by the paper: I1(v,u) ∝ [S^k]_{vu}, i.e. k-step random-walk mass.
//    Cost O(k · nnz(S) · |V|); used for large graphs.
//  * kAuto — exact below `auto_exact_node_limit` nodes, random-walk above.

#ifndef GVEX_GNN_INFLUENCE_H_
#define GVEX_GNN_INFLUENCE_H_

#include "gnn/gcn_model.h"
#include "graph/graph.h"
#include "la/matrix.h"

namespace gvex {

enum class InfluenceMode { kExactJacobian, kRandomWalk, kAuto };

/// Pairwise influence scores for one graph under one model.
class NodeInfluence {
 public:
  NodeInfluence() = default;

  /// Computes all-pairs influence. `auto_exact_node_limit` bounds the exact
  /// mode under kAuto.
  static NodeInfluence Compute(const GnnClassifier& model, const Graph& g,
                               InfluenceMode mode = InfluenceMode::kAuto,
                               int auto_exact_node_limit = 128);

  int num_nodes() const { return i1_.rows(); }

  /// Raw sensitivity of v's final embedding to u's input features (Eq. 3).
  float I1(NodeId v, NodeId u) const { return i1_.at(v, u); }

  /// Normalized influence of u on v (Eq. 4). Rows of the underlying matrix
  /// are indexed by source u; columns by target v.
  float I2(NodeId u, NodeId v) const { return i2_.at(u, v); }

  /// The full I2 matrix (u-major), for scoring loops.
  const Matrix& i2_matrix() const { return i2_; }

  /// Which mode actually ran (kAuto resolves to one of the concrete modes).
  InfluenceMode mode_used() const { return mode_used_; }

 private:
  Matrix i1_;  // i1_(v, u)
  Matrix i2_;  // i2_(u, v)
  InfluenceMode mode_used_ = InfluenceMode::kAuto;
};

}  // namespace gvex

#endif  // GVEX_GNN_INFLUENCE_H_
