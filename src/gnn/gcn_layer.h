// One graph-convolution layer of Eq. (1): H = ReLU(S X Θ), where S is the
// symmetric-normalized adjacency D^-1/2 (A+I) D^-1/2 supplied by the caller.

#ifndef GVEX_GNN_GCN_LAYER_H_
#define GVEX_GNN_GCN_LAYER_H_

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/rng.h"

namespace gvex {

/// Weights of one GCN layer plus forward/backward kernels. The layer is
/// stateless across calls: forward returns a cache consumed by backward.
class GcnLayer {
 public:
  GcnLayer() = default;

  /// Glorot-uniform initialization of the (in x out) weight.
  GcnLayer(int in_dim, int out_dim, Rng* rng);

  int in_dim() const { return weight_.rows(); }
  int out_dim() const { return weight_.cols(); }

  const Matrix& weight() const { return weight_; }
  Matrix* mutable_weight() { return &weight_; }

  /// Forward artifacts needed by backward and by exact Jacobian computation.
  struct Cache {
    Matrix input;      // X (n x in)
    Matrix xw;         // X Θ (n x out) — reused for d/dS in mask learning
    Matrix relu_mask;  // 1[S X Θ > 0]
    Matrix out;        // ReLU(S X Θ)
  };

  /// H = relu ? ReLU(S X Θ) : S X Θ. Fills `cache` if non-null.
  Matrix Forward(const SparseMatrix& s, const Matrix& x, bool relu,
                 Cache* cache) const;

  /// Given dL/dH, computes dL/dX (returned), accumulates dL/dΘ into
  /// `grad_weight`, and (optionally) accumulates dL/dS entries into
  /// `grad_s_dense` (n x n) for edge-mask learning.
  Matrix Backward(const SparseMatrix& s, const Cache& cache, bool relu,
                  const Matrix& grad_out, Matrix* grad_weight,
                  Matrix* grad_s_dense = nullptr) const;

 private:
  Matrix weight_;
};

}  // namespace gvex

#endif  // GVEX_GNN_GCN_LAYER_H_
