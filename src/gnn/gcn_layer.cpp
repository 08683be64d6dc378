#include "gnn/gcn_layer.h"

#include "gnn/substrate.h"
#include "la/matrix_ops.h"

namespace gvex {

GcnLayer::GcnLayer(int in_dim, int out_dim, Rng* rng)
    : weight_(GlorotMatrix(in_dim, out_dim, rng)) {}

Matrix GcnLayer::Forward(const SparseMatrix& s, const Matrix& x, bool relu,
                         Cache* cache) const {
  Matrix xw = MatMul(x, weight_);
  Matrix pre = s.Multiply(xw);
  Matrix out = relu ? Relu(pre) : pre;
  if (cache) {
    cache->input = x;
    cache->xw = std::move(xw);
    cache->relu_mask = relu ? ReluMask(pre) : Matrix(pre.rows(), pre.cols(), 1.0f);
    cache->out = out;
  }
  return out;
}

Matrix GcnLayer::Backward(const SparseMatrix& s, const Cache& cache, bool relu,
                          const Matrix& grad_out, Matrix* grad_weight,
                          Matrix* grad_s_dense) const {
  // dPre = dH ⊙ relu'(pre)
  Matrix dpre = relu ? Hadamard(grad_out, cache.relu_mask) : grad_out;
  // dXW = S^T dPre   (S symmetric for GCN, but keep the general form)
  Matrix dxw = s.MultiplyTransposed(dpre);
  // dΘ += X^T dXW
  if (grad_weight) {
    Matrix gw = MatMulTransA(cache.input, dxw);
    *grad_weight += gw;
  }
  // dS[u][v] += Σ_j dPre[u][j] * XW[v][j]
  if (grad_s_dense) {
    Matrix ds = MatMulTransB(dpre, cache.xw);
    *grad_s_dense += ds;
  }
  // dX = dXW Θ^T
  return MatMulTransB(dxw, weight_);
}

}  // namespace gvex
