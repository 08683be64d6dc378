#include "gnn/substrate.h"

#include <cmath>

#include "la/matrix_ops.h"

namespace gvex {

Matrix GlorotMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  const float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) m.at(i, j) = rng->NextFloat(-limit, limit);
  }
  return m;
}

void AddRowBias(const Matrix& bias, Matrix* x) {
  for (int i = 0; i < x->rows(); ++i) {
    for (int j = 0; j < x->cols(); ++j) x->at(i, j) += bias.at(0, j);
  }
}

void AccumulateBiasGrad(const Matrix& grad, Matrix* bias_grad) {
  for (int i = 0; i < grad.rows(); ++i) {
    for (int j = 0; j < grad.cols(); ++j) bias_grad->at(0, j) += grad.at(i, j);
  }
}

Matrix InputFeatures(const Graph& g, int input_dim) {
  Matrix x = g.features();
  if (x.empty() && g.num_nodes() > 0) {
    x = Matrix(g.num_nodes(), input_dim, 1.0f);
  }
  return x;
}

GraphHead::GraphHead(ReadoutKind readout, int hidden_dim, int num_classes,
                     Rng* rng)
    : readout_(readout),
      weight_(GlorotMatrix(hidden_dim, num_classes, rng)),
      bias_(static_cast<size_t>(num_classes), 0.0f) {}

Matrix GraphHead::Logits(const Matrix& pooled) const {
  Matrix y = MatMul(pooled, weight_);
  for (int j = 0; j < y.cols(); ++j) y.at(0, j) += bias_[static_cast<size_t>(j)];
  return y;
}

std::vector<float> GraphHead::Proba(const Matrix& pooled) const {
  return Softmax(Logits(pooled).RowVec(0));
}

std::vector<float> GraphHead::Predict(const Matrix& h) const {
  return Proba(Readout(readout_, h, nullptr));
}

void GraphHead::Forward(const Matrix& h, HeadTrace* t) const {
  t->num_nodes = h.rows();
  t->pooled = Readout(readout_, h, &t->pool_argmax);
  t->logits = Logits(t->pooled);
  t->probs = Softmax(t->logits.RowVec(0));
}

Matrix GraphHead::Backward(const HeadTrace& t, const Matrix& grad_logits,
                           GnnGradients* grads) const {
  assert(grads != nullptr && !grads->mats.empty());
  grads->mats.back() += MatMulTransA(t.pooled, grad_logits);
  for (int j = 0; j < grad_logits.cols(); ++j) {
    grads->fc_bias[static_cast<size_t>(j)] += grad_logits.at(0, j);
  }
  return ReadoutBackward(readout_, MatMulTransB(grad_logits, weight_),
                         t.num_nodes, t.pool_argmax);
}

}  // namespace gvex
