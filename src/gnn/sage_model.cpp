#include "gnn/sage_model.h"

#include <utility>

#include "la/matrix_ops.h"

namespace gvex {

SageModel::SageModel(const SageConfig& config, Rng* rng)
    : MessagePassingModel(config) {
  int in = config.input_dim;
  layers_.reserve(static_cast<size_t>(config.num_layers));
  for (int k = 0; k < config.num_layers; ++k) {
    LayerParams lp;
    lp.w_self = GlorotMatrix(in, config.hidden_dim, rng);
    lp.w_nb = GlorotMatrix(in, config.hidden_dim, rng);
    lp.bias = Matrix(1, config.hidden_dim);
    layers_.push_back(std::move(lp));
    in = config.hidden_dim;
  }
  InitHead(rng);
}

SparseMatrix SageModel::MeanOperator(const Graph& g) const {
  const int n = g.num_nodes();
  std::vector<float> deg(static_cast<size_t>(n), 0.0f);
  for (const Edge& e : g.edges()) {
    deg[static_cast<size_t>(e.u)] += 1.0f;
    deg[static_cast<size_t>(e.v)] += 1.0f;
  }
  std::vector<SparseMatrix::Triplet> trips;
  trips.reserve(static_cast<size_t>(g.num_edges()) * 2);
  for (const Edge& e : g.edges()) {
    trips.push_back({e.u, e.v, 1.0f / deg[static_cast<size_t>(e.u)]});
    trips.push_back({e.v, e.u, 1.0f / deg[static_cast<size_t>(e.v)]});
  }
  return SparseMatrix(n, n, std::move(trips));
}

Matrix SageModel::LayerForward(const SparseMatrix& m, size_t k,
                               const Matrix& x, LayerCache* c) const {
  const LayerParams& lp = layers_[k];
  Matrix nb = m.Multiply(x);
  Matrix z = MatMul(x, lp.w_self);
  z += MatMul(nb, lp.w_nb);
  AddRowBias(lp.bias, &z);
  Matrix out = Relu(z);
  if (c) {
    c->input = x;
    c->nb = std::move(nb);
    c->z = std::move(z);
    c->out = out;
  }
  return out;
}

SageModel::Trace SageModel::Forward(const Graph& g) const {
  Trace t;
  t.m = MeanOperator(g);
  t.caches.resize(layers_.size());
  Matrix h = InputFeatures(g, config_.input_dim);
  for (size_t k = 0; k < layers_.size(); ++k) {
    h = LayerForward(t.m, k, h, &t.caches[k]);
  }
  head_.Forward(h, &t);
  return t;
}

Matrix SageModel::LastLayer(const Graph& g) const {
  const SparseMatrix m = MeanOperator(g);
  Matrix h = InputFeatures(g, config_.input_dim);
  for (size_t k = 0; k < layers_.size(); ++k) {
    h = LayerForward(m, k, h, nullptr);
  }
  return h;
}

void SageModel::Backward(const Trace& trace, const Matrix& grad_logits,
                         Gradients* grads) const {
  Matrix dh = head_.Backward(trace, grad_logits, grads);
  for (int k = static_cast<int>(layers_.size()) - 1; k >= 0; --k) {
    const LayerParams& lp = layers_[static_cast<size_t>(k)];
    const LayerCache& c = trace.caches[static_cast<size_t>(k)];
    const size_t base = static_cast<size_t>(k) * 3;
    Matrix dz = Hadamard(dh, ReluMask(c.z));
    grads->mats[base + 0] += MatMulTransA(c.input, dz);  // dW_self
    grads->mats[base + 1] += MatMulTransA(c.nb, dz);     // dW_nb
    AccumulateBiasGrad(dz, &grads->mats[base + 2]);      // db
    // dX = dZ W_self^T + M^T (dZ W_nb^T)
    Matrix dx = MatMulTransB(dz, lp.w_self);
    dx += trace.m.MultiplyTransposed(MatMulTransB(dz, lp.w_nb));
    dh = std::move(dx);
  }
}

std::vector<Matrix*> SageModel::MutableParams() {
  std::vector<Matrix*> out;
  for (auto& lp : layers_) {
    out.push_back(&lp.w_self);
    out.push_back(&lp.w_nb);
    out.push_back(&lp.bias);
  }
  out.push_back(head_.mutable_weight());
  return out;
}

}  // namespace gvex
