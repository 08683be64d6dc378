#include "gnn/gin_model.h"

#include <utility>

#include "la/matrix_ops.h"

namespace gvex {

GinModel::GinModel(const GinConfig& config, Rng* rng)
    : MessagePassingModel(config) {
  int in = config.input_dim;
  layers_.reserve(static_cast<size_t>(config.num_layers));
  for (int k = 0; k < config.num_layers; ++k) {
    LayerParams lp;
    lp.w1 = GlorotMatrix(in, config.hidden_dim, rng);
    lp.b1 = Matrix(1, config.hidden_dim);
    lp.w2 = GlorotMatrix(config.hidden_dim, config.hidden_dim, rng);
    lp.b2 = Matrix(1, config.hidden_dim);
    layers_.push_back(std::move(lp));
    in = config.hidden_dim;
  }
  InitHead(rng);
}

SparseMatrix GinModel::AggregationOperator(const Graph& g) const {
  const int n = g.num_nodes();
  std::vector<SparseMatrix::Triplet> trips;
  trips.reserve(static_cast<size_t>(g.num_edges()) * 2 +
                static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) trips.push_back({v, v, 1.0f + config_.eps});
  for (const Edge& e : g.edges()) {
    trips.push_back({e.u, e.v, 1.0f});
    trips.push_back({e.v, e.u, 1.0f});
  }
  return SparseMatrix(n, n, std::move(trips));
}

Matrix GinModel::LayerForward(const SparseMatrix& s, size_t k,
                              const Matrix& x, LayerCache* c) const {
  const LayerParams& lp = layers_[k];
  Matrix agg = s.Multiply(x);
  Matrix z1 = MatMul(agg, lp.w1);
  AddRowBias(lp.b1, &z1);
  Matrix h1 = Relu(z1);
  Matrix z2 = MatMul(h1, lp.w2);
  AddRowBias(lp.b2, &z2);
  Matrix out = Relu(z2);
  if (c) {
    c->input = x;
    c->agg = std::move(agg);
    c->z1 = std::move(z1);
    c->h1 = std::move(h1);
    c->z2 = std::move(z2);
    c->out = out;
  }
  return out;
}

GinModel::Trace GinModel::Forward(const Graph& g) const {
  Trace t;
  t.s = AggregationOperator(g);
  t.caches.resize(layers_.size());
  Matrix h = InputFeatures(g, config_.input_dim);
  for (size_t k = 0; k < layers_.size(); ++k) {
    h = LayerForward(t.s, k, h, &t.caches[k]);
  }
  head_.Forward(h, &t);
  return t;
}

Matrix GinModel::LastLayer(const Graph& g) const {
  const SparseMatrix s = AggregationOperator(g);
  Matrix h = InputFeatures(g, config_.input_dim);
  for (size_t k = 0; k < layers_.size(); ++k) {
    h = LayerForward(s, k, h, nullptr);
  }
  return h;
}

void GinModel::Backward(const Trace& trace, const Matrix& grad_logits,
                        Gradients* grads) const {
  Matrix dh = head_.Backward(trace, grad_logits, grads);
  for (int k = static_cast<int>(layers_.size()) - 1; k >= 0; --k) {
    const LayerParams& lp = layers_[static_cast<size_t>(k)];
    const LayerCache& c = trace.caches[static_cast<size_t>(k)];
    const size_t base = static_cast<size_t>(k) * 4;
    // dZ2 = dH ∘ relu'(z2)
    Matrix dz2 = Hadamard(dh, ReluMask(c.z2));
    grads->mats[base + 2] += MatMulTransA(c.h1, dz2);   // dW2
    AccumulateBiasGrad(dz2, &grads->mats[base + 3]);    // db2
    Matrix dh1 = MatMulTransB(dz2, lp.w2);
    Matrix dz1 = Hadamard(dh1, ReluMask(c.z1));
    grads->mats[base + 0] += MatMulTransA(c.agg, dz1);  // dW1
    AccumulateBiasGrad(dz1, &grads->mats[base + 1]);    // db1
    Matrix dagg = MatMulTransB(dz1, lp.w1);
    dh = trace.s.MultiplyTransposed(dagg);              // dX
  }
}

std::vector<Matrix*> GinModel::MutableParams() {
  std::vector<Matrix*> out;
  for (auto& lp : layers_) {
    out.push_back(&lp.w1);
    out.push_back(&lp.b1);
    out.push_back(&lp.w2);
    out.push_back(&lp.b2);
  }
  out.push_back(head_.mutable_weight());
  return out;
}

}  // namespace gvex
