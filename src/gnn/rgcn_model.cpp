#include "gnn/rgcn_model.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "la/matrix_ops.h"

namespace gvex {

RgcnModel::RgcnModel(const RgcnConfig& config, Rng* rng)
    : MessagePassingModel(config) {
  assert(config.num_edge_types >= 1);
  int in = config.input_dim;
  layers_.reserve(static_cast<size_t>(config.num_layers));
  for (int k = 0; k < config.num_layers; ++k) {
    LayerParams lp;
    lp.w_self = GlorotMatrix(in, config.hidden_dim, rng);
    lp.w_rel.reserve(static_cast<size_t>(config.num_edge_types));
    for (int t = 0; t < config.num_edge_types; ++t) {
      lp.w_rel.push_back(GlorotMatrix(in, config.hidden_dim, rng));
    }
    lp.bias = Matrix(1, config.hidden_dim);
    layers_.push_back(std::move(lp));
    in = config.hidden_dim;
  }
  InitHead(rng);
}

std::vector<SparseMatrix> RgcnModel::RelationOperators(const Graph& g) const {
  const int n = g.num_nodes();
  const int T = config_.num_edge_types;
  // Per-type degree for mean normalization.
  std::vector<std::vector<float>> deg(
      static_cast<size_t>(T), std::vector<float>(static_cast<size_t>(n), 0.0f));
  auto type_of = [&](const Edge& e) {
    return std::min(std::max(e.edge_type, 0), T - 1);
  };
  for (const Edge& e : g.edges()) {
    const int t = type_of(e);
    deg[static_cast<size_t>(t)][static_cast<size_t>(e.u)] += 1.0f;
    deg[static_cast<size_t>(t)][static_cast<size_t>(e.v)] += 1.0f;
  }
  std::vector<std::vector<SparseMatrix::Triplet>> trips(
      static_cast<size_t>(T));
  for (const Edge& e : g.edges()) {
    const int t = type_of(e);
    trips[static_cast<size_t>(t)].push_back(
        {e.u, e.v, 1.0f / deg[static_cast<size_t>(t)][static_cast<size_t>(e.u)]});
    trips[static_cast<size_t>(t)].push_back(
        {e.v, e.u, 1.0f / deg[static_cast<size_t>(t)][static_cast<size_t>(e.v)]});
  }
  std::vector<SparseMatrix> ops;
  ops.reserve(static_cast<size_t>(T));
  for (int t = 0; t < T; ++t) {
    ops.emplace_back(n, n, std::move(trips[static_cast<size_t>(t)]));
  }
  return ops;
}

Matrix RgcnModel::LayerForward(const std::vector<SparseMatrix>& rel_ops,
                               size_t k, const Matrix& x,
                               LayerCache* c) const {
  const LayerParams& lp = layers_[k];
  Matrix z = MatMul(x, lp.w_self);
  std::vector<Matrix> rel_agg(rel_ops.size());
  for (size_t r = 0; r < rel_ops.size(); ++r) {
    rel_agg[r] = rel_ops[r].Multiply(x);
    z += MatMul(rel_agg[r], lp.w_rel[r]);
  }
  AddRowBias(lp.bias, &z);
  Matrix out = Relu(z);
  if (c) {
    c->input = x;
    c->rel_agg = std::move(rel_agg);
    c->z = std::move(z);
    c->out = out;
  }
  return out;
}

RgcnModel::Trace RgcnModel::Forward(const Graph& g) const {
  Trace t;
  t.rel_ops = RelationOperators(g);
  t.caches.resize(layers_.size());
  Matrix h = InputFeatures(g, config_.input_dim);
  for (size_t k = 0; k < layers_.size(); ++k) {
    h = LayerForward(t.rel_ops, k, h, &t.caches[k]);
  }
  head_.Forward(h, &t);
  return t;
}

Matrix RgcnModel::LastLayer(const Graph& g) const {
  const std::vector<SparseMatrix> rel_ops = RelationOperators(g);
  Matrix h = InputFeatures(g, config_.input_dim);
  for (size_t k = 0; k < layers_.size(); ++k) {
    h = LayerForward(rel_ops, k, h, nullptr);
  }
  return h;
}

void RgcnModel::Backward(const Trace& trace, const Matrix& grad_logits,
                         Gradients* grads) const {
  const int T = config_.num_edge_types;
  const size_t per_layer = static_cast<size_t>(T) + 2;  // self + rels + bias
  Matrix dh = head_.Backward(trace, grad_logits, grads);
  for (int k = static_cast<int>(layers_.size()) - 1; k >= 0; --k) {
    const LayerParams& lp = layers_[static_cast<size_t>(k)];
    const LayerCache& c = trace.caches[static_cast<size_t>(k)];
    const size_t base = static_cast<size_t>(k) * per_layer;
    Matrix dz = Hadamard(dh, ReluMask(c.z));
    grads->mats[base] += MatMulTransA(c.input, dz);  // dW_self
    Matrix dx = MatMulTransB(dz, lp.w_self);
    for (int r = 0; r < T; ++r) {
      grads->mats[base + 1 + static_cast<size_t>(r)] +=
          MatMulTransA(c.rel_agg[static_cast<size_t>(r)], dz);  // dW_rel
      dx += trace.rel_ops[static_cast<size_t>(r)].MultiplyTransposed(
          MatMulTransB(dz, lp.w_rel[static_cast<size_t>(r)]));
    }
    AccumulateBiasGrad(dz, &grads->mats[base + 1 + static_cast<size_t>(T)]);
    dh = std::move(dx);
  }
}

std::vector<Matrix*> RgcnModel::MutableParams() {
  std::vector<Matrix*> out;
  for (auto& lp : layers_) {
    out.push_back(&lp.w_self);
    for (auto& w : lp.w_rel) out.push_back(&w);
    out.push_back(&lp.bias);
  }
  out.push_back(head_.mutable_weight());
  return out;
}

}  // namespace gvex
