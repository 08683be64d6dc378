#include "gnn/gcn_model.h"

#include <cassert>
#include <cmath>

#include "la/matrix_ops.h"

namespace gvex {

GcnModel::GcnModel(const GcnConfig& config, Rng* rng) : config_(config) {
  assert(config.input_dim > 0 && config.num_layers >= 1);
  gcn_layers_.reserve(static_cast<size_t>(config.num_layers));
  int in = config.input_dim;
  for (int k = 0; k < config.num_layers; ++k) {
    gcn_layers_.emplace_back(in, config.hidden_dim, rng);
    in = config.hidden_dim;
  }
  fc_ = DenseLayer(config.hidden_dim, config.num_classes, rng);
}

GcnModel::Trace GcnModel::Forward(const Graph& g) const {
  Matrix x = g.features();
  if (x.empty() && g.num_nodes() > 0) {
    // Datasets without node features get a constant default feature
    // (paper: "For datasets without node features, we assign each node a
    // default feature").
    x = Matrix(g.num_nodes(), config_.input_dim, 1.0f);
  }
  return ForwardWithOperator(g.NormalizedAdjacency(), x);
}

GcnModel::Trace GcnModel::ForwardWithOperator(const SparseMatrix& s,
                                              const Matrix& x) const {
  Trace t;
  t.s = s;
  t.caches.resize(gcn_layers_.size());
  Matrix h = x;
  for (size_t k = 0; k < gcn_layers_.size(); ++k) {
    h = gcn_layers_[k].Forward(s, h, /*relu=*/true, &t.caches[k]);
  }
  t.pooled = Readout(config_.readout, h, &t.pool_argmax);
  t.logits = fc_.Forward(t.pooled);
  t.probs = Softmax(t.logits.RowVec(0));
  return t;
}

std::vector<float> GcnModel::PredictProba(const Graph& g) const {
  if (g.num_nodes() == 0) {
    // Empty graph: pooled embedding is zero, logits reduce to the bias.
    Matrix zero(1, config_.hidden_dim);
    Matrix logits = fc_.Forward(zero);
    return Softmax(logits.RowVec(0));
  }
  return Forward(g).probs;
}

Matrix GcnModel::NodeEmbeddings(const Graph& g) const {
  if (g.num_nodes() == 0) return Matrix(0, config_.hidden_dim);
  Trace t = Forward(g);
  return t.caches.back().output;
}

GcnModel::Gradients GcnModel::ZeroGradients() const {
  Gradients grads;
  grads.gcn_weights.reserve(gcn_layers_.size());
  for (const auto& layer : gcn_layers_) {
    grads.gcn_weights.emplace_back(layer.in_dim(), layer.out_dim());
  }
  grads.fc_weight = Matrix(fc_.in_dim(), fc_.out_dim());
  grads.fc_bias.assign(static_cast<size_t>(fc_.out_dim()), 0.0f);
  return grads;
}

void GcnModel::Backward(const Trace& trace, const Matrix& grad_logits,
                        Gradients* grads, Matrix* grad_input,
                        Matrix* grad_s) const {
  assert(grads != nullptr);
  // Head.
  Matrix dpooled =
      fc_.Backward(trace.pooled, grad_logits, &grads->fc_weight,
                   &grads->fc_bias);
  // Readout.
  const int n = trace.caches.empty() ? 0 : trace.caches.back().output.rows();
  Matrix dh = ReadoutBackward(config_.readout, dpooled, n, trace.pool_argmax);
  // Convolutions, last to first.
  for (int k = static_cast<int>(gcn_layers_.size()) - 1; k >= 0; --k) {
    dh = gcn_layers_[static_cast<size_t>(k)].Backward(
        trace.s, trace.caches[static_cast<size_t>(k)], /*relu=*/true, dh,
        &grads->gcn_weights[static_cast<size_t>(k)], grad_s);
  }
  if (grad_input) *grad_input = std::move(dh);
}

std::vector<Matrix*> GcnModel::MutableParams() {
  std::vector<Matrix*> out;
  for (auto& layer : gcn_layers_) out.push_back(layer.mutable_weight());
  out.push_back(fc_.mutable_weight());
  return out;
}

std::vector<const Matrix*> GcnModel::Params() const {
  std::vector<const Matrix*> out;
  for (const auto& layer : gcn_layers_) out.push_back(&layer.weight());
  out.push_back(&fc_.weight());
  return out;
}

SparseMatrix BuildMaskedOperator(const Graph& g,
                                 const std::vector<float>& edge_weights) {
  assert(edge_weights.size() == static_cast<size_t>(g.num_edges()));
  const int n = g.num_nodes();
  std::vector<float> deg(static_cast<size_t>(n), 1.0f);
  for (const Edge& e : g.edges()) {
    deg[static_cast<size_t>(e.u)] += 1.0f;
    deg[static_cast<size_t>(e.v)] += 1.0f;
  }
  std::vector<float> inv_sqrt(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    inv_sqrt[static_cast<size_t>(v)] =
        1.0f / std::sqrt(deg[static_cast<size_t>(v)]);
  }
  std::vector<SparseMatrix::Triplet> trips;
  trips.reserve(static_cast<size_t>(g.num_edges()) * 2 +
                static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    trips.push_back({v, v,
                     inv_sqrt[static_cast<size_t>(v)] *
                         inv_sqrt[static_cast<size_t>(v)]});
  }
  for (size_t i = 0; i < edge_weights.size(); ++i) {
    const Edge& e = g.edges()[i];
    float w = edge_weights[i] * inv_sqrt[static_cast<size_t>(e.u)] *
              inv_sqrt[static_cast<size_t>(e.v)];
    trips.push_back({e.u, e.v, w});
    trips.push_back({e.v, e.u, w});
  }
  return SparseMatrix(n, n, std::move(trips));
}

}  // namespace gvex
