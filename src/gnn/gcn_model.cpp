#include "gnn/gcn_model.h"

namespace gvex {

GcnModel::GcnModel(const GcnConfig& config, Rng* rng)
    : MessagePassingModel(config) {
  gcn_layers_.reserve(static_cast<size_t>(config.num_layers));
  int in = config.input_dim;
  for (int k = 0; k < config.num_layers; ++k) {
    gcn_layers_.emplace_back(in, config.hidden_dim, rng);
    in = config.hidden_dim;
  }
  InitHead(rng);
}

GcnModel::Trace GcnModel::Forward(const Graph& g) const {
  return ForwardWithOperator(g.NormalizedAdjacency(),
                             InputFeatures(g, config_.input_dim));
}

Matrix GcnModel::LastLayer(const Graph& g) const {
  const SparseMatrix s = g.NormalizedAdjacency();
  Matrix h = InputFeatures(g, config_.input_dim);
  for (const GcnLayer& layer : gcn_layers_) {
    h = layer.Forward(s, h, /*relu=*/true, nullptr);
  }
  return h;
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
  head_.Forward(h, &t);
  return t;
}

void GcnModel::Backward(const Trace& trace, const Matrix& grad_logits,
                        Gradients* grads, Matrix* grad_input,
                        Matrix* grad_s) const {
  Matrix dh = head_.Backward(trace, grad_logits, grads);
  // Convolutions, last to first.
  for (int k = static_cast<int>(gcn_layers_.size()) - 1; k >= 0; --k) {
    dh = gcn_layers_[static_cast<size_t>(k)].Backward(
        trace.s, trace.caches[static_cast<size_t>(k)], /*relu=*/true, dh,
        &grads->mats[static_cast<size_t>(k)], grad_s);
  }
  if (grad_input) *grad_input = std::move(dh);
}

std::vector<Matrix*> GcnModel::MutableParams() {
  std::vector<Matrix*> out;
  for (auto& layer : gcn_layers_) out.push_back(layer.mutable_weight());
  out.push_back(head_.mutable_weight());
  return out;
}

}  // namespace gvex
