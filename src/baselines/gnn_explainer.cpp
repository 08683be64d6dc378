#include "baselines/gnn_explainer.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "gnn/loss.h"
#include "graph/subgraph.h"
#include "la/matrix_ops.h"

namespace gvex {

namespace {
inline float Sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
}  // namespace

GnnExplainer::GnnExplainer(const GcnModel* model, GnnExplainerOptions options)
    : model_(model), options_(options) {}

Result<ExplanationSubgraph> GnnExplainer::Explain(const Graph& g,
                                                  int graph_index, int label,
                                                  int max_nodes) {
  if (g.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  const int m = g.num_edges();
  // Mask logits, initialized mildly positive (edges start mostly "on").
  std::vector<float> logits_mask(static_cast<size_t>(m), 1.0f);
  std::vector<float> mask(static_cast<size_t>(m), 0.0f);

  const Matrix x = InputFeatures(g, model_->config().input_dim);

  // Degree normalization constants of the unmasked graph: S entry for edge
  // (u,v) is  mask_e * base_uv, so dL/dmask_e = base_uv * (dL/dS_uv +
  // dL/dS_vu) and dL/dlogit = dL/dmask * σ'(logit).
  std::vector<float> deg(static_cast<size_t>(g.num_nodes()), 1.0f);
  for (const Edge& ed : g.edges()) {
    deg[static_cast<size_t>(ed.u)] += 1.0f;
    deg[static_cast<size_t>(ed.v)] += 1.0f;
  }
  std::vector<float> base(static_cast<size_t>(m));
  for (size_t e = 0; e < base.size(); ++e) {
    const Edge& ed = g.edges()[e];
    base[e] = 1.0f / std::sqrt(deg[static_cast<size_t>(ed.u)] *
                               deg[static_cast<size_t>(ed.v)]);
  }

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    for (size_t e = 0; e < mask.size(); ++e) {
      mask[e] = Sigmoid(logits_mask[e]);
    }
    SparseMatrix s = g.NormalizedAdjacency(mask);
    GcnModel::Trace trace = model_->ForwardWithOperator(s, x);
    // Maximize log P(label): minimize CE.
    Matrix dlogits;
    SoftmaxCrossEntropy(trace.logits, label, &dlogits);
    GcnModel::Gradients grads = model_->ZeroGradients();
    Matrix grad_s(g.num_nodes(), g.num_nodes());
    model_->Backward(trace, dlogits, &grads, nullptr, &grad_s);

    for (size_t e = 0; e < mask.size(); ++e) {
      const Edge& ed = g.edges()[e];
      float dmask = base[e] * (grad_s.at(ed.u, ed.v) + grad_s.at(ed.v, ed.u));
      // Regularizers: λ1 d|σ|/dm + λ2 dH/dm.
      const float sm = mask[e];
      dmask += options_.l1_coeff;
      const float kEps = 1e-6f;
      dmask += options_.entropy_coeff *
               (-std::log(sm + kEps) + std::log(1.0f - sm + kEps));
      const float dlogit = dmask * sm * (1.0f - sm);
      logits_mask[e] -= options_.lr * dlogit;
    }
  }

  for (size_t e = 0; e < mask.size(); ++e) mask[e] = Sigmoid(logits_mask[e]);
  last_mask_ = mask;

  // Harvest nodes from the highest-mass edges until the budget is reached.
  std::vector<int> order(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return mask[static_cast<size_t>(a)] > mask[static_cast<size_t>(b)];
  });
  std::set<NodeId> nodes;
  for (int ei : order) {
    const Edge& ed = g.edges()[static_cast<size_t>(ei)];
    std::set<NodeId> tentative = nodes;
    tentative.insert(ed.u);
    tentative.insert(ed.v);
    if (static_cast<int>(tentative.size()) > max_nodes) {
      if (static_cast<int>(nodes.size()) >= max_nodes) break;
      continue;
    }
    nodes = std::move(tentative);
  }
  if (nodes.empty()) {
    // Degenerate (e.g. edgeless graph): take the single highest-degree node.
    NodeId best = 0;
    for (NodeId v = 1; v < g.num_nodes(); ++v) {
      if (g.degree(v) > g.degree(best)) best = v;
    }
    nodes.insert(best);
  }

  ExplanationSubgraph out;
  out.graph_index = graph_index;
  out.nodes.assign(nodes.begin(), nodes.end());
  auto sub = ExtractInducedSubgraph(g, out.nodes);
  if (!sub.ok()) return sub.status();
  out.subgraph = std::move(sub.value().graph);
  AnnotateVerification(*model_, g, &out, label);
  return out;
}

}  // namespace gvex
