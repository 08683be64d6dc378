#include "baselines/explainer.h"

#include <algorithm>
#include <queue>
#include <unordered_set>

#include "explain/verify.h"
#include "graph/subgraph.h"

namespace gvex {

void AnnotateVerification(const GnnClassifier& model, const Graph& g,
                          ExplanationSubgraph* ex, int label) {
  auto ev = EVerify(model, g, ex->nodes, label);
  if (ev.ok()) {
    ex->consistent = ev.value().consistent;
    ex->counterfactual = ev.value().counterfactual;
  }
}

std::vector<NodeId> GrowConnectedSet(const Graph& g, NodeId seed,
                                     const std::vector<double>& score,
                                     int max_nodes) {
  std::vector<NodeId> result;
  if (g.num_nodes() == 0 || max_nodes <= 0) return result;
  std::unordered_set<NodeId> in_set;
  // Max-heap of frontier nodes by score.
  auto cmp = [&](NodeId a, NodeId b) {
    return score[static_cast<size_t>(a)] < score[static_cast<size_t>(b)];
  };
  std::priority_queue<NodeId, std::vector<NodeId>, decltype(cmp)> frontier(cmp);
  std::unordered_set<NodeId> queued;
  frontier.push(seed);
  queued.insert(seed);
  while (!frontier.empty() && static_cast<int>(result.size()) < max_nodes) {
    NodeId v = frontier.top();
    frontier.pop();
    if (in_set.count(v)) continue;
    in_set.insert(v);
    result.push_back(v);
    for (const Neighbor& nb : g.neighbors(v)) {
      if (!in_set.count(nb.node) && !queued.count(nb.node)) {
        frontier.push(nb.node);
        queued.insert(nb.node);
      }
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace gvex
