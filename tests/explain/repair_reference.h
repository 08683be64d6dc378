// Test-only oracle: counterfactual repair as it ran before the remainder
// predictor, rebuilding G \ V_S with RemoveNodes for every probe. Kept
// verbatim so RepairOracleTest can pin the production repair
// (explain/repair.cpp) to it: same node sets, same return values.

#ifndef GVEX_TESTS_EXPLAIN_REPAIR_REFERENCE_H_
#define GVEX_TESTS_EXPLAIN_REPAIR_REFERENCE_H_

#include <algorithm>
#include <vector>

#include "explain/config.h"
#include "gnn/classifier.h"
#include "graph/graph.h"
#include "graph/subgraph.h"

namespace gvex {
namespace testing {
namespace repair_reference {

// P(label | G \ nodes); 1.0 on extraction failure (treated as "not flipped").
inline double RemainderProba(const GnnClassifier& model, const Graph& g,
                             const std::vector<NodeId>& nodes, int label) {
  auto rest = RemoveNodes(g, nodes);
  if (!rest.ok()) return 1.0;
  return model.ProbaOf(rest.value().graph, label);
}

inline bool IsCounterfactual(const GnnClassifier& model, const Graph& g,
                             const std::vector<NodeId>& nodes, int label) {
  auto rest = RemoveNodes(g, nodes);
  if (!rest.ok()) return false;
  return model.Predict(rest.value().graph) != label;
}

// Candidate unit: a node together with its unselected degree-1 neighbors.
// Removing a hub while leaving its pendant atoms behind strands them as
// isolated nodes (e.g. the two O of a nitro group when only N is removed),
// which rarely changes the model output; whole functional groups do.
inline std::vector<NodeId> GroupOf(const Graph& g, NodeId v,
                                   const std::vector<bool>& selected) {
  std::vector<NodeId> group{v};
  for (const Neighbor& nb : g.neighbors(v)) {
    if (g.degree(nb.node) == 1 && !selected[static_cast<size_t>(nb.node)]) {
      group.push_back(nb.node);
    }
  }
  return group;
}

inline bool ReferenceCounterfactualRepair(const GnnClassifier& model,
                                          const Graph& g, int label,
                                          const CoverageBound& bound,
                                          int max_iters,
                                          std::vector<NodeId>* vs) {
  if (IsCounterfactual(model, g, *vs, label)) return true;
  std::vector<bool> selected(static_cast<size_t>(g.num_nodes()), false);
  for (NodeId v : *vs) selected[static_cast<size_t>(v)] = true;

  for (int iter = 0; iter < max_iters; ++iter) {
    const double current_p = RemainderProba(model, g, *vs, label);

    // Precompute the eviction order once per iteration: residents sorted by
    // how little their membership matters for the flip — lower
    // p(V_S \ {i}) means the flip does not need node i.
    std::vector<std::pair<double, size_t>> eviction_order;
    eviction_order.reserve(vs->size());
    for (size_t i = 0; i < vs->size(); ++i) {
      std::vector<NodeId> without = *vs;
      without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
      eviction_order.push_back(
          {RemainderProba(model, g, without, label), i});
    }
    std::sort(eviction_order.begin(), eviction_order.end());

    // Evaluate every candidate group: the trial set is V_S ∪ group with the
    // least-flip-useful residents evicted to respect the upper bound.
    double best_p = current_p;
    std::vector<NodeId> best_vs;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (selected[static_cast<size_t>(v)]) continue;
      std::vector<NodeId> group = GroupOf(g, v, selected);
      if (static_cast<int>(group.size()) > bound.upper) continue;
      const int excess = static_cast<int>(vs->size() + group.size()) -
                         bound.upper;
      if (excess > static_cast<int>(vs->size())) continue;
      std::vector<bool> evicted(vs->size(), false);
      for (int k = 0; k < excess; ++k) {
        evicted[eviction_order[static_cast<size_t>(k)].second] = true;
      }
      std::vector<NodeId> trial;
      trial.reserve(static_cast<size_t>(bound.upper));
      for (size_t i = 0; i < vs->size(); ++i) {
        if (!evicted[i]) trial.push_back((*vs)[i]);
      }
      trial.insert(trial.end(), group.begin(), group.end());
      const double p = RemainderProba(model, g, trial, label);
      if (p < best_p) {
        best_p = p;
        best_vs = std::move(trial);
      }
    }
    if (best_vs.empty()) break;  // no improving move
    std::fill(selected.begin(), selected.end(), false);
    *vs = std::move(best_vs);
    for (NodeId v : *vs) selected[static_cast<size_t>(v)] = true;
    if (IsCounterfactual(model, g, *vs, label)) {
      std::sort(vs->begin(), vs->end());
      return true;
    }
  }
  std::sort(vs->begin(), vs->end());
  return IsCounterfactual(model, g, *vs, label);
}

}  // namespace repair_reference

using repair_reference::ReferenceCounterfactualRepair;

}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_EXPLAIN_REPAIR_REFERENCE_H_
