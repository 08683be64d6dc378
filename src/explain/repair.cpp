#include "explain/repair.h"

#include <algorithm>
#include <memory>

namespace gvex {

namespace {

// P(label | G \ nodes); 1.0 on a bad id (treated as "not flipped").
double RemainderProba(RemainderPredictor* rest,
                      const std::vector<NodeId>& nodes, int label) {
  auto p = rest->ProbaWithout(nodes);
  if (!p.ok()) return 1.0;
  return GnnClassifier::ProbaAt(p.value(), label);
}

bool IsCounterfactual(RemainderPredictor* rest,
                      const std::vector<NodeId>& nodes, int label) {
  auto p = rest->ProbaWithout(nodes);
  if (!p.ok()) return false;
  return ArgMax(p.value()) != label;
}

// Candidate unit: a node together with its unselected degree-1 neighbors.
// Removing a hub while leaving its pendant atoms behind strands them as
// isolated nodes (e.g. the two O of a nitro group when only N is removed),
// which rarely changes the model output; whole functional groups do.
std::vector<NodeId> GroupOf(const Graph& g, NodeId v,
                            const std::vector<bool>& selected) {
  std::vector<NodeId> group{v};
  for (const Neighbor& nb : g.neighbors(v)) {
    if (g.degree(nb.node) == 1 && !selected[static_cast<size_t>(nb.node)]) {
      group.push_back(nb.node);
    }
  }
  return group;
}

}  // namespace

bool CounterfactualRepair(const GnnClassifier& model, const Graph& g, int label,
                          const CoverageBound& bound, int max_iters,
                          std::vector<NodeId>* vs) {
  // One predictor per call: every probe below differs from the V_S pinned
  // at the top of its iteration by one to a few nodes.
  std::unique_ptr<RemainderPredictor> rest = model.MakeRemainderPredictor(g);
  if (IsCounterfactual(rest.get(), *vs, label)) return true;
  std::vector<bool> selected(static_cast<size_t>(g.num_nodes()), false);
  for (NodeId v : *vs) selected[static_cast<size_t>(v)] = true;

  for (int iter = 0; iter < max_iters; ++iter) {
    rest->Pin(*vs);
    const double current_p = RemainderProba(rest.get(), *vs, label);

    // Precompute the eviction order once per iteration: residents sorted by
    // how little their membership matters for the flip — lower
    // p(V_S \ {i}) means the flip does not need node i.
    std::vector<std::pair<double, size_t>> eviction_order;
    eviction_order.reserve(vs->size());
    for (size_t i = 0; i < vs->size(); ++i) {
      std::vector<NodeId> without = *vs;
      without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
      eviction_order.push_back(
          {RemainderProba(rest.get(), without, label), i});
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
      const double p = RemainderProba(rest.get(), trial, label);
      if (p < best_p) {
        best_p = p;
        best_vs = std::move(trial);
      }
    }
    if (best_vs.empty()) break;  // no improving move
    std::fill(selected.begin(), selected.end(), false);
    *vs = std::move(best_vs);
    for (NodeId v : *vs) selected[static_cast<size_t>(v)] = true;
    if (IsCounterfactual(rest.get(), *vs, label)) {
      std::sort(vs->begin(), vs->end());
      return true;
    }
  }
  std::sort(vs->begin(), vs->end());
  return IsCounterfactual(rest.get(), *vs, label);
}

}  // namespace gvex
