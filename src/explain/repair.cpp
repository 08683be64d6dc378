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
  // One predictor per call: every probe below differs from the set pinned
  // for its eviction count by its own group.
  std::unique_ptr<RemainderPredictor> rest = model.MakeRemainderPredictor(g);
  if (IsCounterfactual(rest.get(), *vs, label)) return true;
  std::vector<bool> selected(static_cast<size_t>(g.num_nodes()), false);
  for (NodeId v : *vs) selected[static_cast<size_t>(v)] = true;

  struct Candidate {
    int k;  // residents evicted: the first k of eviction_order
    NodeId v;
    std::vector<NodeId> group;
  };
  std::vector<Candidate> candidates;
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

    // Every candidate group: the trial set is V_S ∪ group with the k
    // least-flip-useful residents evicted to respect the upper bound.
    candidates.clear();
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (selected[static_cast<size_t>(v)]) continue;
      std::vector<NodeId> group = GroupOf(g, v, selected);
      if (static_cast<int>(group.size()) > bound.upper) continue;
      const int excess = static_cast<int>(vs->size() + group.size()) -
                         bound.upper;
      if (excess > static_cast<int>(vs->size())) continue;
      candidates.push_back({std::max(excess, 0), v, std::move(group)});
    }
    // Probe by eviction count, ascending: with the kept residents pinned,
    // a probe toggles only its own group. The move is the lowest p below
    // current_p, ties to the lowest v, as a strict scan in v order picks.
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.k < b.k;
                     });
    // The residents left after evicting the first k of eviction_order, in
    // V_S order: the next iteration's eviction ties read that order.
    auto kept_after = [&](int k) {
      std::vector<bool> evicted(vs->size(), false);
      for (int i = 0; i < k; ++i) {
        evicted[eviction_order[static_cast<size_t>(i)].second] = true;
      }
      std::vector<NodeId> kept;
      kept.reserve(static_cast<size_t>(bound.upper));
      for (size_t i = 0; i < vs->size(); ++i) {
        if (!evicted[i]) kept.push_back((*vs)[i]);
      }
      return kept;
    };
    double best_p = current_p;
    const Candidate* best = nullptr;
    std::vector<NodeId> kept;
    std::vector<NodeId> trial;
    for (size_t c = 0; c < candidates.size(); ++c) {
      const Candidate& cand = candidates[c];
      if (c == 0 || cand.k != candidates[c - 1].k) {
        kept = kept_after(cand.k);
        rest->Pin(kept);
      }
      trial = kept;
      trial.insert(trial.end(), cand.group.begin(), cand.group.end());
      const double p = RemainderProba(rest.get(), trial, label);
      if (p < best_p || (best != nullptr && p == best_p && cand.v < best->v)) {
        best_p = p;
        best = &cand;
      }
    }
    if (best == nullptr) break;  // no improving move
    std::fill(selected.begin(), selected.end(), false);
    *vs = kept_after(best->k);
    vs->insert(vs->end(), best->group.begin(), best->group.end());
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
