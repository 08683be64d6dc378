#include "baselines/gcf_explainer.h"

#include <algorithm>
#include <memory>

#include "graph/subgraph.h"
#include "util/rng.h"

namespace gvex {

namespace {

struct SearchResult {
  std::vector<NodeId> deleted;
  double remaining_p = 1.0;
  bool flipped = false;
};

// One greedy counterfactual-deletion search. `noise` perturbs the greedy
// choice (restart diversification).
SearchResult GreedySearch(const GnnClassifier& model, const Graph& g, int label,
                          int budget, double noise, Rng* rng) {
  SearchResult result;
  std::vector<NodeId> remaining(static_cast<size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    remaining[static_cast<size_t>(v)] = v;
  }
  // Every trial deletes one node more than the pinned deletion set.
  std::unique_ptr<RemainderPredictor> remainder =
      model.MakeRemainderPredictor(g);
  for (int round = 0; round < budget; ++round) {
    double best_p = 2.0;
    size_t best_idx = 0;
    remainder->Pin(result.deleted);
    for (size_t i = 0; i < remaining.size(); ++i) {
      std::vector<NodeId> del = result.deleted;
      del.push_back(remaining[i]);
      auto rest = remainder->ProbaWithout(del);
      if (!rest.ok()) continue;
      double p = GnnClassifier::ProbaAt(rest.value(), label);
      if (noise > 0.0) p += noise * rng->NextDouble();
      if (p < best_p) {
        best_p = p;
        best_idx = i;
      }
    }
    result.deleted.push_back(remaining[best_idx]);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(best_idx));
    auto rest = remainder->ProbaWithout(result.deleted);
    if (rest.ok()) {
      result.remaining_p = GnnClassifier::ProbaAt(rest.value(), label);
      if (ArgMax(rest.value()) != label) {
        result.flipped = true;
        break;
      }
    }
  }
  return result;
}

}  // namespace

GcfExplainer::GcfExplainer(const GnnClassifier* model, GcfExplainerOptions options)
    : model_(model), options_(options) {}

Result<ExplanationSubgraph> GcfExplainer::Explain(const Graph& g,
                                                  int graph_index, int label,
                                                  int max_nodes) {
  if (g.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  Rng rng(options_.seed + static_cast<uint64_t>(graph_index));
  const int budget = std::min(
      {max_nodes, options_.max_deletions, g.num_nodes() - 1});

  SearchResult best;
  bool have_best = false;
  const int restarts = std::max(1, options_.restarts);
  for (int r = 0; r < restarts; ++r) {
    SearchResult res =
        GreedySearch(*model_, g, label, budget, r == 0 ? 0.0 : 0.05, &rng);
    const bool better =
        !have_best ||
        (res.flipped && !best.flipped) ||
        (res.flipped == best.flipped &&
         (res.deleted.size() < best.deleted.size() ||
          (res.deleted.size() == best.deleted.size() &&
           res.remaining_p < best.remaining_p)));
    if (better) {
      best = std::move(res);
      have_best = true;
    }
  }

  std::sort(best.deleted.begin(), best.deleted.end());
  ExplanationSubgraph out;
  out.graph_index = graph_index;
  out.nodes = best.deleted;
  auto sub = ExtractInducedSubgraph(g, out.nodes);
  if (!sub.ok()) return sub.status();
  out.subgraph = std::move(sub.value().graph);
  AnnotateVerification(*model_, g, &out, label);
  return out;
}

}  // namespace gvex
