#include "explain/metrics.h"

#include "pattern/coverage.h"

namespace gvex {

double FidelityPlus(const GnnClassifier& model, const GraphDatabase& db,
                    const std::vector<ExplanationSubgraph>& explanations) {
  if (explanations.empty()) return 0.0;
  double total = 0.0;
  int counted = 0;
  for (const auto& ex : explanations) {
    const Graph& g = db.graph(ex.graph_index);
    const int l = model.Predict(g);
    const double orig = model.ProbaOf(g, l);
    auto rest = model.MakeRemainderPredictor(g)->ProbaWithout(ex.nodes);
    if (!rest.ok()) continue;
    const double masked = GnnClassifier::ProbaAt(rest.value(), l);
    total += orig - masked;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / counted;
}

double FidelityMinus(const GnnClassifier& model, const GraphDatabase& db,
                     const std::vector<ExplanationSubgraph>& explanations) {
  if (explanations.empty()) return 0.0;
  double total = 0.0;
  int counted = 0;
  for (const auto& ex : explanations) {
    const Graph& g = db.graph(ex.graph_index);
    const int l = model.Predict(g);
    const double orig = model.ProbaOf(g, l);
    const double sub = model.ProbaOf(ex.subgraph, l);
    total += orig - sub;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / counted;
}

double Sparsity(const GraphDatabase& db,
                const std::vector<ExplanationSubgraph>& explanations) {
  if (explanations.empty()) return 0.0;
  double total = 0.0;
  int counted = 0;
  for (const auto& ex : explanations) {
    const Graph& g = db.graph(ex.graph_index);
    const int denom = g.num_nodes() + g.num_edges();
    if (denom == 0) continue;
    const int numer = ex.subgraph.num_nodes() + ex.subgraph.num_edges();
    total += 1.0 - static_cast<double>(numer) / denom;
    ++counted;
  }
  return counted == 0 ? 0.0 : total / counted;
}

double Compression(const ExplanationView& view) {
  const int sub = view.TotalSubgraphNodes() + view.TotalSubgraphEdges();
  if (sub == 0) return 0.0;
  const int pat = view.TotalPatternNodes() + view.TotalPatternEdges();
  return 1.0 - static_cast<double>(pat) / sub;
}

double EdgeLoss(const ExplanationView& view) {
  int total_edges = 0;
  int covered = 0;
  for (const auto& s : view.subgraphs) {
    total_edges += s.subgraph.num_edges();
    CoverageMask m = ComputeCoverage(view.patterns, s.subgraph);
    covered += m.CountEdges();
  }
  if (total_edges == 0) return 0.0;
  return 1.0 - static_cast<double>(covered) / total_edges;
}

}  // namespace gvex
