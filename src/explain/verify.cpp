#include "explain/verify.h"

#include "graph/subgraph.h"
#include "pattern/coverage.h"
#include "util/string_util.h"

namespace gvex {

namespace {

// M(G_s): the label of the subgraph induced by `nodes`.
Result<int> SubgraphLabel(const GnnClassifier& model, const Graph& g,
                          const std::vector<NodeId>& nodes) {
  auto sub = ExtractInducedSubgraph(g, nodes);
  if (!sub.ok()) return sub.status();
  return model.Predict(sub.value().graph);
}

// M(G \ G_s), through the model's remainder predictor.
Result<int> RemainderLabel(const GnnClassifier& model, const Graph& g,
                           const std::vector<NodeId>& nodes) {
  auto p = model.MakeRemainderPredictor(g)->ProbaWithout(nodes);
  if (!p.ok()) return p.status();
  return ArgMax(p.value());
}

}  // namespace

Result<EVerifyResult> EVerify(const GnnClassifier& model, const Graph& g,
                              const std::vector<NodeId>& nodes, int label) {
  auto sub = SubgraphLabel(model, g, nodes);
  if (!sub.ok()) return sub.status();
  auto rest = RemainderLabel(model, g, nodes);
  if (!rest.ok()) return rest.status();
  EVerifyResult out;
  out.subgraph_label = sub.value();
  out.remainder_label = rest.value();
  out.consistent = out.subgraph_label == label;
  out.counterfactual = out.remainder_label != label;
  return out;
}

bool VpExtend(const GnnClassifier& model, const Graph& g,
              const std::vector<NodeId>& vs, NodeId v, int label,
              const Configuration& config) {
  const CoverageBound& bound = config.BoundFor(label);
  // |V_t| = |V_S ∪ {v}| must stay within the upper bound (Procedure 2 l.5).
  if (static_cast<int>(vs.size()) + 1 > bound.upper) return false;
  if (config.verify_mode == VerifyMode::kRelaxed) return true;

  // Each mode runs only the inferences it reads: G_t first, then G \ G_t
  // (the graph's largest) only under kStrict and only for a consistent G_t.
  std::vector<NodeId> vt = vs;
  vt.push_back(v);
  auto sub = SubgraphLabel(model, g, vt);
  if (!sub.ok()) return false;
  const bool consistent = sub.value() == label;
  switch (config.verify_mode) {
    case VerifyMode::kStrict: {
      // Procedure 2 line 2, verbatim.
      if (!consistent) return false;
      auto rest = RemainderLabel(model, g, vt);
      return rest.ok() && rest.value() != label;
    }
    case VerifyMode::kConsistentOnly:
      // Require consistency once the subgraph is large enough for the GNN to
      // read anything meaningful; counterfactuality is reported at the end.
      if (static_cast<int>(vt.size()) < 2) return true;
      return consistent;
    case VerifyMode::kRelaxed:
      return true;
  }
  return false;
}

ViewVerification VerifyView(const GnnClassifier& model, const GraphDatabase& db,
                            const ExplanationView& view,
                            const Configuration& config) {
  ViewVerification out;
  const CoverageBound& bound = config.BoundFor(view.label);

  // C3: per-subgraph node counts within [b_l, u_l].
  out.properly_covers = true;
  for (const auto& s : view.subgraphs) {
    const int n = static_cast<int>(s.nodes.size());
    if (n < bound.lower || n > bound.upper) {
      out.properly_covers = false;
      out.detail = StrFormat("subgraph of graph %d has %d nodes outside [%d,%d]",
                             s.graph_index, n, bound.lower, bound.upper);
      break;
    }
  }

  // C2: consistency + counterfactual via EVerify on each subgraph.
  out.is_explanation_view = true;
  for (const auto& s : view.subgraphs) {
    if (s.graph_index < 0 || s.graph_index >= db.size()) {
      out.is_explanation_view = false;
      out.detail = StrFormat("subgraph references invalid graph %d",
                             s.graph_index);
      break;
    }
    auto ev = EVerify(model, db.graph(s.graph_index), s.nodes, view.label);
    if (!ev.ok() || !ev.value().consistent || !ev.value().counterfactual) {
      out.is_explanation_view = false;
      if (out.detail.empty()) {
        out.detail = StrFormat("subgraph of graph %d fails C2 (consistent=%d, "
                               "counterfactual=%d)",
                               s.graph_index,
                               ev.ok() ? ev.value().consistent : -1,
                               ev.ok() ? ev.value().counterfactual : -1);
      }
      break;
    }
  }

  // C1: every node of every subgraph covered by the pattern set (PMatch).
  std::vector<const Graph*> subgraphs;
  subgraphs.reserve(view.subgraphs.size());
  for (const auto& s : view.subgraphs) subgraphs.push_back(&s.subgraph);
  MatchOptions mopt;
  mopt.semantics = config.miner.semantics;
  out.is_graph_view = PatternsCoverAllNodes(view.patterns, subgraphs, mopt);
  if (!out.is_graph_view && out.detail.empty()) {
    out.detail = "patterns do not cover all subgraph nodes (C1)";
  }
  return out;
}

}  // namespace gvex
