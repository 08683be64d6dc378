// Case study 1 (Fig. 10): GNN-based drug design. Compares the explanation
// subgraphs different explainers identify for one mutagen, and shows that
// GVEX's two-tier view isolates the real toxicophore (the nitro group NO2)
// as a queryable pattern, answering "which toxicophores occur in mutagens?".

#include <cstdio>

#include "baselines/gnn_explainer.h"
#include "baselines/subgraphx.h"
#include "baselines/xgnn.h"
#include "data/datasets.h"
#include "data/motifs.h"
#include "explain/approx_gvex.h"
#include "gnn/trainer.h"
#include "pattern/gspan.h"
#include "serve/view_service.h"

using namespace gvex;

namespace {

void DescribeExplanation(const char* method, const Graph& g,
                         const ExplanationSubgraph& ex) {
  std::printf("%-14s selects %2zu atoms: ", method, ex.nodes.size());
  for (NodeId v : ex.nodes) {
    std::printf("%s ", TypeName(AtomVocab(), g.node_type(v)).c_str());
  }
  std::printf(" (consistent=%d counterfactual=%d)\n", ex.consistent,
              ex.counterfactual);
}

Pattern NitroPattern() {
  Graph g;
  NodeId n = g.AddNode(kNitrogen);
  (void)g.AddEdge(n, g.AddNode(kOxygen));
  (void)g.AddEdge(n, g.AddNode(kOxygen));
  return std::move(Pattern::Create(std::move(g))).value();
}

}  // namespace

int main() {
  std::printf("=== Case study: GNN-based drug design (Fig. 10) ===\n\n");
  DatasetScale scale;
  scale.num_graphs = 60;
  GraphDatabase db = MakeDataset(DatasetId::kMutagenicity, scale);

  GcnConfig gcn;
  gcn.input_dim = kNumAtomTypes;
  gcn.hidden_dim = 32;
  gcn.num_classes = 2;
  Rng rng(7);
  GcnModel model(gcn, &rng);
  std::vector<int> all;
  for (int i = 0; i < db.size(); ++i) all.push_back(i);
  TrainConfig tc;
  tc.epochs = 100;
  (void)TrainGcn(&model, db, all, tc);
  const Status labelled = AssignPredictedLabels(model, &db);
  if (!labelled.ok()) {
    std::fprintf(stderr, "labelling failed: %s\n",
                 labelled.ToString().c_str());
    return 1;
  }

  const int kMutagen = 1;
  const int gi = db.LabelGroup(kMutagen).front();
  const Graph& g = db.graph(gi);
  std::printf("Explaining mutagen graph #%d (%d atoms, %d bonds)\n\n", gi,
              g.num_nodes(), g.num_edges());

  // GVEX.
  Configuration config;
  config.theta = 0.08f;
  config.r = 0.25f;
  config.default_bound = {2, 8};
  config.miner.max_pattern_nodes = 3;
  ApproxGvex gvex(&model, config);
  auto gvex_ex = gvex.ExplainGraph(g, gi, kMutagen);

  // Baselines.
  GnnExplainerOptions ge_opt;
  ge_opt.epochs = 60;
  GnnExplainer ge(&model, ge_opt);
  auto ge_ex = ge.Explain(g, gi, kMutagen, 14);  // paper: GE needs 14 atoms
  SubgraphX sx(&model);
  auto sx_ex = sx.Explain(g, gi, kMutagen, 10);

  if (gvex_ex.ok()) DescribeExplanation("GVEX", g, gvex_ex.value());
  if (ge_ex.ok()) DescribeExplanation("GNNExplainer", g, ge_ex.value());
  if (sx_ex.ok()) DescribeExplanation("SubgraphX", g, sx_ex.value());

  // The two-tier view over the whole mutagen group.
  auto view = gvex.GenerateView(db, kMutagen);
  if (view.ok()) {
    std::printf("\nGVEX pattern tier for label 'mutagen':\n");
    for (const Pattern& p : view.value().patterns) {
      std::printf("  %s\n", RenderPattern(p, AtomVocab()).c_str());
    }
    ViewService service(&db);
    auto admitted = service.AdmitViews({view.value()});
    if (!admitted.ok()) {
      std::fprintf(stderr, "admission failed: %s\n",
                   admitted.status().ToString().c_str());
      return 1;
    }
    Pattern nitro = NitroPattern();
    std::printf("\nQuery: 'which mutagens contain the toxicophore NO2?'\n");
    auto hits = service.DatabaseGraphsWithPattern(nitro, kMutagen);
    std::printf("  -> %zu of %zu mutagens\n", hits.size(),
                db.LabelGroup(kMutagen).size());
    std::printf("Query: 'which NONmutagens contain NO2?'\n");
    auto misses = service.DatabaseGraphsWithPattern(nitro, 0);
    std::printf("  -> %zu (the toxicophore is discriminative)\n",
                misses.size());
  }

  // Ring mining with the gSpan engine (Fig. 10's carbon-ring pattern P32:
  // the level-wise miner only produces trees; gSpan closes cycles).
  std::printf("\ngSpan ring mining over the mutagen molecules:\n");
  std::vector<const Graph*> mutagens;
  for (int mi : db.LabelGroup(kMutagen)) mutagens.push_back(&db.graph(mi));
  MinerOptions gspan_opt;
  gspan_opt.engine = MinerEngine::kGspan;
  gspan_opt.max_pattern_nodes = 6;
  gspan_opt.min_pattern_nodes = 6;
  gspan_opt.min_support = static_cast<int>(mutagens.size());
  auto rings = MineGspan(mutagens, gspan_opt);
  for (const auto& mp : rings) {
    if (mp.pattern.num_edges() >= mp.pattern.num_nodes()) {
      std::printf("  cyclic pattern found: %s (support %d/%zu)\n",
                  RenderPattern(mp.pattern, AtomVocab()).c_str(), mp.support,
                  mutagens.size());
      break;
    }
  }

  // Model-level explanation (XGNN): what does the classifier think a
  // mutagen looks like, with no input molecule at all?
  Xgnn xgnn(&model, &db);
  auto proto = xgnn.Generate(kMutagen);
  if (proto.ok()) {
    std::printf("\nXGNN model-level prototype for 'mutagen' "
                "(P(mutagen)=%.3f):\n  %s\n",
                proto.value().probability,
                RenderPattern(proto.value().pattern, AtomVocab()).c_str());
  }
  return 0;
}
