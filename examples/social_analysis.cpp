// Case study 2 (Fig. 11): GNN-based social analysis on the REDDIT-like
// dataset, under three configuration scenarios: the user cares about (a)
// only online-discussion threads, (b) only Q&A threads, (c) both classes.
// Expected structure: star-like patterns explain discussions; biclique-like
// patterns explain Q&A.

#include <cstdio>

#include "data/datasets.h"
#include "explain/approx_gvex.h"
#include "gnn/trainer.h"
#include "pattern/miner.h"
#include "serve/view_service.h"

using namespace gvex;

namespace {

// Describes the motif shape of a small pattern (Fig. 11 vocabulary).
const char* ShapeOf(const Pattern& p) {
  const Graph& g = p.graph();
  int max_deg = 0;
  int deg1 = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    max_deg = std::max(max_deg, g.degree(v));
    if (g.degree(v) == 1) ++deg1;
  }
  if (max_deg >= 3 && deg1 == g.num_nodes() - 1) return "star (P61-like)";
  if (g.num_edges() > g.num_nodes()) return "dense/biclique (P81-like)";
  if (g.num_edges() == g.num_nodes()) return "cycle";
  return "path/tree";
}

void DescribeView(const ExplanationView& view, const char* class_name) {
  std::printf("Label '%s': %zu subgraphs, %zu covering patterns\n",
              class_name, view.subgraphs.size(), view.patterns.size());
  // Surface motif-scale representative patterns from the explanation
  // subgraphs (min 4 nodes): the structures Fig. 11 visualizes.
  std::vector<const Graph*> subs;
  for (const auto& s : view.subgraphs) subs.push_back(&s.subgraph);
  MinerOptions mopt;
  mopt.min_pattern_nodes = 3;
  mopt.max_pattern_nodes = 5;
  mopt.min_support = std::max<int>(1, static_cast<int>(subs.size()) / 4);
  auto mined = MinePatterns(subs, mopt);
  const size_t show = std::min<size_t>(3, mined.size());
  for (size_t i = 0; i < show; ++i) {
    const auto& mp = mined[i];
    std::printf("  representative pattern: n=%d m=%d support=%d  -> %s\n",
                mp.pattern.num_nodes(), mp.pattern.num_edges(), mp.support,
                ShapeOf(mp.pattern));
  }
}

}  // namespace

int main() {
  std::printf("=== Case study: GNN-based social analysis (Fig. 11) ===\n\n");
  DatasetScale scale;
  scale.num_graphs = 30;
  GraphDatabase db = MakeDataset(DatasetId::kReddit, scale);

  GcnConfig gcn;
  gcn.input_dim = SpecFor(DatasetId::kReddit).feature_dim;
  gcn.hidden_dim = 32;
  gcn.num_classes = 2;
  Rng rng(11);
  GcnModel model(gcn, &rng);
  std::vector<int> all;
  for (int i = 0; i < db.size(); ++i) all.push_back(i);
  TrainConfig tc;
  tc.epochs = 80;
  auto report = TrainGcn(&model, db, all, tc);
  std::printf("GCN train accuracy: %.2f\n\n",
              report.ok() ? report.value().train_accuracy : 0.0f);
  const Status labelled = AssignPredictedLabels(model, &db);
  if (!labelled.ok()) {
    std::fprintf(stderr, "labelling failed: %s\n",
                 labelled.ToString().c_str());
    return 1;
  }

  const int kDiscussion = 0;
  const int kQa = 1;

  // Scenario configurations: per-label coverage budgets reflect the user's
  // interest (the "configurable" property of Table 1).
  Configuration config;
  config.theta = 0.05f;
  config.r = 0.3f;
  config.miner.max_pattern_nodes = 4;
  config.coverage[kDiscussion] = {2, 12};
  config.coverage[kQa] = {2, 12};
  ApproxGvex gvex(&model, config);

  std::printf("--- Scenario 1: user cares about discussion threads ---\n");
  auto v_disc = gvex.GenerateView(db, kDiscussion);
  if (v_disc.ok()) DescribeView(v_disc.value(), "online-discussion");

  std::printf("\n--- Scenario 2: user cares about Q&A threads ---\n");
  auto v_qa = gvex.GenerateView(db, kQa);
  if (v_qa.ok()) DescribeView(v_qa.value(), "question-answer");

  std::printf("\n--- Scenario 3: both classes ---\n");
  auto views = gvex.GenerateViews(db, {kDiscussion, kQa});
  if (views.ok()) {
    ViewService service(&db);
    auto admitted = service.AdmitViews(views.value());
    if (!admitted.ok()) {
      std::fprintf(stderr, "admission failed: %s\n",
                   admitted.status().ToString().c_str());
      return 1;
    }
    for (int label : service.Labels()) {
      auto disc = service.DiscriminativePatterns(label);
      std::printf("Label %d: %zu discriminative patterns (occur in no other "
                  "class's explanations)\n",
                  label, disc.size());
    }
  }
  return 0;
}
