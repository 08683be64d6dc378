// Quickstart: the full GVEX workflow in one file.
//   1. Generate a molecule database (MUT-like) and train a GCN classifier.
//   2. Generate an explanation view for the "mutagen" label with ApproxGVEX.
//   3. Verify the view (C1-C3), inspect quality metrics, and query it.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "data/datasets.h"
#include "data/motifs.h"
#include "explain/approx_gvex.h"
#include "explain/metrics.h"
#include "explain/verify.h"
#include "gnn/trainer.h"
#include "serve/view_service.h"

using namespace gvex;

int main() {
  // 1. Data + classifier. ---------------------------------------------------
  std::printf("Generating MUT-like molecule database...\n");
  DatasetScale scale;
  scale.num_graphs = 60;
  GraphDatabase db = MakeDataset(DatasetId::kMutagenicity, scale);

  GcnConfig gcn;
  gcn.input_dim = SpecFor(DatasetId::kMutagenicity).feature_dim;
  gcn.hidden_dim = 32;
  gcn.num_layers = 3;  // the paper's architecture
  gcn.num_classes = 2;
  Rng rng(7);
  GcnModel model(gcn, &rng);

  std::vector<int> all;
  for (int i = 0; i < db.size(); ++i) all.push_back(i);
  TrainConfig tc;
  tc.epochs = 100;
  auto report = TrainGcn(&model, db, all, tc);
  if (!report.ok()) {
    std::printf("training failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("GCN trained: accuracy %.2f\n", report.value().train_accuracy);
  (void)AssignPredictedLabels(model, &db);

  // 2. Explanation view for the mutagen class. ------------------------------
  Configuration config;
  config.theta = 0.08f;              // influence threshold (Eq. 5)
  config.r = 0.25f;                  // diversity radius (Eq. 6)
  config.gamma = 0.5f;               // influence/diversity trade-off
  config.default_bound = {2, 10};    // coverage constraint [b_l, u_l]
  config.miner.max_pattern_nodes = 3;

  const int kMutagen = 1;
  ApproxGvex gvex(&model, config);
  auto view = gvex.GenerateView(db, kMutagen);
  if (!view.ok()) {
    std::printf("view generation failed: %s\n",
                view.status().ToString().c_str());
    return 1;
  }
  std::printf("\n%s\n", view.value().Summary().c_str());
  std::printf("Patterns (higher tier):\n");
  for (const Pattern& p : view.value().patterns) {
    std::printf("  %s\n", RenderPattern(p, AtomVocab()).c_str());
  }

  // 3. Verification, metrics, querying. -------------------------------------
  ViewVerification check = VerifyView(model, db, view.value(), config);
  std::printf("\nView verification: graph_view=%d explanation_view=%d "
              "properly_covers=%d\n",
              check.is_graph_view, check.is_explanation_view,
              check.properly_covers);

  std::printf("Fidelity+ = %.3f   Fidelity- = %.3f   Sparsity = %.3f   "
              "Compression = %.3f\n",
              FidelityPlus(model, db, view.value().subgraphs),
              FidelityMinus(model, db, view.value().subgraphs),
              Sparsity(db, view.value().subgraphs),
              Compression(view.value()));

  ViewService service(&db);
  auto admitted = service.AdmitViews({view.value()});
  if (!admitted.ok()) {
    std::fprintf(stderr, "admission failed: %s\n",
                 admitted.status().ToString().c_str());
    return 1;
  }
  const auto patterns = service.PatternsForLabel(kMutagen);
  if (!patterns.empty()) {
    auto graphs = service.GraphsWithPattern(kMutagen, patterns.front());
    std::printf("\nQuery: graphs whose explanation contains pattern #0 -> "
                "%zu graphs\n",
                graphs.size());
  }
  std::printf("\nDone.\n");
  return 0;
}
