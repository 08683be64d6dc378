// StreamGVEX anytime demo: processes one graph's node stream and snapshots
// the maintained explanation view after every batch of nodes — the
// interrupt-and-inspect workflow §5 motivates.

#include <cstdio>

#include "data/datasets.h"
#include "data/motifs.h"
#include "explain/stream_gvex.h"
#include "gnn/trainer.h"

using namespace gvex;

int main() {
  std::printf("=== StreamGVEX anytime explanation maintenance ===\n\n");
  DatasetScale scale;
  scale.num_graphs = 40;
  GraphDatabase db = MakeDataset(DatasetId::kMutagenicity, scale);

  GcnConfig gcn;
  gcn.input_dim = kNumAtomTypes;
  gcn.hidden_dim = 32;
  gcn.num_classes = 2;
  Rng rng(19);
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

  Configuration config;
  config.theta = 0.08f;
  config.r = 0.25f;
  config.default_bound = {2, 8};
  config.miner.max_pattern_nodes = 3;

  const int kMutagen = 1;
  const int gi = db.LabelGroup(kMutagen).front();
  const Graph& g = db.graph(gi);
  std::printf("Streaming the %d nodes of mutagen graph #%d in batches:\n\n",
              g.num_nodes(), gi);

  StreamGraphState state(&model, &g, gi, kMutagen, &config);
  const int batch = std::max(1, g.num_nodes() / 5);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    state.ProcessNode(v);
    if ((v + 1) % batch == 0 || v + 1 == g.num_nodes()) {
      auto snap = state.Snapshot();
      if (snap.ok()) {
        std::printf("  after %2d/%d nodes: |V_S|=%zu, f=%.4f, patterns=%zu, "
                    "counterfactual=%d\n",
                    v + 1, g.num_nodes(), snap.value().nodes.size(),
                    snap.value().explainability, state.patterns().size(),
                    snap.value().counterfactual);
      } else {
        std::printf("  after %2d/%d nodes: (no selection yet)\n", v + 1,
                    g.num_nodes());
      }
    }
  }
  state.Finalize();
  auto final_snap = state.Snapshot();
  if (final_snap.ok()) {
    std::printf("\nFinal explanation subgraph atoms: ");
    for (NodeId v : final_snap.value().nodes) {
      std::printf("%s ", TypeName(AtomVocab(), g.node_type(v)).c_str());
    }
    std::printf("\nFinal pattern tier (%zu patterns):\n",
                state.patterns().size());
    for (const Pattern& p : state.patterns()) {
      std::printf("  %s\n", RenderPattern(p, AtomVocab()).c_str());
    }
  }
  return 0;
}
