// Node-classification support (Table 1: GVEX handles GC and NC): a product
// co-purchase network with per-node categories is converted into ego-network
// graph classification (the paper's PRODUCTS protocol, §6.2), a GCN is
// trained on it, and explanation views are generated per category.

#include <cstdio>

#include "data/ego_networks.h"
#include "explain/approx_gvex.h"
#include "explain/metrics.h"
#include "gnn/trainer.h"
#include "util/rng.h"

using namespace gvex;

namespace {

// Builds one large co-purchase graph with 3 category communities.
Graph MakeCoPurchaseNetwork(std::vector<int>* labels, int per_category = 60) {
  Graph g;
  Rng rng(404);
  const int categories = 3;
  labels->clear();
  // Dense intra-category co-purchases.
  for (int c = 0; c < categories; ++c) {
    const int base = c * per_category;
    for (int i = 0; i < per_category; ++i) {
      g.AddNode(c);
      labels->push_back(c);
      if (i >= 1) {
        const int links = static_cast<int>(rng.NextInt(1, 3));
        for (int l = 0; l < links; ++l) {
          NodeId t = base + static_cast<NodeId>(
                                rng.NextUint(static_cast<uint64_t>(i)));
          (void)g.AddEdge(base + i, t);
        }
      }
    }
  }
  // Sparse cross-category purchases.
  for (int k = 0; k < per_category / 2; ++k) {
    NodeId u = static_cast<NodeId>(
        rng.NextUint(static_cast<uint64_t>(g.num_nodes())));
    NodeId v = static_cast<NodeId>(
        rng.NextUint(static_cast<uint64_t>(g.num_nodes())));
    if (u != v) (void)g.AddEdge(u, v);
  }
  (void)g.SetOneHotFeaturesFromTypes(categories);
  return g;
}

}  // namespace

int main() {
  std::printf("=== Node classification via ego networks (PRODUCTS protocol) "
              "===\n\n");
  std::vector<int> node_labels;
  Graph network = MakeCoPurchaseNetwork(&node_labels);
  std::printf("Co-purchase network: %d products, %d edges, 3 categories\n",
              network.num_nodes(), network.num_edges());

  EgoNetworkOptions ego_opt;
  ego_opt.hops = 2;
  ego_opt.max_networks = 60;
  ego_opt.max_nodes_per_ego = 40;
  auto db_result = BuildEgoNetworkDatabase(network, node_labels, ego_opt);
  if (!db_result.ok()) {
    std::printf("ego extraction failed: %s\n",
                db_result.status().ToString().c_str());
    return 1;
  }
  GraphDatabase db = std::move(db_result).value();
  auto stats = db.ComputeStats();
  std::printf("Ego-network database: %d subgraphs, avg %.1f nodes\n\n",
              stats.num_graphs, stats.avg_nodes);

  GcnConfig cfg;
  cfg.input_dim = 3;
  cfg.hidden_dim = 32;
  cfg.num_classes = 3;
  Rng rng(17);
  GcnModel model(cfg, &rng);
  std::vector<int> all;
  for (int i = 0; i < db.size(); ++i) all.push_back(i);
  TrainConfig tc;
  tc.epochs = 120;
  auto report = TrainGcn(&model, db, all, tc);
  std::printf("GCN (node-classifier surrogate) train accuracy: %.2f\n\n",
              report.ok() ? report.value().train_accuracy : 0.0f);
  const Status labelled = AssignPredictedLabels(model, &db);
  if (!labelled.ok()) {
    std::fprintf(stderr, "labelling failed: %s\n",
                 labelled.ToString().c_str());
    return 1;
  }

  Configuration config;
  config.theta = 0.05f;
  config.r = 0.3f;
  config.default_bound = {2, 8};
  config.miner.max_pattern_nodes = 3;
  ApproxGvex gvex(&model, config);
  for (int category : db.DistinctLabels()) {
    auto view = gvex.GenerateView(db, category);
    if (!view.ok()) {
      std::printf("category %d: %s\n", category,
                  view.status().ToString().c_str());
      continue;
    }
    std::printf("category %d: %s\n  Fidelity+ %.3f, Sparsity %.3f\n",
                category, view.value().Summary().c_str(),
                FidelityPlus(model, db, view.value().subgraphs),
                Sparsity(db, view.value().subgraphs));
  }
  return 0;
}
