// Model-agnosticism bench (extension; Table 1's "MA" property): GVEX
// explains four different trained architectures — GCN, GIN, GraphSAGE, and
// edge-type-aware R-GCN — through the same black-box interface, on the MUT
// workload. Fidelity shapes should hold across architectures.

#include <cstdio>

#include "common.h"
#include "data/mutagenicity.h"
#include "explain/approx_gvex.h"
#include "explain/metrics.h"
#include "gnn/gin_model.h"
#include "gnn/rgcn_model.h"
#include "gnn/sage_model.h"
#include "gnn/trainer.h"
#include "util/timer.h"

using namespace gvex;

namespace {

struct Row {
  std::string arch;
  float accuracy = 0.0f;
  double fid_plus = 0.0;
  double fid_minus = 0.0;
  double sparsity = 0.0;
  double seconds = 0.0;
};

template <typename Model>
Row Evaluate(const std::string& arch, Model* model, GraphDatabase* db) {
  Row row;
  row.arch = arch;
  std::vector<int> all;
  for (int i = 0; i < db->size(); ++i) all.push_back(i);
  TrainConfig tc;
  tc.epochs = 100;
  tc.batch_size = 16;
  auto report = TrainAnyModel(model, *db, all, tc);
  row.accuracy = report.ok() ? report.value().train_accuracy : 0.0f;
  (void)AssignPredictedLabels(*model, db);

  Configuration config;
  config.theta = 0.08f;
  config.r = 0.25f;
  config.default_bound = {0, 10};
  config.miner.max_pattern_nodes = 3;
  ApproxGvex algo(model, config);
  Timer timer;
  std::vector<ExplanationSubgraph> explanations;
  for (int gi : bench::CappedGroup(*db, 1, 8)) {
    auto ex = algo.ExplainGraph(db->graph(gi), gi, 1);
    if (ex.ok()) explanations.push_back(std::move(ex).value());
  }
  row.seconds = timer.ElapsedSec();
  row.fid_plus = FidelityPlus(*model, *db, explanations);
  row.fid_minus = FidelityMinus(*model, *db, explanations);
  row.sparsity = Sparsity(*db, explanations);
  return row;
}

}  // namespace

int main() {
  MutagenicityOptions mopt;
  mopt.num_graphs = 60;
  GraphDatabase base_db = GenerateMutagenicity(mopt);
  const int in_dim = base_db.graph(0).feature_dim();

  std::vector<Row> rows;
  {
    GcnConfig cfg;
    cfg.input_dim = in_dim;
    cfg.hidden_dim = 32;
    cfg.num_classes = 2;
    Rng rng(1);
    GcnModel model(cfg, &rng);
    GraphDatabase db = base_db;
    rows.push_back(Evaluate("GCN", &model, &db));
  }
  {
    GinConfig cfg;
    cfg.input_dim = in_dim;
    cfg.hidden_dim = 32;
    cfg.num_layers = 2;
    cfg.num_classes = 2;
    Rng rng(2);
    GinModel model(cfg, &rng);
    GraphDatabase db = base_db;
    rows.push_back(Evaluate("GIN", &model, &db));
  }
  {
    SageConfig cfg;
    cfg.input_dim = in_dim;
    cfg.hidden_dim = 32;
    cfg.num_layers = 2;
    cfg.num_classes = 2;
    Rng rng(3);
    SageModel model(cfg, &rng);
    GraphDatabase db = base_db;
    rows.push_back(Evaluate("GraphSAGE", &model, &db));
  }
  {
    RgcnConfig cfg;
    cfg.input_dim = in_dim;
    cfg.hidden_dim = 32;
    cfg.num_layers = 2;
    cfg.num_classes = 2;
    cfg.num_edge_types = 1;
    Rng rng(4);
    RgcnModel model(cfg, &rng);
    GraphDatabase db = base_db;
    rows.push_back(Evaluate("R-GCN", &model, &db));
  }

  bench::PrintHeader(
      "Model-agnosticism: ApproxGVEX across architectures (MUT, u_l = 10)");
  Table table({"Architecture", "Train acc", "Fidelity+", "Fidelity-",
               "Sparsity", "Explain sec"});
  for (const Row& row : rows) {
    table.AddRow({row.arch, FmtDouble(row.accuracy, 3),
                  FmtDouble(row.fid_plus, 3), FmtDouble(row.fid_minus, 3),
                  FmtDouble(row.sparsity, 3), FmtDouble(row.seconds, 3)});
  }
  std::printf("%s", table.ToText().c_str());
  return 0;
}
