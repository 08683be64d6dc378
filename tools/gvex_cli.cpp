// gvex_cli — command-line front end for the full pipeline: generate a
// dataset, train a classifier, generate explanation views, and query them,
// with every artifact persisted as a text file.
//
// Usage:
//   gvex_cli datasets
//   gvex_cli generate --dataset MUT [--num 60] [--out graphs.txt]
//   gvex_cli train    --graphs graphs.txt [--hidden 32] [--epochs 100]
//                     [--out model.txt]
//   gvex_cli explain  --graphs graphs.txt --model model.txt --label 1
//                     [--algo ag|sg] [--engine levelwise|gspan]
//                     [--ul 10] [--theta 0.08] [--r 0.25]
//                     [--out views.txt]
//   gvex_cli query    --views views.txt [--label 1] [--graphs graphs.txt]

#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "data/datasets.h"
#include "explain/approx_gvex.h"
#include "explain/metrics.h"
#include "explain/stream_gvex.h"
#include "explain/view_io.h"
#include "gnn/model_io.h"
#include "gnn/trainer.h"
#include "graph/graph_io.h"
#include "serve/view_service.h"
#include "tool_args.h"
#include "util/string_util.h"

using namespace gvex;

namespace {

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

Result<GraphDatabase> LoadDatabase(const std::string& path) {
  auto graphs = LoadGraphs(path);
  if (!graphs.ok()) return graphs.status();
  GraphDatabase db;
  for (auto& lg : graphs.value()) db.Add(std::move(lg.graph), lg.label);
  return db;
}

int CmdDatasets() {
  std::printf("available datasets (synthetic stand-ins):\n");
  for (const auto& spec : AllDatasets()) {
    std::printf("  %-4s %-14s %d classes, %d features\n",
                spec.abbrev.c_str(), spec.name.c_str(), spec.num_classes,
                spec.feature_dim);
  }
  return 0;
}

int CmdGenerate(const Args& args) {
  auto id = DatasetFromAbbrev(args.Get("dataset", "MUT"));
  if (!id.ok()) return Fail(id.status().ToString());
  DatasetScale scale;
  scale.num_graphs = args.GetInt("num", 0);
  scale.seed = static_cast<uint64_t>(args.GetInt("seed", 0));
  GraphDatabase db = MakeDataset(id.value(), scale);
  std::vector<LabeledGraph> graphs;
  for (int i = 0; i < db.size(); ++i) {
    graphs.push_back({db.graph(i), db.true_label(i)});
  }
  const std::string out = args.Get("out", "graphs.txt");
  Status st = SaveGraphs(out, graphs);
  if (!st.ok()) return Fail(st.ToString());
  auto stats = db.ComputeStats();
  std::printf("wrote %d graphs (avg %.1f nodes, %.1f edges) to %s\n",
              stats.num_graphs, stats.avg_nodes, stats.avg_edges,
              out.c_str());
  return 0;
}

int CmdTrain(const Args& args) {
  auto db = LoadDatabase(args.Get("graphs", "graphs.txt"));
  if (!db.ok()) return Fail(db.status().ToString());
  auto stats = db.value().ComputeStats();
  GcnConfig cfg;
  cfg.input_dim = stats.feature_dim;
  cfg.hidden_dim = args.GetInt("hidden", 32);
  cfg.num_layers = args.GetInt("layers", 3);
  cfg.num_classes = stats.num_classes;
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)));
  GcnModel model(cfg, &rng);
  std::vector<int> all(static_cast<size_t>(db.value().size()));
  std::iota(all.begin(), all.end(), 0);
  TrainConfig tc;
  tc.epochs = args.GetInt("epochs", 100);
  auto report = TrainGcn(&model, db.value(), all, tc);
  if (!report.ok()) return Fail(report.status().ToString());
  const std::string out = args.Get("out", "model.txt");
  Status st = SaveModel(out, model);
  if (!st.ok()) return Fail(st.ToString());
  std::printf("trained GCN (acc %.3f, loss %.4f), saved to %s\n",
              report.value().train_accuracy, report.value().final_loss,
              out.c_str());
  return 0;
}

int CmdExplain(const Args& args) {
  auto db = LoadDatabase(args.Get("graphs", "graphs.txt"));
  if (!db.ok()) return Fail(db.status().ToString());
  auto model = LoadModel(args.Get("model", "model.txt"));
  if (!model.ok()) return Fail(model.status().ToString());
  Status st = AssignPredictedLabels(model.value(), &db.value());
  if (!st.ok()) return Fail(st.ToString());

  Configuration config;
  config.theta = args.GetFloat("theta", 0.08f);
  config.r = args.GetFloat("r", 0.25f);
  config.gamma = args.GetFloat("gamma", 0.5f);
  config.default_bound = {args.GetInt("bl", 0), args.GetInt("ul", 10)};
  config.miner.max_pattern_nodes = args.GetInt("pattern-nodes", 3);
  const std::string engine = args.Get("engine", "levelwise");
  if (engine == "gspan") {
    config.miner.engine = MinerEngine::kGspan;
  } else if (engine != "levelwise") {
    return Fail("unknown --engine '" + engine +
                "' (accepted: levelwise, gspan)");
  }
  const std::string algo = args.Get("algo", "ag");
  if (algo != "ag" && algo != "sg") {
    return Fail("unknown --algo '" + algo + "' (accepted: ag, sg)");
  }

  const int label = args.GetInt("label", 1);
  Result<ExplanationView> view = Status::Internal("unset");
  if (algo == "sg") {
    StreamGvex sg(&model.value(), config);
    view = sg.GenerateView(db.value(), label);
  } else {
    ApproxGvex ag(&model.value(), config);
    view = ag.GenerateView(db.value(), label);
  }
  if (!view.ok()) return Fail(view.status().ToString());

  std::printf("%s\n", view.value().Summary().c_str());
  std::printf("Fidelity+ %.3f  Fidelity- %.3f  Sparsity %.3f  "
              "Compression %.3f  EdgeLoss %.3f\n",
              FidelityPlus(model.value(), db.value(), view.value().subgraphs),
              FidelityMinus(model.value(), db.value(),
                            view.value().subgraphs),
              Sparsity(db.value(), view.value().subgraphs),
              Compression(view.value()), EdgeLoss(view.value()));
  const std::string out = args.Get("out", "views.txt");
  st = SaveViews(out, {view.value()});
  if (!st.ok()) return Fail(st.ToString());
  std::printf("saved view to %s\n", out.c_str());
  return 0;
}

int CmdQuery(const Args& args) {
  auto views = LoadViews(args.Get("views", "views.txt"));
  if (!views.ok()) return Fail(views.status().ToString());

  // Optional database: enables full-data pattern queries through the index.
  GraphDatabase db;
  bool have_db = false;
  if (args.Has("graphs")) {
    auto loaded = LoadDatabase(args.Get("graphs", "graphs.txt"));
    if (!loaded.ok()) return Fail(loaded.status().ToString());
    db = std::move(loaded).value();
    have_db = true;
  }

  // All queries route through the indexed service; the views themselves
  // are only used for the human-readable summaries. One admission: when the
  // file holds two views of a label, the later one is served.
  ViewService service(have_db ? &db : nullptr);
  if (!views.value().empty()) {
    auto admitted = service.AdmitViews(views.value());
    if (!admitted.ok()) return Fail(admitted.status().ToString());
  }

  const int want = args.GetInt("label", -1);
  for (const auto& view : views.value()) {
    if (want >= 0 && view.label != want) continue;
    std::printf("%s\n", view.Summary().c_str());
    const auto patterns = service.PatternsForLabel(view.label);
    for (size_t i = 0; i < patterns.size(); ++i) {
      std::printf("  pattern %zu: %s", i, patterns[i].ToString().c_str());
      if (have_db) {
        std::printf("  [in %zu db graphs]",
                    service.DatabaseGraphsWithPattern(patterns[i]).size());
      }
      std::printf("\n");
    }
    const auto disc = service.DiscriminativePatterns(view.label);
    for (size_t i = 0; i < disc.size(); ++i) {
      std::printf("  discriminative %zu: %s\n", i,
                  disc[i].ToString().c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: gvex_cli <datasets|generate|train|explain|query> "
                "[--key value ...]\n");
    return 1;
  }
  const std::string cmd = argv[1];
  Args args(argc, argv, 2);
  if (!args.ok()) {
    return Fail(args.error() +
                "\nusage: gvex_cli <command> [--key value ...]");
  }
  if (cmd == "datasets") return CmdDatasets();
  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "train") return CmdTrain(args);
  if (cmd == "explain") return CmdExplain(args);
  if (cmd == "query") return CmdQuery(args);
  return Fail("unknown command: " + cmd);
}
