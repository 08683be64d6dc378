#include "common.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "baselines/gcf_explainer.h"
#include "baselines/gnn_explainer.h"
#include "baselines/gstarx.h"
#include "baselines/random_explainer.h"
#include "baselines/subgraphx.h"
#include "explain/psum.h"
#include "gnn/trainer.h"
#include "util/timer.h"

namespace gvex {
namespace bench {

Context MakeContext(DatasetId id, int num_graphs, int hidden_dim, int epochs,
                    uint64_t seed) {
  Context ctx;
  ctx.spec = SpecFor(id);
  DatasetScale scale;
  scale.num_graphs = num_graphs;
  ctx.db = MakeDataset(id, scale);

  GcnConfig cfg;
  cfg.input_dim = ctx.spec.feature_dim;
  cfg.hidden_dim = hidden_dim;
  cfg.num_layers = 3;
  cfg.num_classes = ctx.spec.num_classes;
  Rng rng(seed);
  ctx.model = GcnModel(cfg, &rng);

  std::vector<int> all;
  for (int i = 0; i < ctx.db.size(); ++i) all.push_back(i);
  TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 16;
  auto report = TrainGcn(&ctx.model, ctx.db, all, tc);
  if (report.ok()) ctx.train_accuracy = report.value().train_accuracy;
  const Status labelled = AssignPredictedLabels(ctx.model, &ctx.db);
  if (!labelled.ok()) {
    std::fprintf(stderr, "labelling %s failed: %s\n", ctx.spec.name.c_str(),
                 labelled.ToString().c_str());
    std::exit(1);
  }
  return ctx;
}

Configuration ConfigFor(const Context& ctx, int ul) {
  Configuration c;
  // Grid-searched per-dataset thresholds in the spirit of §6.1 (MUT uses
  // (0.08, 0.25), γ = 0.5 in the paper).
  switch (ctx.spec.id) {
    case DatasetId::kMutagenicity:
      c.theta = 0.08f;
      c.r = 0.25f;
      break;
    case DatasetId::kReddit:
      c.theta = 0.05f;
      c.r = 0.3f;
      break;
    default:
      c.theta = 0.05f;
      c.r = 0.3f;
      break;
  }
  c.gamma = 0.5f;
  c.default_bound = {0, ul};
  c.verify_mode = VerifyMode::kConsistentOnly;
  c.miner.max_pattern_nodes = 3;
  c.repair_budget = 8;
  return c;
}

const std::vector<std::string>& AllMethods() {
  static const std::vector<std::string> kMethods = {"AG", "SG",  "GE",
                                                    "SX", "GX", "GCF"};
  return kMethods;
}

const std::vector<std::string>& BaselineMethods() {
  static const std::vector<std::string> kMethods = {"GE", "SX", "GX", "GCF"};
  return kMethods;
}

bool MethodSkipped(const std::string& method, DatasetId id) {
  // The paper's ">24h" absences: on MALNET only the GVEX algorithms run.
  if (id == DatasetId::kMalnet) {
    return method != "AG" && method != "SG";
  }
  return false;
}

std::vector<int> CappedGroup(const GraphDatabase& db, int label, int cap) {
  std::vector<int> group = db.LabelGroup(label);
  if (static_cast<int>(group.size()) > cap) {
    group.resize(static_cast<size_t>(cap));
  }
  return group;
}

MethodRun RunMethod(const std::string& method, const Context& ctx, int label,
                    int ul, int cap, int num_threads) {
  MethodRun run;
  Timer timer;
  std::vector<int> group = CappedGroup(ctx.db, label, cap);
  if (group.empty()) return run;

  if (method == "AG" || method == "SG") {
    Configuration config = ConfigFor(ctx, ul);
    if (method == "AG") {
      ApproxGvex algo(&ctx.model, config);
      for (int gi : group) {
        auto ex = algo.ExplainGraph(ctx.db.graph(gi), gi, label);
        if (ex.ok()) run.explanations.push_back(std::move(ex).value());
      }
      if (!run.explanations.empty()) {
        std::vector<const Graph*> subs;
        for (const auto& s : run.explanations) subs.push_back(&s.subgraph);
        auto psum = Psum(subs, config);
        if (psum.ok()) run.patterns = std::move(psum.value().patterns);
      }
    } else {
      StreamGvex algo(&ctx.model, config);
      std::set<std::string> seen;
      for (int gi : group) {
        auto res = algo.ExplainGraphStreaming(ctx.db.graph(gi), gi, label);
        if (res.ok()) {
          run.explanations.push_back(std::move(res.value().subgraph));
          for (const Pattern& p : res.value().patterns) {
            if (seen.insert(p.canonical_code()).second) {
              run.patterns.push_back(p);
            }
          }
        }
      }
    }
  } else {
    // Baselines run at (scaled-down but proportionate) published budgets:
    // SubgraphX and GStarX are sampling-heavy and dominate the runtime
    // comparison, exactly as in Fig. 9.
    std::unique_ptr<Explainer> explainer;
    if (method == "GE") {
      GnnExplainerOptions opt;
      opt.epochs = 150;
      explainer = std::make_unique<GnnExplainer>(&ctx.model, opt);
    } else if (method == "SX") {
      SubgraphXOptions opt;
      opt.mcts_iterations = 150;
      opt.shapley_samples = 20;
      explainer = std::make_unique<SubgraphX>(&ctx.model, opt);
    } else if (method == "GX") {
      GStarXOptions opt;
      opt.coalition_samples = 800;
      opt.max_coalition_size = 12;
      explainer = std::make_unique<GStarX>(&ctx.model, opt);
    } else if (method == "GCF") {
      GcfExplainerOptions opt;
      opt.restarts = 6;
      explainer = std::make_unique<GcfExplainer>(&ctx.model, opt);
    } else if (method == "Random") {
      explainer = std::make_unique<RandomExplainer>(&ctx.model);
    } else {
      return run;
    }
    for (int gi : group) {
      auto ex = explainer->Explain(ctx.db.graph(gi), gi, label, ul);
      if (ex.ok()) run.explanations.push_back(std::move(ex).value());
    }
  }
  (void)num_threads;
  run.seconds = timer.ElapsedSec();
  run.ok = !run.explanations.empty();
  return run;
}

int PickLabel(const Context& ctx) {
  for (int label : ctx.db.DistinctLabels()) {
    if (!ctx.db.LabelGroup(label).empty()) return label;
  }
  return 0;
}

void PrintHeader(const std::string& title) {
  std::printf("\n== %s ==\n", title.c_str());
}

namespace {

// Minimal recursive-descent reader for the exact JSON subset BenchReport
// emits: an object of objects whose values are numbers. Sections are keyed
// by bench name; metric order within a section is preserved.
using Section = std::vector<std::pair<std::string, double>>;

struct JsonReader {
  const std::string& text;
  size_t pos = 0;
  bool failed = false;

  void SkipWs() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    failed = true;
    return false;
  }

  std::string ParseString() {
    SkipWs();
    std::string out;
    if (pos >= text.size() || text[pos] != '"') {
      failed = true;
      return out;
    }
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\' && pos + 1 < text.size()) ++pos;  // keep escaped
      out.push_back(text[pos++]);
    }
    if (pos >= text.size()) {
      failed = true;
      return out;
    }
    ++pos;  // closing quote
    return out;
  }

  double ParseNumber() {
    SkipWs();
    const char* start = text.c_str() + pos;
    char* end = nullptr;
    double v = std::strtod(start, &end);
    if (end == start) {
      failed = true;
      return 0.0;
    }
    pos += static_cast<size_t>(end - start);
    return v;
  }

  Section ParseSection() {
    Section section;
    if (!Consume('{')) return section;
    SkipWs();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return section;
    }
    for (;;) {
      std::string key = ParseString();
      if (failed || !Consume(':')) return section;
      double v = ParseNumber();
      if (failed) return section;
      section.emplace_back(std::move(key), v);
      SkipWs();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      Consume('}');
      return section;
    }
  }

  std::map<std::string, Section> ParseFile() {
    std::map<std::string, Section> sections;
    if (!Consume('{')) return sections;
    SkipWs();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return sections;
    }
    for (;;) {
      std::string name = ParseString();
      if (failed || !Consume(':')) return sections;
      sections[name] = ParseSection();
      if (failed) return sections;
      SkipWs();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      Consume('}');
      return sections;
    }
  }
};

std::string EscapeJsonKey(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

std::string FmtJsonNumber(double v) {
  // Round-trippable, trailing-zero-trimmed rendering for stable diffs.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name)) {}

void BenchReport::Add(const std::string& key, double value) {
  for (auto& kv : metrics_) {
    if (kv.first == key) {
      kv.second = value;
      return;
    }
  }
  metrics_.emplace_back(key, value);
}

Status BenchReport::WriteMerged(const std::string& path) const {
  std::map<std::string, Section> sections;
  {
    std::ifstream in(path);
    if (in.good()) {
      std::stringstream buf;
      buf << in.rdbuf();
      const std::string text = buf.str();
      if (!text.empty()) {
        JsonReader reader{text};
        sections = reader.ParseFile();
        if (reader.failed) {
          return Status::IOError("unparsable bench baseline: " + path);
        }
      }
    }
  }
  sections[name_] = metrics_;

  std::ostringstream out;
  out << "{\n";
  bool first_section = true;
  for (const auto& [name, metrics] : sections) {
    if (!first_section) out << ",\n";
    first_section = false;
    out << "  \"" << EscapeJsonKey(name) << "\": {";
    bool first_metric = true;
    for (const auto& [key, value] : metrics) {
      if (!first_metric) out << ",";
      first_metric = false;
      out << "\n    \"" << EscapeJsonKey(key) << "\": " << FmtJsonNumber(value);
    }
    out << (metrics.empty() ? "}" : "\n  }");
  }
  out << "\n}\n";

  std::ofstream file(path, std::ios::trunc);
  if (!file.good()) {
    return Status::IOError("cannot open bench output for writing: " + path);
  }
  file << out.str();
  file.flush();
  if (!file.good()) {
    return Status::IOError("short write to bench output: " + path);
  }
  return Status::OK();
}

std::string BenchReport::OutPath(const std::string& default_path) {
  const char* env = std::getenv("GVEX_BENCH_OUT");
  return env != nullptr && env[0] != '\0' ? env : default_path;
}

}  // namespace bench
}  // namespace gvex
