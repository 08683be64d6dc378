// The explain workloads: single-threaded APX-GVEX explain-and-summarize
// (Algorithm 1) over one label group, view after view for the whole run,
// and on MAL also Stream-GVEX (Algorithm 3) over the same group. Every
// per-graph call is timed on its own, so one run pools thousands of
// samples; every output is checked against the library's own
// GenerateView, computed once at set-up.

#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "calibrate.h"
#include "data/datasets.h"
#include "explain/approx_gvex.h"
#include "explain/metrics.h"
#include "explain/psum.h"
#include "explain/scoring.h"
#include "explain/stream_gvex.h"
#include "explain/verify.h"
#include "gnn/trainer.h"
#include "pattern/coverage.h"
#include "pattern/miner.h"
#include "report.h"
#include "spans.h"
#include "util/string_util.h"
#include "workloads.h"

namespace perfbench {

namespace {

using gvex::Configuration;
using gvex::ExplanationSubgraph;
using gvex::ExplanationView;
using gvex::Graph;
using gvex::GraphDatabase;
using gvex::NodeId;
using gvex::Pattern;

struct ExplainSpec {
  gvex::DatasetId id;
  int num_graphs;
  int epochs;
  int pattern_nodes;
  bool stream;  ///< time Stream-GVEX too (traced runs always do)
};

bool SpecFor(const std::string& dataset, ExplainSpec* spec) {
  // MUT: the gvex_cli default database (120 molecules of about 21 nodes).
  // MAL: the generator's call graphs of 120-260 nodes, 8 per class.
  if (dataset == "MUT") {
    *spec = {gvex::DatasetId::kMutagenicity, 120, 100, 5, false};
    return true;
  }
  if (dataset == "MAL") {
    *spec = {gvex::DatasetId::kMalnet, 40, 40, 3, true};
    return true;
  }
  return false;
}

// The explained database: the default one with its graphs in a seeded
// order, which orders every label group, the timed loop's visits and Psum's
// input. The graphs themselves stay as generated (see README.md).
GraphDatabase Shuffled(const GraphDatabase& base, uint64_t seed) {
  gvex::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<int> order(static_cast<size_t>(base.size()));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  GraphDatabase out;
  for (int gi : order) out.Add(base.graph(gi), base.true_label(gi));
  return out;
}

double MsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e6;
}

// One call timed by two clocks. The gated figures use the process's CPU
// time: the calls run on one thread, so it equals their wall time on an
// idle machine, and host CPU steal and preemption, which stretch wall time
// by the share of the run the host takes, do not count. Wall time is
// printed beside it.
struct Stopwatch {
  int64_t cpu0 = ProcessCpuNs();
  int64_t wall0 = NowNs();
  double CpuMs() const {
    return static_cast<double>(ProcessCpuNs() - cpu0) / 1e6;
  }
  double WallMs() const { return MsSince(wall0); }
};

struct Context {
  GraphDatabase db;
  gvex::GcnModel model;
};

// MakeDataset + TrainGcn + AssignPredictedLabels: the workload's set-up.
// The generator's default database is made and the classifier trained on
// it the gvex_cli way (3-layer GCN, 32 hidden, seed 7); the explained
// database is the same graphs in a seeded order.
Context Setup(const ExplainSpec& spec, uint64_t seed, Tracer* tracer) {
  Context ctx;
  GraphDatabase base;
  {
    Scope span(tracer, "data.generate", -1);
    gvex::DatasetScale scale;
    scale.num_graphs = spec.num_graphs;
    base = gvex::MakeDataset(spec.id, scale);
    ctx.db = Shuffled(base, seed);
  }
  Scope span(tracer, "gnn.train", -1);
  const gvex::DatasetSpec& ds = gvex::SpecFor(spec.id);
  gvex::GcnConfig cfg;
  cfg.input_dim = ds.feature_dim;
  cfg.hidden_dim = 32;
  cfg.num_layers = 3;
  cfg.num_classes = ds.num_classes;
  gvex::Rng rng(7);
  ctx.model = gvex::GcnModel(cfg, &rng);
  std::vector<int> all(static_cast<size_t>(base.size()));
  std::iota(all.begin(), all.end(), 0);
  gvex::TrainConfig tc;
  tc.epochs = spec.epochs;
  (void)gvex::TrainGcn(&ctx.model, base, all, tc);
  (void)gvex::AssignPredictedLabels(ctx.model, &ctx.db);
  return ctx;
}

std::vector<std::string> Codes(const std::vector<Pattern>& patterns) {
  std::vector<std::string> out;
  out.reserve(patterns.size());
  for (const Pattern& p : patterns) out.push_back(p.canonical_code());
  return out;
}

// Expected outputs of every label's reference views. A graph belongs to
// one label group, so node sets are keyed by graph index alone; a graph a
// reference skipped is absent. `corrupt` numbers the checks 1.. in order.
class Expectation {
 public:
  explicit Expectation(int corrupt) : corrupt_(corrupt) {}

  void Add(const ExplanationView& ag, const ExplanationView& sg) {
    for (const ExplanationSubgraph& s : ag.subgraphs) {
      ag_nodes_[s.graph_index] = s.nodes;
    }
    for (const ExplanationSubgraph& s : sg.subgraphs) {
      sg_nodes_[s.graph_index] = s.nodes;
    }
    ag_codes_[ag.label] = Codes(ag.patterns);
    sg_codes_[sg.label] = Codes(sg.patterns);
  }

  // `nodes` null = the call reported the graph infeasible.
  bool AgGraph(int gi, const std::vector<NodeId>* nodes) {
    return Match(ag_nodes_, gi, nodes);
  }
  bool SgGraph(int gi, const std::vector<NodeId>* nodes) {
    return Match(sg_nodes_, gi, nodes);
  }
  bool AgPatterns(int label, const std::vector<std::string>& codes) {
    return Next() && codes == ag_codes_[label];
  }
  bool SgPatterns(int label, const std::vector<std::string>& codes) {
    return Next() && codes == sg_codes_[label];
  }

 private:
  bool Next() { return ++checks_ != corrupt_; }
  bool Match(const std::map<int, std::vector<NodeId>>& ref, int gi,
             const std::vector<NodeId>* nodes) {
    if (!Next()) return false;
    auto it = ref.find(gi);
    if (nodes == nullptr) return it == ref.end();
    return it != ref.end() && it->second == *nodes;
  }

  std::map<int, std::vector<NodeId>> ag_nodes_;
  std::map<int, std::vector<NodeId>> sg_nodes_;
  std::map<int, std::vector<std::string>> ag_codes_;
  std::map<int, std::vector<std::string>> sg_codes_;
  int corrupt_;
  int checks_ = 0;
};

// Stream-GVEX on one graph through StreamGraphState, one span per phase:
// the same steps ExplainGraphStreaming takes.
gvex::Result<gvex::StreamGvex::GraphResult> TracedStream(
    const gvex::GnnClassifier& model, const Graph& g, int gi, int label,
    const Configuration& config, Tracer* tracer) {
  std::optional<gvex::StreamGraphState> state;
  {
    Scope span(tracer, "stream.init", gi);
    state.emplace(&model, &g, gi, label, &config);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    Scope span(tracer, "stream.node", gi);
    state->ProcessNode(v);
  }
  {
    Scope span(tracer, "stream.finalize", gi);
    state->Finalize();
  }
  const gvex::CoverageBound& bound = config.BoundFor(label);
  if (static_cast<int>(state->selected().size()) < bound.lower ||
      state->selected().empty()) {
    return gvex::Status::FailedPrecondition("infeasible");
  }
  auto snap = state->Snapshot();
  if (!snap.ok()) return snap.status();
  gvex::StreamGvex::GraphResult out;
  out.subgraph = std::move(snap).value();
  out.patterns = state->patterns();
  return out;
}

// Psum's own PGen call and coverage table, timed apart from Psum (traced
// mode): the two phases the summary spends its time in.
int TracedSummaryLayers(const std::vector<const Graph*>& subs,
                        const Configuration& config, Tracer* tracer,
                        int64_t view) {
  gvex::MinerOptions mopts = config.miner;
  mopts.min_support = 1;
  std::vector<gvex::MinedPattern> mined;
  {
    Scope span(tracer, "pattern.mine", view);
    mined = gvex::MinePatterns(subs, mopts);
  }
  gvex::MatchOptions mo;
  mo.semantics = mopts.semantics;
  Scope span(tracer, "pattern.coverage", view);
  for (const gvex::MinedPattern& m : mined) {
    for (const Graph* g : subs) (void)gvex::ComputeCoverage(m.pattern, *g, mo);
  }
  return static_cast<int>(mined.size());
}

}  // namespace

int RunExplain(const std::string& dataset, const RunOptions& opt) {
  ExplainSpec spec;
  if (!SpecFor(dataset, &spec)) {
    std::fprintf(stderr, "unknown dataset %s\n", dataset.c_str());
    return 2;
  }
  const bool run_stream = spec.stream || opt.trace;
  Tracer tracer(opt.trace);
  Report report;

  // Set-up three times; the workload uses the last context, and every
  // repeat must give the same predicted labels.
  std::optional<Context> ctx;
  std::vector<int> first_labels;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = NowNs();
    ctx.emplace(Setup(spec, opt.seed, &tracer));
    report.samples["setup_s"].push_back(MsSince(start) / 1e3);
    std::vector<int> labels;
    for (int i = 0; i < ctx->db.size(); ++i) {
      labels.push_back(ctx->db.predicted_label(i));
    }
    if (rep == 0) first_labels = labels;
    report.Check(labels == first_labels);
  }
  const GraphDatabase& db = ctx->db;
  const gvex::GcnModel& model = ctx->model;
  const std::vector<int> labels = db.DistinctLabels();

  Configuration config;  // gvex_cli explain defaults, u_l 15
  config.theta = 0.08f;
  config.r = 0.25f;
  config.gamma = 0.5f;
  config.default_bound = {0, 15};
  config.miner.max_pattern_nodes = spec.pattern_nodes;
  gvex::ApproxGvex ag(&model, config);
  gvex::StreamGvex sg(&model, config);

  // Reference views of every label from the library's own whole-group entry
  // points, which double as the warm-up: nothing before the timed loop is
  // timed. They are untimed, so they run on 4 threads (their output is the
  // same for every thread count).
  constexpr int kReferenceThreads = 4;
  auto ref_ag = ag.GenerateViews(db, labels, kReferenceThreads);
  if (!ref_ag.ok()) {
    std::fprintf(stderr, "reference views failed: %s\n",
                 ref_ag.status().ToString().c_str());
    return 1;
  }
  Expectation expect(opt.corrupt);
  int patterns = 0;
  int skipped_total = 0;
  for (size_t i = 0; i < labels.size(); ++i) {
    const int label = labels[i];
    const ExplanationView& agv = ref_ag.value()[i];
    auto ref_sg = sg.GenerateView(db, label, kReferenceThreads, nullptr);
    if (!ref_sg.ok()) {
      std::fprintf(stderr, "reference view of label %d failed: %s\n", label,
                   ref_sg.status().ToString().c_str());
      return 1;
    }
    expect.Add(agv, ref_sg.value());
    const size_t group = db.LabelGroup(label).size();
    const int skipped = static_cast<int>(group - agv.subgraphs.size());
    patterns += static_cast<int>(agv.patterns.size());
    skipped_total += skipped;
    report.notes.push_back(gvex::StrFormat(
        "%s label %d: %zu graphs, %zu patterns, %d skipped; APX-GVEX "
        "fidelity+ %.4f fidelity- %.4f edge loss %.4f; Stream-GVEX "
        "fidelity+ %.4f fidelity- %.4f edge loss %.4f",
        dataset.c_str(), label, group, agv.patterns.size(), skipped,
        gvex::FidelityPlus(model, db, agv.subgraphs),
        gvex::FidelityMinus(model, db, agv.subgraphs), gvex::EdgeLoss(agv),
        gvex::FidelityPlus(model, db, ref_sg.value().subgraphs),
        gvex::FidelityMinus(model, db, ref_sg.value().subgraphs),
        gvex::EdgeLoss(ref_sg.value())));
  }
  report.values["explain.patterns"] = patterns;
  report.values["explain.skipped"] = skipped_total;
  long long nodes = 0;
  for (int i = 0; i < db.size(); ++i) nodes += db.graph(i).num_nodes();
  report.notes.push_back(gvex::StrFormat(
      "%s: %d graphs, %.1f nodes/graph, %zu labels explained in turn",
      dataset.c_str(), db.size(),
      static_cast<double>(nodes) / db.size(), labels.size()));

  // Timed loop: whole passes, a pass being one view of every label in
  // turn. Every pass explains the same graphs, so the pooled samples do not
  // depend on where a run stops. A new pass starts while the run is more
  // than half a mean pass short of --seconds, so a run measures the whole
  // passes closest to it. Every call is timed on its own, by both clocks.
  std::vector<double>& explain_ms = report.samples["explain_ms"];
  std::vector<double>& explain_wall_ms = report.samples["explain_wall_ms"];
  std::vector<double>& psum_ms = report.samples["psum_ms"];
  std::vector<double>& view_s = report.samples["view_s"];
  std::vector<double>& stream_ms = report.samples["stream_ms"];
  std::vector<double>& stream_wall_ms = report.samples["stream_wall_ms"];
  std::vector<double>& pass_s = report.samples["pass_s"];
  std::vector<double>& pass_psum_ms = report.samples["pass_psum_ms"];
  std::vector<double>& pass_stream_ms = report.samples["pass_stream_ms"];
  // The host-speed reference runs between calls, untimed, once every
  // kReferenceEveryNs.
  std::vector<double>& reference_ms = report.samples["reference_ms"];
  constexpr int64_t kReferenceEveryNs = 250'000'000;
  double ag_ms = 0.0;  // every timed APX-GVEX call: ExplainGraph and Psum
  int candidates = 0;
  const int64_t start_ns = NowNs();
  int64_t next_reference = start_ns;
  const int64_t deadline = start_ns + static_cast<int64_t>(opt.seconds * 1e9);
  for (int pass = 0;; ++pass) {
    const int64_t now = NowNs();
    if (pass > 0 && now + (now - start_ns) / (2 * pass) > deadline) break;
    double pass_ms = 0.0;
    double pass_psum = 0.0;
    double pass_stream = 0.0;
    for (int label : labels) {
      const std::vector<int> group = db.LabelGroup(label);
      const int view_span = tracer.Open("explain.view", label);
      std::vector<ExplanationSubgraph> subs;
      double view_ms = 0.0;
      for (int gi : group) {
        const Graph& g = db.graph(gi);
        if (NowNs() >= next_reference) {
          reference_ms.push_back(ReferenceMs());
          next_reference = NowNs() + kReferenceEveryNs;
        }
        const int graph_span = tracer.Open("explain.graph", gi);
        if (tracer.enabled()) {
          Scope span(&tracer, "gnn.influence", gi);
          gvex::GraphScoringContext influence(model, g, config);
        }
        const Stopwatch watch;
        auto res = [&] {
          Scope span(&tracer, "explain.explain_graph", gi);
          return ag.ExplainGraph(g, gi, label);
        }();
        const double ms = watch.CpuMs();
        explain_wall_ms.push_back(watch.WallMs());
        if (tracer.enabled()) {
          {
            Scope span(&tracer, "gnn.forward", gi);
            (void)model.PredictProba(g);
          }
          if (res.ok()) {
            Scope span(&tracer, "explain.everify", gi);
            (void)gvex::EVerify(model, g, res.value().nodes, label);
          }
        }
        tracer.Close(graph_span);
        explain_ms.push_back(ms);
        view_ms += ms;
        report.Check(
            expect.AgGraph(gi, res.ok() ? &res.value().nodes : nullptr));
        if (res.ok()) subs.push_back(std::move(res).value());
      }
      std::vector<const Graph*> ptrs;
      for (const ExplanationSubgraph& s : subs) ptrs.push_back(&s.subgraph);
      const Stopwatch watch;
      auto psum = [&] {
        Scope span(&tracer, "explain.psum", label);
        return gvex::Psum(ptrs, config);
      }();
      const double ms = watch.CpuMs();
      if (tracer.enabled() && pass == 0) {
        candidates += TracedSummaryLayers(ptrs, config, &tracer, label);
      }
      tracer.Close(view_span);
      psum_ms.push_back(ms);
      view_s.push_back((view_ms + ms) / 1e3);
      pass_ms += view_ms + ms;
      pass_psum += ms;
      report.Check(psum.ok() &&
                   expect.AgPatterns(label, Codes(psum.value().patterns)));

      if (!run_stream) continue;
      std::vector<std::vector<Pattern>> sets;
      for (int gi : group) {
        const Graph& g = db.graph(gi);
        const Stopwatch watch;
        auto res = [&] {
          Scope span(&tracer, "stream.graph", gi);
          return tracer.enabled()
                     ? TracedStream(model, g, gi, label, config, &tracer)
                     : sg.ExplainGraphStreaming(g, gi, label);
        }();
        stream_ms.push_back(watch.CpuMs());
        stream_wall_ms.push_back(watch.WallMs());
        pass_stream += stream_ms.back();
        report.Check(expect.SgGraph(
            gi, res.ok() ? &res.value().subgraph.nodes : nullptr));
        if (res.ok()) sets.push_back(std::move(res.value().patterns));
      }
      // StreamGvex::GenerateView's merge: first occurrence of each code.
      std::vector<std::string> merged;
      std::set<std::string> seen;
      for (const auto& set : sets) {
        for (const Pattern& p : set) {
          if (seen.insert(p.canonical_code()).second) {
            merged.push_back(p.canonical_code());
          }
        }
      }
      report.Check(expect.SgPatterns(label, merged));
    }
    pass_s.push_back(pass_ms / 1e3);
    pass_psum_ms.push_back(pass_psum);
    if (run_stream) pass_stream_ms.push_back(pass_stream);
    ag_ms += pass_ms;
  }
  report.values["ag_graphs_per_s"] =
      static_cast<double>(explain_ms.size()) / (ag_ms / 1e3);
  if (tracer.enabled()) report.values["pattern.candidates"] = candidates;

  report.values["peak_rss_mb"] = PeakRssMb();
  if (tracer.enabled()) {
    report.values["trace.span_ns"] = SpanCostNs();
    if (!WriteSpans(opt.spans, {&tracer})) {
      std::fprintf(stderr, "cannot write %s\n", opt.spans.c_str());
      return 1;
    }
  }
  if (!report.Write(opt.out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
