#include "explain/approx_gvex.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "explain/psum.h"
#include "explain/repair.h"
#include "explain/verify.h"
#include "graph/subgraph.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace gvex {

ApproxGvex::ApproxGvex(const GnnClassifier* model, Configuration config)
    : model_(model), config_(std::move(config)) {}

Result<ExplanationSubgraph> ApproxGvex::ExplainGraph(const Graph& g,
                                                     int graph_index,
                                                     int label) const {
  GVEX_RETURN_NOT_OK(config_.Validate());
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot explain an empty graph");
  }
  const CoverageBound& bound = config_.BoundFor(label);

  // Line 2: precompute influence / embeddings (the EVerify Jacobian pass).
  GraphScoringContext ctx(*model_, g, config_);
  ScoreState state(&ctx);

  std::vector<NodeId> vs;            // V_S: selected nodes
  std::vector<bool> selected(static_cast<size_t>(g.num_nodes()), false);
  std::vector<NodeId> vu;            // V_u: verified-but-unselected pool
  std::vector<bool> in_vu(static_cast<size_t>(g.num_nodes()), false);

  // Explanation phase (lines 3-9): greedy selection under VpExtend.
  while (static_cast<int>(vs.size()) < bound.upper) {
    // Rank remaining nodes by marginal gain; verify best-first so that the
    // selected node is the max-gain node that passes VpExtend.
    std::vector<std::pair<double, NodeId>> ranked;
    ranked.reserve(static_cast<size_t>(g.num_nodes()));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!selected[static_cast<size_t>(v)]) {
        ranked.push_back({state.GainOf(v), v});
      }
    }
    if (ranked.empty()) break;
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    NodeId chosen = -1;
    for (const auto& [gain, v] : ranked) {
      if (VpExtend(*model_, g, vs, v, label, config_)) {
        chosen = v;
        break;
      }
      // Non-chosen verified candidates would belong to V_u as well, but we
      // only learn verification outcomes lazily; rejected nodes stay out.
    }
    if (chosen < 0) break;  // no extendable candidate remains
    // Pool bookkeeping: remaining ranked nodes become backfill candidates.
    for (const auto& [gain, v] : ranked) {
      if (v != chosen && !in_vu[static_cast<size_t>(v)]) {
        in_vu[static_cast<size_t>(v)] = true;
        vu.push_back(v);
      }
    }
    selected[static_cast<size_t>(chosen)] = true;
    if (in_vu[static_cast<size_t>(chosen)]) {
      in_vu[static_cast<size_t>(chosen)] = false;
      vu.erase(std::find(vu.begin(), vu.end(), chosen));
    }
    state.Add(chosen);
    vs.push_back(chosen);
  }

  // Lower-bound backfill (lines 10-15): keep greedily drawing from V_u.
  while (static_cast<int>(vs.size()) < bound.lower && !vu.empty()) {
    double best_gain = -1.0;
    size_t best_idx = 0;
    for (size_t i = 0; i < vu.size(); ++i) {
      double gain = state.GainOf(vu[i]);
      if (gain > best_gain) {
        best_gain = gain;
        best_idx = i;
      }
    }
    NodeId v = vu[best_idx];
    vu.erase(vu.begin() + static_cast<std::ptrdiff_t>(best_idx));
    in_vu[static_cast<size_t>(v)] = false;
    if (!VpExtend(*model_, g, vs, v, label, config_)) continue;
    selected[static_cast<size_t>(v)] = true;
    state.Add(v);
    vs.push_back(v);
  }

  // Lines 16-17: infeasible if the lower bound cannot be met.
  if (static_cast<int>(vs.size()) < bound.lower) {
    return Status::FailedPrecondition(
        StrFormat("no explanation of size >= %d for graph %d", bound.lower,
                  graph_index));
  }
  if (vs.empty()) {
    return Status::FailedPrecondition(
        StrFormat("no extendable node found for graph %d", graph_index));
  }

  // Counterfactual repair (see explain/repair.h): restore the feasibility
  // Algorithm 1 would otherwise report as ∅.
  if (config_.counterfactual_repair) {
    CounterfactualRepair(*model_, g, label, bound, config_.repair_budget,
                         &vs);
  }

  ExplanationSubgraph out;
  out.graph_index = graph_index;
  std::sort(vs.begin(), vs.end());
  out.nodes = vs;
  auto sub = ExtractInducedSubgraph(g, vs);
  if (!sub.ok()) return sub.status();
  out.subgraph = std::move(sub.value().graph);
  // Repair may have altered the set; evaluate f on the final selection.
  out.explainability = ScoreState::ScoreOfSet(ctx, vs);
  auto ev = EVerify(*model_, g, vs, label);
  if (ev.ok()) {
    out.consistent = ev.value().consistent;
    out.counterfactual = ev.value().counterfactual;
  }
  return out;
}

Result<ExplanationView> ApproxGvex::GenerateView(const GraphDatabase& db,
                                                 int label,
                                                 int* skipped) const {
  return GenerateViewImpl(db, label, /*pool=*/nullptr, skipped);
}

namespace {

// Shard-local accumulator for the explanation phase: one worker fills it by
// walking its contiguous slice of the label group in order. Because every
// accumulator preserves group order internally and accumulators are merged
// in shard-index order, the concatenation equals the sequential output.
struct ExplainShardAcc {
  std::vector<ExplanationSubgraph> subgraphs;
  int skipped = 0;
};

}  // namespace

Result<ExplanationView> ApproxGvex::GenerateViewImpl(const GraphDatabase& db,
                                                     int label,
                                                     ThreadPool* pool,
                                                     int* skipped) const {
  std::vector<int> group = db.LabelGroup(label);
  if (group.empty()) {
    return Status::NotFound(StrFormat("label group %d is empty", label));
  }
  ExplanationView view;
  view.label = label;

  // Explanation phase, sharded: batched shards (4x workers) let the pool
  // load-balance graphs of uneven size while the shard layout stays a pure
  // function of the group size.
  const int group_size = static_cast<int>(group.size());
  const int num_workers = pool != nullptr ? pool->num_threads() : 1;
  const int num_shards = num_workers > 1 ? num_workers * 4 : 1;
  std::vector<ExplainShardAcc> accs(
      ThreadPool::MakeShards(num_shards, group_size).size());
  auto explain_shard = [&](const Shard& shard) {
    ExplainShardAcc& acc = accs[static_cast<size_t>(shard.index)];
    for (int i = shard.begin; i < shard.end; ++i) {
      const int gi = group[static_cast<size_t>(i)];
      auto res = ExplainGraph(db.graph(gi), gi, label);
      if (res.ok()) {
        acc.subgraphs.push_back(std::move(res).value());
      } else {
        ++acc.skipped;
      }
    }
  };
  if (pool != nullptr && num_workers > 1) {
    pool->RunSharded(num_shards, group_size, explain_shard);
  } else {
    for (const Shard& shard : ThreadPool::MakeShards(num_shards, group_size)) {
      explain_shard(shard);
    }
  }

  // Barrier passed: deterministic merge in shard-index order.
  int skip_count = 0;
  for (ExplainShardAcc& acc : accs) {
    skip_count += acc.skipped;
    for (ExplanationSubgraph& s : acc.subgraphs) {
      view.subgraphs.push_back(std::move(s));
    }
  }
  if (skipped) *skipped = skip_count;
  if (view.subgraphs.empty()) {
    return Status::FailedPrecondition(
        StrFormat("no feasible explanation subgraph for label %d", label));
  }

  // Summary phase, on this thread: Psum's cost is PGen's one matching pass.
  std::vector<const Graph*> subs;
  subs.reserve(view.subgraphs.size());
  for (const auto& s : view.subgraphs) subs.push_back(&s.subgraph);
  auto psum = Psum(subs, config_);
  if (!psum.ok()) return psum.status();
  view.patterns = std::move(psum.value().patterns);

  view.explainability = 0.0;
  for (const auto& s : view.subgraphs) view.explainability += s.explainability;
  return view;
}

Result<std::vector<ExplanationView>> ApproxGvex::GenerateViews(
    const GraphDatabase& db, const std::vector<int>& labels,
    int num_threads) const {
  // One pool for the whole call: workers are reused across every label's
  // explanation phase instead of being respawned per label.
  std::unique_ptr<ThreadPool> pool;
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  std::vector<ExplanationView> views;
  views.reserve(labels.size());
  for (int label : labels) {
    auto v = GenerateViewImpl(db, label, pool.get(), nullptr);
    if (!v.ok()) return v.status();
    views.push_back(std::move(v).value());
  }
  return views;
}

}  // namespace gvex
