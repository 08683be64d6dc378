#include "pattern/miner.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>

#include "pattern/miner_internal.h"

namespace gvex {

namespace {

// Level-wise growth: every pattern of the last level gains one pendant node
// along each applicable rule. `results` holds the single-node seeds on entry.
void GrowLevelWise(const std::vector<const Graph*>& graphs,
                   const std::vector<ExtensionRule>& rules,
                   const MinerOptions& options,
                   std::vector<MinedPattern>* results) {
  std::unordered_set<std::string> seen_codes;
  std::vector<Pattern> frontier;
  for (const MinedPattern& mp : *results) {
    seen_codes.insert(mp.pattern.canonical_code());
    frontier.push_back(mp.pattern);
  }
  for (int level = 2; level <= options.max_pattern_nodes; ++level) {
    std::vector<Pattern> next_frontier;
    for (const Pattern& base : frontier) {
      const Graph& bg = base.graph();
      for (NodeId anchor = 0; anchor < bg.num_nodes(); ++anchor) {
        for (const ExtensionRule& rule : rules) {
          if (bg.node_type(anchor) != rule.from_type) continue;
          Graph cand = bg;
          NodeId nv = cand.AddNode(rule.new_type);
          if (!cand.AddEdge(anchor, nv, rule.edge_type).ok()) continue;
          auto pr = Pattern::Create(std::move(cand));
          if (!pr.ok()) continue;
          Pattern p = std::move(pr).value();
          if (!seen_codes.insert(p.canonical_code()).second) continue;
          MinedPattern mp = CountOccurrences(p, graphs, options);
          if (mp.support < options.min_support) continue;
          results->push_back(std::move(mp));
          next_frontier.push_back(std::move(p));
        }
      }
    }
    frontier = std::move(next_frontier);
    if (frontier.empty()) break;
  }
}

}  // namespace

MinedPattern CountOccurrences(Pattern pattern,
                              const std::vector<const Graph*>& graphs,
                              const MinerOptions& options) {
  MinedPattern out;
  out.pattern = std::move(pattern);
  const Graph& pg = out.pattern.graph();
  MatchOptions mopt;
  mopt.semantics = options.semantics;
  mopt.max_matches = options.max_matches_per_graph;
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const std::vector<Match> matches = FindMatches(pg, *graphs[gi], mopt);
    if (matches.empty()) continue;
    const int n = static_cast<int>(matches.size());
    auto below = [n](int cap) { return cap <= 0 || n < cap; };
    Occurrence occ;
    occ.graph = static_cast<int>(gi);
    occ.matches = n;
    occ.mask = MatchCoverage(pg, *graphs[gi], matches);
    occ.complete =
        below(mopt.max_matches) && below(MatchOptions{}.max_matches);
    out.total_matches += n;
    out.covered_nodes += occ.mask.CountNodes();
    out.covered_edges += occ.mask.CountEdges();
    out.occurrences.push_back(std::move(occ));
  }
  out.support = static_cast<int>(out.occurrences.size());
  return out;
}

std::vector<ExtensionRule> CollectExtensionRules(
    const std::vector<const Graph*>& graphs) {
  std::set<std::tuple<int, int, int>> seen;
  for (const Graph* g : graphs) {
    for (const Edge& e : g->edges()) {
      seen.insert({g->node_type(e.u), g->node_type(e.v), e.edge_type});
      seen.insert({g->node_type(e.v), g->node_type(e.u), e.edge_type});
    }
  }
  std::vector<ExtensionRule> rules;
  rules.reserve(seen.size());
  for (const auto& [a, b, t] : seen) rules.push_back({a, b, t});
  return rules;
}

std::vector<MinedPattern> MinePatterns(const std::vector<const Graph*>& graphs,
                                       const MinerOptions& options) {
  std::vector<MinedPattern> results;
  if (graphs.empty()) return results;

  // Seeds for both engines: single-node patterns for every node type in the
  // data.
  std::set<int> types;
  for (const Graph* g : graphs) {
    for (NodeId v = 0; v < g->num_nodes(); ++v) types.insert(g->node_type(v));
  }
  for (int t : types) {
    MinedPattern mp = CountOccurrences(Pattern::SingleNode(t), graphs, options);
    if (mp.support >= options.min_support) results.push_back(std::move(mp));
  }

  const auto rules = CollectExtensionRules(graphs);
  if (options.engine == MinerEngine::kGspan) {
    GrowGspan(graphs, rules, options, &results);
  } else {
    GrowLevelWise(graphs, rules, options, &results);
  }

  if (options.min_pattern_nodes > 1) {
    results.erase(
        std::remove_if(results.begin(), results.end(),
                       [&](const MinedPattern& mp) {
                         return mp.pattern.num_nodes() <
                                options.min_pattern_nodes;
                       }),
        results.end());
  }
  std::sort(results.begin(), results.end(),
            [](const MinedPattern& a, const MinedPattern& b) {
              if (a.covered_nodes != b.covered_nodes) {
                return a.covered_nodes > b.covered_nodes;
              }
              if (a.pattern.num_nodes() != b.pattern.num_nodes()) {
                return a.pattern.num_nodes() < b.pattern.num_nodes();
              }
              return a.pattern.canonical_code() < b.pattern.canonical_code();
            });
  if (static_cast<int>(results.size()) > options.max_patterns) {
    results.resize(static_cast<size_t>(options.max_patterns));
  }
  return results;
}

std::vector<MinedPattern> MinePatterns(const std::vector<Graph>& graphs,
                                       const MinerOptions& options) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const Graph& g : graphs) ptrs.push_back(&g);
  return MinePatterns(ptrs, options);
}

}  // namespace gvex
