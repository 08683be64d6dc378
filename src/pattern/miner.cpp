#include "pattern/miner.h"

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>

#include "pattern/miner_internal.h"

namespace gvex {

namespace {

// A pattern's matches in one graph, flattened: k node ids per match for a
// k-node pattern, in the order they were found.
using FlatMatches = std::vector<NodeId>;

// A pattern of the level-wise frontier with its match list in each graph it
// occurs in. Growth extends these lists instead of matching again.
struct EmbeddedPattern {
  Pattern pattern;
  std::vector<int> graphs;           // ascending, as in its occurrences
  std::vector<FlatMatches> matches;  // parallel to `graphs`
};

bool ReachesCap(size_t n, int cap) {
  return cap > 0 && n >= static_cast<size_t>(cap);
}

FlatMatches FindFlatMatches(const Graph& pattern, const Graph& g,
                            const MinerOptions& options) {
  MatchOptions mopt;
  mopt.semantics = options.semantics;
  mopt.max_matches = options.max_matches_per_graph;
  FlatMatches flat;
  for (const Match& m : FindMatches(pattern, g, mopt)) {
    flat.insert(flat.end(), m.begin(), m.end());
  }
  return flat;
}

// Records out->pattern's occurrence in graph `gi`, given its (non-empty)
// match list there as FindMatches under the mining cap returns it.
void AddOccurrence(int gi, const Graph& g, const FlatMatches& matches,
                   const MinerOptions& options, MinedPattern* out) {
  const Graph& pg = out->pattern.graph();
  const int n = static_cast<int>(matches.size()) / pg.num_nodes();
  Occurrence occ;
  occ.graph = gi;
  occ.matches = n;
  occ.mask = MatchCoverage(pg, g, matches);
  occ.complete = !ReachesCap(static_cast<size_t>(n),
                             options.max_matches_per_graph) &&
                 !ReachesCap(static_cast<size_t>(n),
                             MatchOptions{}.max_matches);
  out->total_matches += n;
  out->covered_nodes += occ.mask.CountNodes();
  out->covered_edges += occ.mask.CountEdges();
  out->occurrences.push_back(std::move(occ));
  out->support = static_cast<int>(out->occurrences.size());
}

// The single-node pattern of every node type in the data, counted and
// appended to `results` when frequent. Its matches in a graph are the
// nodes of its type in ascending id, capped: the list FindMatches returns.
std::vector<EmbeddedPattern> SeedPatterns(
    const std::vector<const Graph*>& graphs, const MinerOptions& options,
    std::vector<MinedPattern>* results) {
  std::set<int> types;
  for (const Graph* g : graphs) {
    types.insert(g->node_types().begin(), g->node_types().end());
  }
  std::vector<EmbeddedPattern> seeds;
  for (int t : types) {
    MinedPattern mp;
    mp.pattern = Pattern::SingleNode(t);
    EmbeddedPattern seed{mp.pattern, {}, {}};
    for (size_t gi = 0; gi < graphs.size(); ++gi) {
      FlatMatches nodes;
      for (NodeId v = 0; v < graphs[gi]->num_nodes(); ++v) {
        if (ReachesCap(nodes.size(), options.max_matches_per_graph)) break;
        if (graphs[gi]->node_type(v) == t) nodes.push_back(v);
      }
      if (nodes.empty()) continue;
      AddOccurrence(static_cast<int>(gi), *graphs[gi], nodes, options, &mp);
      seed.graphs.push_back(static_cast<int>(gi));
      seed.matches.push_back(std::move(nodes));
    }
    if (mp.support < options.min_support) continue;
    results->push_back(std::move(mp));
    seeds.push_back(std::move(seed));
  }
  return seeds;
}

// The matches of base + pendant node `k` (joined to `anchor` along `rule`)
// in undirected `g`, from `parent`, the base's complete list there: each
// parent match phi extended by every neighbour w of phi(anchor) of the
// rule's node and edge type with w outside phi and, under kInduced, no
// other edge into phi. Restricting a child match to the base's nodes gives
// a base match, so this is the child's full list. Returns false, with
// `out` unspecified, when a cap binds: the parent list reached it (it may
// lack matches) or the child list does (FindMatches' first-cap list is
// then the answer).
bool ExtendMatches(const Graph& g, const FlatMatches& parent, size_t k,
                   NodeId anchor, const ExtensionRule& rule,
                   const MinerOptions& options, FlatMatches* out) {
  const int cap = options.max_matches_per_graph;
  if (ReachesCap(parent.size() / k, cap)) return false;
  out->clear();
  for (size_t at = 0; at < parent.size(); at += k) {
    const NodeId* phi = &parent[at];
    auto in_phi = [phi, k](NodeId v) {
      return std::find(phi, phi + k, v) != phi + k;
    };
    const NodeId ga = phi[anchor];
    for (const Neighbor& nb : g.neighbors(ga)) {
      const NodeId w = nb.node;
      if (nb.edge_type != rule.edge_type ||
          g.node_type(w) != rule.new_type || in_phi(w)) {
        continue;
      }
      if (options.semantics == MatchSemantics::kInduced &&
          std::any_of(g.neighbors(w).begin(), g.neighbors(w).end(),
                      [&](const Neighbor& x) {
                        return x.node != ga && in_phi(x.node);
                      })) {
        continue;
      }
      out->insert(out->end(), phi, phi + k);
      out->push_back(w);
      if (ReachesCap(out->size() / (k + 1), cap)) return false;
    }
  }
  return true;
}

// Level-wise growth: every pattern of the frontier gains one pendant node
// along each applicable rule. A child occurs only where its generating
// parent does, and its matches there extend the parent's; FindMatches runs
// only when a cap binds or on a directed graph, where the blind matcher
// resolves a reciprocal pair's edge type by placement order. Only one level
// of match lists is alive at a time, and the last level keeps none.
void GrowLevelWise(const std::vector<const Graph*>& graphs,
                   const std::vector<ExtensionRule>& rules,
                   const MinerOptions& options,
                   std::vector<EmbeddedPattern> frontier,
                   std::vector<MinedPattern>* results) {
  std::unordered_set<std::string> seen_codes;
  for (const EmbeddedPattern& e : frontier) {
    seen_codes.insert(e.pattern.canonical_code());
  }
  FlatMatches scratch;
  for (int level = 2; level <= options.max_pattern_nodes; ++level) {
    const bool last = level == options.max_pattern_nodes;
    std::vector<EmbeddedPattern> next_frontier;
    for (const EmbeddedPattern& base : frontier) {
      const Graph& bg = base.pattern.graph();
      const size_t k = static_cast<size_t>(bg.num_nodes());
      for (NodeId anchor = 0; anchor < bg.num_nodes(); ++anchor) {
        for (const ExtensionRule& rule : rules) {
          if (bg.node_type(anchor) != rule.from_type) continue;
          Graph cand = bg;
          NodeId nv = cand.AddNode(rule.new_type);
          if (!cand.AddEdge(anchor, nv, rule.edge_type).ok()) continue;
          auto pr = Pattern::Create(std::move(cand));
          if (!pr.ok()) continue;
          MinedPattern mp;
          mp.pattern = std::move(pr).value();
          if (!seen_codes.insert(mp.pattern.canonical_code()).second) {
            continue;
          }
          EmbeddedPattern child{mp.pattern, {}, {}};
          size_t pi = 0;  // the parent's first graph not before gi
          for (size_t gi = 0; gi < graphs.size(); ++gi) {
            const Graph& g = *graphs[gi];
            while (pi < base.graphs.size() &&
                   base.graphs[pi] < static_cast<int>(gi)) {
              ++pi;
            }
            const bool in_parent = pi < base.graphs.size() &&
                                   base.graphs[pi] == static_cast<int>(gi);
            if (!in_parent && !g.directed()) continue;
            if (g.directed() || !ExtendMatches(g, base.matches[pi], k, anchor,
                                               rule, options, &scratch)) {
              scratch = FindFlatMatches(mp.pattern.graph(), g, options);
            }
            if (scratch.empty()) continue;
            AddOccurrence(static_cast<int>(gi), g, scratch, options, &mp);
            if (last) continue;
            child.graphs.push_back(static_cast<int>(gi));
            child.matches.push_back(scratch);
          }
          if (mp.support < options.min_support) continue;
          results->push_back(std::move(mp));
          if (!last) next_frontier.push_back(std::move(child));
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
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    const FlatMatches matches =
        FindFlatMatches(out.pattern.graph(), *graphs[gi], options);
    if (matches.empty()) continue;
    AddOccurrence(static_cast<int>(gi), *graphs[gi], matches, options, &out);
  }
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
  std::vector<EmbeddedPattern> seeds =
      SeedPatterns(graphs, options, &results);
  const auto rules = CollectExtensionRules(graphs);
  if (options.engine == MinerEngine::kGspan) {
    GrowGspan(graphs, rules, options, &results);
  } else {
    GrowLevelWise(graphs, rules, options, std::move(seeds), &results);
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
