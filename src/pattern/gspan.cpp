#include "pattern/gspan.h"

#include <string>
#include <unordered_set>
#include <vector>

#include "pattern/canonical.h"
#include "pattern/isomorphism.h"
#include "pattern/miner_internal.h"

namespace gvex {

namespace {

// The graphs `pattern` occurs in under non-induced semantics, ascending.
// That support is anti-monotone and so safe to prune growth with (induced
// matching can gain matches as patterns grow). Stops early, returning a
// partial list, once `min_needed` graphs are out of reach.
std::vector<int> NonInducedSupport(const Graph& pattern,
                                   const std::vector<const Graph*>& graphs,
                                   int min_needed) {
  MatchOptions opt;
  opt.semantics = MatchSemantics::kNonInduced;
  opt.max_matches = 1;
  std::vector<int> found;
  const int remaining_possible = static_cast<int>(graphs.size());
  for (size_t gi = 0; gi < graphs.size(); ++gi) {
    if (static_cast<int>(found.size()) +
            (remaining_possible - static_cast<int>(gi)) <
        min_needed) {
      return found;  // cannot reach min_support anymore
    }
    if (ContainsPattern(*graphs[gi], pattern, opt)) {
      found.push_back(static_cast<int>(gi));
    }
  }
  return found;
}

}  // namespace

void GrowGspan(const std::vector<const Graph*>& graphs,
               const std::vector<ExtensionRule>& rules,
               const MinerOptions& options,
               std::vector<MinedPattern>* results) {
  std::unordered_set<std::string> seen_codes;
  std::vector<Graph> frontier;
  for (const MinedPattern& mp : *results) {
    seen_codes.insert(mp.pattern.canonical_code());
    frontier.push_back(mp.pattern.graph());
  }
  auto accept = [&](Graph candidate) {
    std::string code = CanonicalCode(candidate);
    if (seen_codes.count(code)) return;
    const std::vector<int> found =
        NonInducedSupport(candidate, graphs, options.min_support);
    if (static_cast<int>(found.size()) < options.min_support) return;
    seen_codes.insert(std::move(code));
    auto pattern = Pattern::Create(std::move(candidate));
    if (!pattern.ok()) return;
    // A pattern frequent non-induced but infrequent induced is still
    // extended (its children may be induced-frequent), just not reported.
    frontier.push_back(pattern.value().graph());
    // An induced match is also a non-induced one, so occurrences are
    // counted only in the graphs found above.
    std::vector<const Graph*> hosts;
    for (int gi : found) hosts.push_back(graphs[static_cast<size_t>(gi)]);
    MinedPattern mp =
        CountOccurrences(std::move(pattern).value(), hosts, options);
    for (Occurrence& occ : mp.occurrences) {
      occ.graph = found[static_cast<size_t>(occ.graph)];
    }
    if (mp.support >= options.min_support) results->push_back(std::move(mp));
  };

  // DFS-style worklist over edge extensions.
  size_t head = 0;
  while (head < frontier.size()) {
    Graph base = frontier[head++];
    // Forward extensions: attach a new node via a vocabulary edge.
    if (base.num_nodes() < options.max_pattern_nodes) {
      for (NodeId anchor = 0; anchor < base.num_nodes(); ++anchor) {
        for (const ExtensionRule& rule : rules) {
          if (base.node_type(anchor) != rule.from_type) continue;
          Graph cand = base;
          NodeId nv = cand.AddNode(rule.new_type);
          if (!cand.AddEdge(anchor, nv, rule.edge_type).ok()) continue;
          accept(std::move(cand));
        }
      }
    }
    // Backward extensions: close a cycle between existing pattern nodes.
    for (NodeId u = 0; u < base.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < base.num_nodes(); ++v) {
        if (base.HasEdge(u, v)) continue;
        for (const ExtensionRule& rule : rules) {
          if (base.node_type(u) != rule.from_type ||
              base.node_type(v) != rule.new_type) {
            continue;
          }
          Graph cand = base;
          if (!cand.AddEdge(u, v, rule.edge_type).ok()) continue;
          accept(std::move(cand));
        }
      }
    }
    // Worklist guard: cap the explored space.
    if (frontier.size() > 4096) break;
  }
}

std::vector<MinedPattern> MineGspan(const std::vector<const Graph*>& graphs,
                                    const MinerOptions& options) {
  MinerOptions gspan = options;
  gspan.engine = MinerEngine::kGspan;
  return MinePatterns(graphs, gspan);
}

std::vector<MinedPattern> MineGspan(const std::vector<Graph>& graphs,
                                    const MinerOptions& options) {
  MinerOptions gspan = options;
  gspan.engine = MinerEngine::kGspan;
  return MinePatterns(graphs, gspan);
}

}  // namespace gvex
