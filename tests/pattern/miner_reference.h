// Test-only oracle for PGen (MinePatterns): both mining engines as they ran
// before level-wise growth extended its parents' embeddings. Every
// candidate, seeds included, is counted by a full scan: one FindMatches per
// graph under the mining semantics and match cap, whose matches give the
// occurrence (MatchCoverage). gSpan checks a candidate's non-induced
// support in every graph rather than only in its parent's, and counts
// induced occurrences in every graph rather than only where that check
// found the candidate. Seeding, growth order, deduplication, ranking and
// the max_patterns cut are the production ones, so the returned list is the
// specification MinePatterns must match field by field.
//
// The scan runs the production matcher (pattern/matcher.h), not the blind
// oracle: under a binding cap a capped list is "the matcher's first N
// matches", so the reference and MinePatterns must enumerate in the same
// order. MatcherParityTest pins that matcher's match sets to the oracle.

#ifndef GVEX_TESTS_PATTERN_MINER_REFERENCE_H_
#define GVEX_TESTS_PATTERN_MINER_REFERENCE_H_

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "pattern/canonical.h"
#include "pattern/coverage.h"
#include "pattern/matcher.h"
#include "pattern/miner.h"

namespace gvex {
namespace testing {

inline MinedPattern ReferenceCount(Pattern pattern,
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
    std::vector<NodeId> flat;
    for (const Match& m : matches) flat.insert(flat.end(), m.begin(), m.end());
    Occurrence occ;
    occ.graph = static_cast<int>(gi);
    occ.matches = n;
    occ.mask = MatchCoverage(pg, *graphs[gi], flat);
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

inline std::vector<MinedPattern> ReferenceMinePatterns(
    const std::vector<const Graph*>& graphs, const MinerOptions& options) {
  std::vector<MinedPattern> results;
  if (graphs.empty()) return results;

  std::set<int> types;
  for (const Graph* g : graphs) {
    for (NodeId v = 0; v < g->num_nodes(); ++v) types.insert(g->node_type(v));
  }
  for (int t : types) {
    MinedPattern mp = ReferenceCount(Pattern::SingleNode(t), graphs, options);
    if (mp.support >= options.min_support) results.push_back(std::move(mp));
  }

  // (from_type, new_type, edge_type) for every data edge, both orientations.
  std::set<std::tuple<int, int, int>> rules;
  for (const Graph* g : graphs) {
    for (const Edge& e : g->edges()) {
      rules.insert({g->node_type(e.u), g->node_type(e.v), e.edge_type});
      rules.insert({g->node_type(e.v), g->node_type(e.u), e.edge_type});
    }
  }

  std::unordered_set<std::string> seen_codes;
  std::vector<Graph> frontier;
  for (const MinedPattern& mp : results) {
    seen_codes.insert(mp.pattern.canonical_code());
    frontier.push_back(mp.pattern.graph());
  }

  if (options.engine == MinerEngine::kLevelWise) {
    for (int level = 2; level <= options.max_pattern_nodes; ++level) {
      std::vector<Graph> next_frontier;
      for (const Graph& bg : frontier) {
        for (NodeId anchor = 0; anchor < bg.num_nodes(); ++anchor) {
          for (const auto& [from, to, edge] : rules) {
            if (bg.node_type(anchor) != from) continue;
            Graph cand = bg;
            NodeId nv = cand.AddNode(to);
            if (!cand.AddEdge(anchor, nv, edge).ok()) continue;
            auto pr = Pattern::Create(std::move(cand));
            if (!pr.ok()) continue;
            Pattern p = std::move(pr).value();
            if (!seen_codes.insert(p.canonical_code()).second) continue;
            MinedPattern mp = ReferenceCount(p, graphs, options);
            if (mp.support < options.min_support) continue;
            results.push_back(std::move(mp));
            next_frontier.push_back(p.graph());
          }
        }
      }
      frontier = std::move(next_frontier);
      if (frontier.empty()) break;
    }
  } else {
    MatchOptions non_induced;
    non_induced.semantics = MatchSemantics::kNonInduced;
    non_induced.max_matches = 1;
    auto accept = [&](Graph candidate) {
      std::string code = CanonicalCode(candidate);
      if (seen_codes.count(code)) return;
      int support = 0;
      for (size_t gi = 0; gi < graphs.size(); ++gi) {
        const int left = static_cast<int>(graphs.size() - gi);
        if (support + left < options.min_support) break;
        if (ContainsPattern(*graphs[gi], candidate, non_induced)) ++support;
      }
      if (support < options.min_support) return;
      seen_codes.insert(std::move(code));
      auto pattern = Pattern::Create(std::move(candidate));
      if (!pattern.ok()) return;
      frontier.push_back(pattern.value().graph());
      MinedPattern mp =
          ReferenceCount(std::move(pattern).value(), graphs, options);
      if (mp.support >= options.min_support) results.push_back(std::move(mp));
    };
    size_t head = 0;
    while (head < frontier.size()) {
      Graph base = frontier[head++];
      if (base.num_nodes() < options.max_pattern_nodes) {
        for (NodeId anchor = 0; anchor < base.num_nodes(); ++anchor) {
          for (const auto& [from, to, edge] : rules) {
            if (base.node_type(anchor) != from) continue;
            Graph cand = base;
            NodeId nv = cand.AddNode(to);
            if (!cand.AddEdge(anchor, nv, edge).ok()) continue;
            accept(std::move(cand));
          }
        }
      }
      for (NodeId u = 0; u < base.num_nodes(); ++u) {
        for (NodeId v = u + 1; v < base.num_nodes(); ++v) {
          if (base.HasEdge(u, v)) continue;
          for (const auto& [from, to, edge] : rules) {
            if (base.node_type(u) != from || base.node_type(v) != to) {
              continue;
            }
            Graph cand = base;
            if (!cand.AddEdge(u, v, edge).ok()) continue;
            accept(std::move(cand));
          }
        }
      }
      if (frontier.size() > 4096) break;
    }
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

}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_PATTERN_MINER_REFERENCE_H_
