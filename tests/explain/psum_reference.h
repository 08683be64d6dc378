// Test-only oracle for Procedure Psum: the coverage table as Psum built it
// before it read PGen's occurrence lists. Every mined candidate is matched
// against every subgraph again with ComputeCoverage (default match cap,
// mining semantics), and the same greedy weighted set cover runs on that
// table. Like Psum, it appends the single-node pattern of every node type
// the miner's max_patterns cut left without one. Its patterns, covered_edges and full_node_coverage are the
// specification the production Psum must match exactly.

#ifndef GVEX_TESTS_EXPLAIN_PSUM_REFERENCE_H_
#define GVEX_TESTS_EXPLAIN_PSUM_REFERENCE_H_

#include <algorithm>
#include <set>
#include <vector>

#include "explain/psum.h"
#include "pattern/coverage.h"

namespace gvex {
namespace testing {

inline PsumResult ReferencePsum(const std::vector<const Graph*>& subgraphs,
                                const Configuration& config) {
  PsumResult out;
  std::vector<int> node_base(subgraphs.size() + 1, 0);
  std::vector<int> edge_base(subgraphs.size() + 1, 0);
  for (size_t i = 0; i < subgraphs.size(); ++i) {
    node_base[i + 1] = node_base[i] + subgraphs[i]->num_nodes();
    edge_base[i + 1] = edge_base[i] + subgraphs[i]->num_edges();
  }
  const int total_nodes = node_base.back();
  out.total_edges = edge_base.back();
  if (total_nodes == 0) {
    out.full_node_coverage = true;
    return out;
  }

  MinerOptions mopts = config.miner;
  mopts.min_support = 1;
  std::vector<Pattern> candidates;
  std::set<int> missing;  // node types without a single-node candidate
  for (const Graph* g : subgraphs) {
    missing.insert(g->node_types().begin(), g->node_types().end());
  }
  for (const MinedPattern& mp : MinePatterns(subgraphs, mopts)) {
    candidates.push_back(mp.pattern);
    if (mp.pattern.num_nodes() == 1) {
      missing.erase(mp.pattern.graph().node_type(0));
    }
  }
  for (int t : missing) candidates.push_back(Pattern::SingleNode(t));

  // The rematch table: one ComputeCoverage per candidate x subgraph.
  MatchOptions mo;
  mo.semantics = mopts.semantics;
  std::vector<std::vector<int>> cov_nodes(candidates.size());
  std::vector<std::vector<int>> cov_edges(candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    for (size_t gi = 0; gi < subgraphs.size(); ++gi) {
      const CoverageMask mask =
          ComputeCoverage(candidates[c], *subgraphs[gi], mo);
      for (size_t v = 0; v < mask.nodes.size(); ++v) {
        if (mask.nodes[v]) {
          cov_nodes[c].push_back(node_base[gi] + static_cast<int>(v));
        }
      }
      for (size_t e = 0; e < mask.edges.size(); ++e) {
        if (mask.edges[e]) {
          cov_edges[c].push_back(edge_base[gi] + static_cast<int>(e));
        }
      }
    }
  }

  // Greedy weighted set cover, maximizing new_nodes / (w + eps) with
  // w = 1 - |P_ES| / |E_S|; ties keep the earlier candidate.
  std::vector<bool> node_covered(static_cast<size_t>(total_nodes), false);
  std::vector<bool> edge_covered(static_cast<size_t>(out.total_edges), false);
  std::vector<bool> used(candidates.size(), false);
  int covered_count = 0;
  while (covered_count < total_nodes) {
    int best = -1;
    double best_ratio = -1.0;
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (used[c]) continue;
      int new_nodes = 0;
      for (int gn : cov_nodes[c]) {
        if (!node_covered[static_cast<size_t>(gn)]) ++new_nodes;
      }
      if (new_nodes == 0) continue;
      const double w =
          out.total_edges == 0
              ? 0.0
              : 1.0 - static_cast<double>(cov_edges[c].size()) /
                          out.total_edges;
      const double ratio = static_cast<double>(new_nodes) / (w + 1e-6);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = static_cast<int>(c);
      }
    }
    if (best < 0) break;
    const size_t b = static_cast<size_t>(best);
    used[b] = true;
    out.patterns.push_back(candidates[b]);
    for (int gn : cov_nodes[b]) {
      if (!node_covered[static_cast<size_t>(gn)]) {
        node_covered[static_cast<size_t>(gn)] = true;
        ++covered_count;
      }
    }
    for (int ge : cov_edges[b]) edge_covered[static_cast<size_t>(ge)] = true;
  }
  out.covered_edges = static_cast<int>(
      std::count(edge_covered.begin(), edge_covered.end(), true));
  out.full_node_coverage = covered_count == total_nodes;
  return out;
}

}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_EXPLAIN_PSUM_REFERENCE_H_
