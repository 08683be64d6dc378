#include "explain/psum.h"

#include <algorithm>
#include <set>

#include "pattern/coverage.h"

namespace gvex {

Result<PsumResult> Psum(const std::vector<const Graph*>& subgraphs,
                        const Configuration& config) {
  PsumResult out;
  // Global id layout.
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

  // PGen: mine candidates. Single-node patterns make full node coverage
  // feasible (C1), but truncation to max_patterns ranks by coverage and can
  // cut a rare type's; append each type's that is missing.
  MinerOptions mopts = config.miner;
  mopts.min_support = 1;
  std::vector<MinedPattern> mined = MinePatterns(subgraphs, mopts);
  std::set<int> missing;
  for (const Graph* g : subgraphs) {
    missing.insert(g->node_types().begin(), g->node_types().end());
  }
  for (const MinedPattern& mp : mined) {
    if (mp.pattern.num_nodes() == 1) {
      missing.erase(mp.pattern.graph().node_type(0));
    }
  }
  for (int t : missing) {
    mined.push_back(CountOccurrences(Pattern::SingleNode(t), subgraphs, mopts));
  }

  // Per-candidate coverage table, flattened to global node and edge ids.
  // PGen already matched every candidate against every subgraph; an
  // occurrence whose match list no cap cut is exactly the coverage a fresh
  // match would give, so only a capped one is matched again.
  MatchOptions mo;
  mo.semantics = mopts.semantics;
  struct CandidateCoverage {
    std::vector<int> nodes;
    std::vector<int> edges;
  };
  std::vector<CandidateCoverage> cov(mined.size());
  for (size_t c = 0; c < mined.size(); ++c) {
    for (Occurrence& occ : mined[c].occurrences) {
      const size_t gi = static_cast<size_t>(occ.graph);
      const CoverageMask mask =
          occ.complete ? std::move(occ.mask)
                       : ComputeCoverage(mined[c].pattern, *subgraphs[gi], mo);
      for (size_t v = 0; v < mask.nodes.size(); ++v) {
        if (mask.nodes[v]) {
          cov[c].nodes.push_back(node_base[gi] + static_cast<int>(v));
        }
      }
      for (size_t e = 0; e < mask.edges.size(); ++e) {
        if (mask.edges[e]) {
          cov[c].edges.push_back(edge_base[gi] + static_cast<int>(e));
        }
      }
    }
  }

  // Greedy weighted set cover. Weight w(P) = 1 - |P_ES|/|E_S| (Jaccard-style
  // penalty on uncovered edges). Classic greedy rule: pick the candidate
  // minimizing weight per newly covered node, i.e. maximizing
  // new_nodes / (w + eps).
  std::vector<bool> node_covered(static_cast<size_t>(total_nodes), false);
  std::vector<bool> edge_covered(static_cast<size_t>(out.total_edges), false);
  std::vector<bool> used(mined.size(), false);
  int covered_count = 0;
  const double kEps = 1e-6;

  while (covered_count < total_nodes) {
    int best = -1;
    double best_ratio = -1.0;
    for (size_t c = 0; c < mined.size(); ++c) {
      if (used[c]) continue;
      int new_nodes = 0;
      for (int gn : cov[c].nodes) {
        if (!node_covered[static_cast<size_t>(gn)]) ++new_nodes;
      }
      if (new_nodes == 0) continue;
      const double w =
          out.total_edges == 0
              ? 0.0
              : 1.0 - static_cast<double>(cov[c].edges.size()) /
                          out.total_edges;
      const double ratio = static_cast<double>(new_nodes) / (w + kEps);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = static_cast<int>(c);
      }
    }
    if (best < 0) break;  // no candidate adds coverage (shouldn't happen)
    used[static_cast<size_t>(best)] = true;
    out.patterns.push_back(mined[static_cast<size_t>(best)].pattern);
    for (int gn : cov[static_cast<size_t>(best)].nodes) {
      if (!node_covered[static_cast<size_t>(gn)]) {
        node_covered[static_cast<size_t>(gn)] = true;
        ++covered_count;
      }
    }
    for (int ge : cov[static_cast<size_t>(best)].edges) {
      edge_covered[static_cast<size_t>(ge)] = true;
    }
  }

  out.covered_edges = static_cast<int>(
      std::count(edge_covered.begin(), edge_covered.end(), true));
  out.full_node_coverage = covered_count == total_nodes;
  return out;
}

Result<PsumResult> Psum(const std::vector<Graph>& subgraphs,
                        const Configuration& config) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(subgraphs.size());
  for (const Graph& g : subgraphs) ptrs.push_back(&g);
  return Psum(ptrs, config);
}

}  // namespace gvex
