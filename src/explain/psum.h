// Procedure Psum (§4): summarize explanation subgraphs into a pattern set
// P^l that (1) covers every subgraph node and (2) approximately minimizes the
// total edge-miss weight  w(P) = 1 - |P_ES| / |E_S|  via greedy weighted set
// cover (H_{u_l}-approximation, Lemma 4.3).
//
// Complexity: with c mined candidates and k subgraphs, PGen matches each
// candidate against each subgraph once (O(c·k·m), m the cost of one capped
// pattern match) and records the union of the matches it found per
// subgraph. The set-cover table is read from those occurrence lists; only
// an occurrence whose match list hit a cap is matched again. The greedy
// cover then costs O(|P^l|·c·coverage-size).
//
// Thread-safety: Psum is a pure, single-threaded function of its inputs —
// concurrent calls are safe.

#ifndef GVEX_EXPLAIN_PSUM_H_
#define GVEX_EXPLAIN_PSUM_H_

#include <vector>

#include "explain/config.h"
#include "graph/graph.h"
#include "pattern/miner.h"
#include "pattern/pattern.h"
#include "util/status.h"

namespace gvex {

/// Output of the summary phase.
struct PsumResult {
  std::vector<Pattern> patterns;
  /// Distinct subgraph edges covered by the selected patterns.
  int covered_edges = 0;
  /// Total subgraph edges (|E_S|).
  int total_edges = 0;
  /// Whether every subgraph node ended up covered.
  bool full_node_coverage = false;

  /// Edge loss = fraction of E_S not covered (Fig. 8c/d metric).
  double EdgeLoss() const {
    return total_edges == 0
               ? 0.0
               : 1.0 - static_cast<double>(covered_edges) / total_edges;
  }
};

/// Runs PGen (pattern mining) + greedy weighted set cover over the given
/// explanation subgraphs. Guarantees node coverage: every node type present
/// has its single-node pattern among the candidates, appended when the
/// miner's max_patterns cut dropped it.
Result<PsumResult> Psum(const std::vector<const Graph*>& subgraphs,
                        const Configuration& config);

/// Overload for owned graphs.
Result<PsumResult> Psum(const std::vector<Graph>& subgraphs,
                        const Configuration& config);

}  // namespace gvex

#endif  // GVEX_EXPLAIN_PSUM_H_
