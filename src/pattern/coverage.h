// Node/edge coverage of graphs by pattern sets — the bookkeeping behind
// constraint C1/C3 verification, Psum's weighted set cover, and the
// Compression / Edge-loss metrics of §6.

#ifndef GVEX_PATTERN_COVERAGE_H_
#define GVEX_PATTERN_COVERAGE_H_

#include <vector>

#include "graph/graph.h"
#include "pattern/isomorphism.h"
#include "pattern/pattern.h"

namespace gvex {

/// Which nodes/edges of one graph a pattern (set) covers. Edge flags align
/// with graph.edges() order.
struct CoverageMask {
  std::vector<bool> nodes;
  std::vector<bool> edges;

  int CountNodes() const;
  int CountEdges() const;
  bool AllNodes() const;
};

/// Coverage of `g` by the given matches of `pattern` (their union), stored
/// flat: pattern.num_nodes() node ids per match. Both ComputeCoverage and
/// the miner's occurrence lists are built by it.
CoverageMask MatchCoverage(const Graph& pattern, const Graph& g,
                           const std::vector<NodeId>& matches);

/// Coverage of `g` by one pattern (union over all matches).
CoverageMask ComputeCoverage(const Pattern& pattern, const Graph& g,
                             const MatchOptions& options = {});

/// Coverage of `g` by a set of patterns (union).
CoverageMask ComputeCoverage(const std::vector<Pattern>& patterns,
                             const Graph& g,
                             const MatchOptions& options = {});

/// Merges `other` into `base` (logical or); shapes must agree.
void MergeCoverage(const CoverageMask& other, CoverageMask* base);

/// True iff `patterns` cover every node of every graph — the graph-view
/// invariant ("P covers all the nodes in G_s", §2.1).
bool PatternsCoverAllNodes(const std::vector<Pattern>& patterns,
                           const std::vector<const Graph*>& graphs,
                           const MatchOptions& options = {});

}  // namespace gvex

#endif  // GVEX_PATTERN_COVERAGE_H_
