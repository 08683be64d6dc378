#include "pattern/coverage.h"

#include <algorithm>
#include <cassert>

namespace gvex {

int CoverageMask::CountNodes() const {
  return static_cast<int>(std::count(nodes.begin(), nodes.end(), true));
}

int CoverageMask::CountEdges() const {
  return static_cast<int>(std::count(edges.begin(), edges.end(), true));
}

bool CoverageMask::AllNodes() const {
  return std::all_of(nodes.begin(), nodes.end(), [](bool b) { return b; });
}

CoverageMask MatchCoverage(const Graph& pattern, const Graph& g,
                           const std::vector<Match>& matches) {
  CoverageMask mask;
  mask.nodes.assign(static_cast<size_t>(g.num_nodes()), false);
  mask.edges.assign(static_cast<size_t>(g.num_edges()), false);
  for (const Match& m : matches) {
    for (NodeId v : m) mask.nodes[static_cast<size_t>(v)] = true;
    // Find each matched edge by a linear scan of g.edges(). The first edge
    // joining the pair wins, so a directed pair stored in both orientations
    // counts once.
    for (const Edge& pe : pattern.edges()) {
      NodeId a = m[static_cast<size_t>(pe.u)];
      NodeId b = m[static_cast<size_t>(pe.v)];
      for (size_t ei = 0; ei < g.edges().size(); ++ei) {
        const Edge& ge = g.edges()[ei];
        if ((ge.u == a && ge.v == b) || (ge.u == b && ge.v == a)) {
          mask.edges[ei] = true;
          break;
        }
      }
    }
  }
  return mask;
}

CoverageMask ComputeCoverage(const Pattern& pattern, const Graph& g,
                             const MatchOptions& options) {
  return MatchCoverage(pattern.graph(), g,
                       FindMatches(pattern.graph(), g, options));
}

CoverageMask ComputeCoverage(const std::vector<Pattern>& patterns,
                             const Graph& g, const MatchOptions& options) {
  CoverageMask total;
  total.nodes.assign(static_cast<size_t>(g.num_nodes()), false);
  total.edges.assign(static_cast<size_t>(g.num_edges()), false);
  for (const Pattern& p : patterns) {
    CoverageMask m = ComputeCoverage(p, g, options);
    MergeCoverage(m, &total);
  }
  return total;
}

void MergeCoverage(const CoverageMask& other, CoverageMask* base) {
  assert(other.nodes.size() == base->nodes.size());
  assert(other.edges.size() == base->edges.size());
  for (size_t i = 0; i < other.nodes.size(); ++i) {
    if (other.nodes[i]) base->nodes[i] = true;
  }
  for (size_t i = 0; i < other.edges.size(); ++i) {
    if (other.edges[i]) base->edges[i] = true;
  }
}

bool PatternsCoverAllNodes(const std::vector<Pattern>& patterns,
                           const std::vector<const Graph*>& graphs,
                           const MatchOptions& options) {
  for (const Graph* g : graphs) {
    if (g->num_nodes() == 0) continue;
    CoverageMask m = ComputeCoverage(patterns, *g, options);
    if (!m.AllNodes()) return false;
  }
  return true;
}

}  // namespace gvex
