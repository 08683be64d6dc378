// Frequent connected-pattern mining — the PGen operator of §4. A gSpan-style
// level-wise miner over a set of (small) explanation subgraphs: single-node
// patterns are grown one node at a time along edges present in the data,
// deduplicated by canonical code, and pruned by support (anti-monotone).
// Growth runs on embeddings, gSpan's projected database: a child occurs
// only where its parent does, and its matches there are the parent's
// matches extended by one neighbour. The subgraph-isomorphism matcher
// (FindMatches, pattern/matcher.h) runs only where a match cap binds or on
// a directed graph. The gSpan engine (pattern/gspan.h) checks a child's
// support with the same matcher, and on undirected data only in the graphs
// its parent occurs in.
// MDL flavour: candidates are scored by how many data edges they describe,
// which Psum consumes as the weighted-set-cover weight. Each candidate keeps
// its per-graph occurrence list (the union of the matches found there), so
// Psum builds its set-cover table without matching again.

#ifndef GVEX_PATTERN_MINER_H_
#define GVEX_PATTERN_MINER_H_

#include <vector>

#include "graph/graph.h"
#include "pattern/coverage.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"

namespace gvex {

/// Pattern-mining engine. kLevelWise grows patterns one pendant node at a
/// time (trees only; fast). kGspan additionally performs backward edge
/// extensions, so cyclic patterns (rings) are minable (see pattern/gspan.h).
enum class MinerEngine { kLevelWise, kGspan };

/// Mining knobs.
struct MinerOptions {
  MinerEngine engine = MinerEngine::kLevelWise;
  /// Minimum number of data graphs a pattern must occur in.
  int min_support = 1;
  /// Minimum pattern size (in nodes) to *report*. Smaller patterns are still
  /// grown internally; this filters the returned set (useful to surface
  /// motif-scale patterns on graphs with few node types, e.g. Fig. 11's
  /// star/biclique structures).
  int min_pattern_nodes = 1;
  /// Maximum pattern size in nodes.
  int max_pattern_nodes = 5;
  /// Maximum number of candidates returned (best-first by coverage).
  int max_patterns = 64;
  /// Cap on matches enumerated per (pattern, graph) during support counting.
  int max_matches_per_graph = 256;
  MatchSemantics semantics = MatchSemantics::kInduced;
};

/// Where a pattern occurs in one input graph.
struct Occurrence {
  int graph = 0;    // index into the mined graph list
  int matches = 0;  // matches enumerated there (capped)
  /// Union of those matches' nodes and edges.
  CoverageMask mask;
  /// True when the match list stayed shorter than both
  /// MinerOptions::max_matches_per_graph and MatchOptions{}.max_matches, so
  /// no cap cut it: `mask` then equals ComputeCoverage(pattern, graph) under
  /// the mining semantics and either cap. The list is the one FindMatches
  /// returns under the mining cap — under a binding cap, the matcher's first
  /// N matches — whether growth extended the parent's matches (exact while
  /// no cap binds) or, once one does, ran the matcher.
  bool complete = false;
};

/// A mined pattern with its occurrences and the statistics derived from
/// them over the input graphs.
struct MinedPattern {
  Pattern pattern;
  /// One entry per graph the pattern occurs in, ascending by graph index.
  std::vector<Occurrence> occurrences;
  int support = 0;          // occurrences.size()
  int total_matches = 0;    // sum of Occurrence::matches
  int covered_nodes = 0;    // distinct data nodes covered across all inputs
  int covered_edges = 0;    // distinct data edges covered across all inputs
};

/// Matches `pattern` against every graph under `options.semantics`, capped
/// at `options.max_matches_per_graph` matches per graph, and returns its
/// occurrence list and statistics. gSpan counts support here, over the
/// graphs its non-induced check found the pattern in.
MinedPattern CountOccurrences(Pattern pattern,
                              const std::vector<const Graph*>& graphs,
                              const MinerOptions& options);

/// Mines frequent connected patterns from `graphs`. Deterministic order:
/// descending covered_nodes, then fewer pattern nodes, then canonical code.
std::vector<MinedPattern> MinePatterns(const std::vector<const Graph*>& graphs,
                                       const MinerOptions& options = {});

/// Convenience overload for owned graphs.
std::vector<MinedPattern> MinePatterns(const std::vector<Graph>& graphs,
                                       const MinerOptions& options = {});

}  // namespace gvex

#endif  // GVEX_PATTERN_MINER_H_
