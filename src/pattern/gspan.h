// gSpan-style pattern miner [Yan & Han, ICDM'02] — the algorithm the paper
// cites for PGen. Unlike the level-wise miner (which grows patterns one
// pendant node at a time and therefore only produces trees), this miner
// performs DFS-code-style *edge* extensions: forward extensions add a new
// typed node, backward extensions close cycles between existing pattern
// nodes. Cyclic patterns — e.g. the paper's carbon-ring pattern P32 — become
// minable. Candidates are deduplicated by canonical code; support pruning
// uses non-induced matching during growth (anti-monotone), while the
// reported statistics honor the configured semantics. Seeding, support
// counting, ranking and truncation are the level-wise miner's
// (pattern/miner.h); only the growth step is gSpan's own.

#ifndef GVEX_PATTERN_GSPAN_H_
#define GVEX_PATTERN_GSPAN_H_

#include <vector>

#include "graph/graph.h"
#include "pattern/miner.h"

namespace gvex {

/// MinePatterns with `engine` forced to kGspan: mines frequent connected
/// patterns (trees AND cycles) from `graphs`.
/// Options are shared with the level-wise miner; `max_pattern_nodes` bounds
/// node count, and the number of extra back edges per pattern is bounded by
/// the pattern size.
std::vector<MinedPattern> MineGspan(const std::vector<const Graph*>& graphs,
                                    const MinerOptions& options = {});

/// Convenience overload for owned graphs.
std::vector<MinedPattern> MineGspan(const std::vector<Graph>& graphs,
                                    const MinerOptions& options = {});

}  // namespace gvex

#endif  // GVEX_PATTERN_GSPAN_H_
