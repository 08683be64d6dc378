// Private to the two mining engines (miner.cpp, gspan.cpp): the pieces
// MinePatterns shares between them. Not for use outside src/pattern.

#ifndef GVEX_PATTERN_MINER_INTERNAL_H_
#define GVEX_PATTERN_MINER_INTERNAL_H_

#include <vector>

#include "graph/graph.h"
#include "pattern/miner.h"

namespace gvex {

/// One oriented edge of the data's type vocabulary: a pattern node of
/// `from_type` may gain a `new_type` neighbour over an `edge_type` edge.
/// Both engines extend patterns only along these rules.
struct ExtensionRule {
  int from_type;
  int new_type;
  int edge_type;
};

/// The rules for every edge in `graphs`, in both orientations, sorted.
std::vector<ExtensionRule> CollectExtensionRules(
    const std::vector<const Graph*>& graphs);

/// The kGspan growth step behind MinePatterns: extends the single-node
/// seeds in `results` by forward and backward edge extensions along
/// `rules`, appending every frequent pattern found (unranked).
void GrowGspan(const std::vector<const Graph*>& graphs,
               const std::vector<ExtensionRule>& rules,
               const MinerOptions& options,
               std::vector<MinedPattern>* results);

}  // namespace gvex

#endif  // GVEX_PATTERN_MINER_INTERNAL_H_
