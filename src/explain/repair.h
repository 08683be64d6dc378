// Counterfactual repair: Algorithm 1 returns ∅ when no selection satisfies
// the counterfactual invariant at every greedy step, which on real models is
// the common case (removing a single node almost never flips a GCN). Instead
// of discarding the graph, this post-pass restores feasibility: it greedily
// adds (or swaps in, when the budget is full) the nodes whose removal from G
// most decreases P(label | G \ V_S), until M(G \ V_S) != label or a budget
// is exhausted. The explainability objective is monotone, so additions never
// hurt it; swaps trade a small amount of f for the counterfactual property
// required by the definition of explanation subgraphs (§2.2).
//
// Every probe goes through one remainder predictor per call. An iteration
// pins V_S for the eviction order, then probes the candidate groups by
// eviction count k, ascending, with V_S minus its first k evictees pinned,
// so each trial toggles only its own group against the pinned set. The move
// is the trial of lowest P(label | G \ trial) below the current one, ties
// to the lowest node: what a scan in node order with a strict < picks.

#ifndef GVEX_EXPLAIN_REPAIR_H_
#define GVEX_EXPLAIN_REPAIR_H_

#include <vector>

#include "explain/config.h"
#include "gnn/gcn_model.h"
#include "graph/graph.h"

namespace gvex {

/// In-place repair of `vs` toward the counterfactual property. Returns true
/// if M(G \ vs) != label on exit. Respects bound.upper; performs at most
/// `max_iters` add/swap steps.
bool CounterfactualRepair(const GnnClassifier& model, const Graph& g,
                          int label, const CoverageBound& bound,
                          int max_iters, std::vector<NodeId>* vs);

}  // namespace gvex

#endif  // GVEX_EXPLAIN_REPAIR_H_
