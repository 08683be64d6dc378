// Candidate-filtered subgraph matching — the fast replacement for blind
// backtracking on the serving fallback path.
//
// FindMatches/ContainsPattern (isomorphism.h) start backtracking with every
// target node a candidate for every pattern node; type and degree are only
// checked when a node is tried. The filtered matcher instead computes an
// Ullmann-style per-node CANDIDATE SET first — target nodes matching the
// pattern node's type, degree lower bound, and neighborhood signature
// (per (neighbor type, edge type) counts; directed graphs use the
// symmetric closure and neighbor types only, because the blind matcher
// accepts either orientation for a directed edge) — and refines the sets
// to a
// fixpoint: a candidate survives only if every pattern neighbor still has a
// candidate among its target neighbors. Most non-matching queries die right
// there (some pattern node ends up with no candidates) without a single
// backtracking step; matching queries backtrack over the surviving
// candidates only, in a most-constrained-first order. Candidate sets are
// bitsets over target nodes, so refinement and membership run on the
// word-level kernels of util/bitops.h.
//
// The filters are SOUND overapproximations for both induced and
// non-induced semantics: any target node that appears in some match always
// survives filtering, so the match set is exactly FindMatches' match set
// (pinned by the randomized parity suite in tests/pattern/matcher_test.cpp;
// enumeration ORDER may differ). ContainsPattern-compatible entry points
// mirror the legacy budget behavior (exhausting MatchOptions::max_steps
// returns "no match"); the *Budgeted entry point reports budget exhaustion
// as an explicit kUnknown instead — a sound "don't know", never a wrong
// yes or no.
//
// MaxCommonSubgraph is a McSplit-style branch-and-bound search for the
// maximum common node-induced subgraph of two graphs (label classes +
// soft bound, min_max branching), with a step budget that turns it into an
// anytime/approximate search: when the budget runs out the best mapping
// found so far is returned with exact = false. It backs the `mcs` serve
// verb (approximate pattern queries over the view store).
//
// Thread-safety: all functions are pure (no shared state); safe to call
// concurrently.

#ifndef GVEX_PATTERN_MATCHER_H_
#define GVEX_PATTERN_MATCHER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "pattern/isomorphism.h"

namespace gvex {

/// Tri-state answer for budgeted containment.
enum class MatchVerdict {
  kNoMatch,  ///< the full space was searched; no match exists
  kMatch,    ///< a match was found
  kUnknown,  ///< budget exhausted before either could be proven
};

/// Observability counters for one matcher run.
struct MatcherStats {
  /// True when filtering alone refuted the query (no backtracking ran).
  bool filtered_out = false;
  /// Total surviving candidates across pattern nodes (after refinement).
  uint64_t candidates = 0;
  /// Backtracking steps spent.
  uint64_t steps = 0;
};

/// Computes refined per-node candidate sets: (*candidates)[pv] lists the
/// target nodes that survive the label + degree + neighborhood-signature
/// filter and Ullmann refinement, ascending. Returns false when some
/// pattern node has NO candidates — no match can exist (the sets are still
/// written). Every node of every match survives, for both semantics.
bool BuildCandidateSets(const Graph& pattern, const Graph& target,
                        std::vector<std::vector<NodeId>>* candidates);

/// Drop-in replacement for FindMatches: same match SET (order may differ),
/// each match returned exactly once.
std::vector<Match> FilteredFindMatches(const Graph& pattern,
                                       const Graph& target,
                                       const MatchOptions& options = {},
                                       MatcherStats* stats = nullptr);

/// Drop-in replacement for ContainsPattern (early-exit, budget exhaustion
/// answers false exactly like the legacy matcher).
bool FilteredContainsPattern(const Graph& target, const Graph& pattern,
                             const MatchOptions& options = {},
                             MatcherStats* stats = nullptr);

/// Budget-honest containment: kUnknown when MatchOptions::max_steps ran
/// out before a match was found or the space was exhausted.
MatchVerdict FilteredContainsPatternBudgeted(const Graph& target,
                                             const Graph& pattern,
                                             const MatchOptions& options = {},
                                             MatcherStats* stats = nullptr);

/// Budget for MaxCommonSubgraph.
struct McsOptions {
  /// Branch-and-bound nodes explored before giving up (0 = unlimited).
  /// An exhausted budget downgrades the result to exact = false.
  int64_t max_steps = 2'000'000;
  /// Stop early once a common subgraph of this size is found (0 = run to
  /// the optimum / budget). Lets callers ask "do these share >= k nodes?".
  int target_size = 0;
};

/// A (possibly budget-truncated) maximum common subgraph.
struct McsResult {
  /// Nodes in the best common induced subgraph found.
  int size = 0;
  /// True when the search proved optimality (budget did not bind and no
  /// target_size early-exit fired); false = `size` is a lower bound.
  bool exact = true;
  /// The witness mapping, (node in a, node in b) pairs, a-side ascending.
  std::vector<std::pair<NodeId, NodeId>> mapping;
  /// Branch-and-bound nodes explored.
  int64_t steps = 0;
};

/// McSplit-style maximum common node-induced subgraph of `a` and `b`:
/// node types must agree pairwise and mapped edges must agree in presence
/// AND edge type (non-edges map to non-edges — induced).
McsResult MaxCommonSubgraph(const Graph& a, const Graph& b,
                            const McsOptions& options = {});

}  // namespace gvex

#endif  // GVEX_PATTERN_MATCHER_H_
