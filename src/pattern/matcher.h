// Subgraph isomorphism — the PMatch primitive of §4, and the one matcher
// PGen, Psum, the graph-view check, the view metrics, Stream-GVEX and the
// serving fallback all run. Supports both induced semantics (non-edges of
// the pattern must map to non-edges — the paper's stated "node-induced
// subgraph isomorphism") and standard subgraph semantics.
//
// The matcher first computes an Ullmann-style per-node CANDIDATE SET —
// target nodes matching the pattern node's type, degree lower bound, and
// neighborhood signature (per (neighbor type, edge type) counts; once
// either graph is directed, the symmetric closure and neighbor types only,
// because a directed pattern edge may map onto a target edge of either
// orientation) — and refines the sets to a fixpoint: a candidate survives
// only if every pattern neighbor still has a candidate among its target
// neighbors. Most non-matching queries die right there (some pattern node
// ends up with no candidates) without a single backtracking step; matching
// queries backtrack over the surviving candidates only, in a
// most-constrained-first order. Candidate sets are bitsets over target
// nodes, so refinement and membership run on the word-level kernels of
// util/bitops.h.
//
// The filters are SOUND overapproximations for both induced and
// non-induced semantics: any target node that appears in some match always
// survives filtering. The randomized parity suite
// (tests/pattern/matcher_test.cpp) pins the match set, containment and
// coverage to the blind VF2-style backtracker kept as a test oracle
// (tests/pattern/blind_matcher.h); enumeration order differs from it, so
// under a binding max_matches cap the list is "this matcher's first N".
// ContainsPattern answers "no match" when MatchOptions::max_steps runs
// out; ContainsPatternBudgeted reports budget exhaustion as an explicit
// kUnknown instead — a sound "don't know", never a wrong yes or no.
//
// MaxCommonSubgraph is a McSplit-style branch-and-bound search for the
// maximum common node-induced subgraph of two graphs (label classes +
// soft bound, min_max branching), with a step budget that turns it into an
// anytime/approximate search: when the budget runs out the best mapping
// found so far is returned with exact = false. It backs the `mcs` serve
// verb (approximate pattern queries over the view store).
//
// Thread-safety: no state is shared between threads (each thread reuses
// its own scratch buffers across calls); safe to call concurrently.

#ifndef GVEX_PATTERN_MATCHER_H_
#define GVEX_PATTERN_MATCHER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace gvex {

/// Matching semantics for pattern edges.
enum class MatchSemantics {
  kInduced,     // edge in P <=> edge in G between mapped nodes
  kNonInduced,  // edge in P  => edge in G
};

/// Options bounding a matching run.
struct MatchOptions {
  MatchSemantics semantics = MatchSemantics::kInduced;
  /// Stop after this many matches (0 = unlimited).
  int max_matches = 4096;
  /// Backtracking-step budget; guards worst cases (0 = unlimited).
  int64_t max_steps = 10'000'000;
};

/// One match: match[i] is the data-graph node that pattern node i maps to.
using Match = std::vector<NodeId>;

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

/// Enumerates the matches of `pattern` into `target`, each exactly once,
/// stopping after options.max_matches. An empty pattern has none.
std::vector<Match> FindMatches(const Graph& pattern, const Graph& target,
                               const MatchOptions& options = {},
                               MatcherStats* stats = nullptr);

/// True iff at least one match exists (early-exit search). An empty
/// pattern is contained; an exhausted step budget answers false.
bool ContainsPattern(const Graph& target, const Graph& pattern,
                     const MatchOptions& options = {},
                     MatcherStats* stats = nullptr);

/// Budget-honest containment: kUnknown when MatchOptions::max_steps ran
/// out before a match was found or the space was exhausted.
MatchVerdict ContainsPatternBudgeted(const Graph& target,
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
