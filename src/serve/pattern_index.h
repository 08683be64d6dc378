// Inverted pattern index over a set of explanation views — the read path of
// the serving subsystem. A linear scan answers every pattern query with one
// subgraph-isomorphism check per (pattern, graph) pair (the test-only
// oracle tests/serve/scan_reference.h); the index pays that cross-product
// ONCE at build time and turns the queries themselves into hash lookups +
// bitset walks:
//
//   * postings keyed by Pattern::canonical_code(): which labels carry the
//     code in their view tier (and at which tier position), and which
//     database graphs contain the pattern;
//   * per-(code, label) coverage bitsets over the label's explanation
//     subgraphs, so GraphsWithPattern and DiscriminativePatterns reduce to
//     bitset iteration / emptiness checks. All bitset walks run on the
//     word-level kernels of util/bitops.h (ctz iteration, wide AND/ANDNOT/
//     emptiness), and GraphsWithAllPatterns batches a multi-pattern
//     conjunction into ONE accumulator pass over the postings instead of
//     one walk per pattern.
//
// Matching is kept only as a fallback for query patterns whose canonical
// code is not in the index (non-exact containment queries) — those still
// scan with ContainsPattern (pattern/matcher.h), whose candidate filter
// refutes most non-containing graphs before any backtracking; the answers
// are bit-identical to the scan reference's (pinned by the oracle parity
// suites). Fallback scans and inconsistent postings (a known code missing
// its per-label bitset — possible only with a logically corrupt snapshot)
// are counted in stats() and the latter is logged loudly; both still
// return the correct answer via the scan.
//
// Complexity: Build is O(codes x (total subgraphs + database size)) pattern
// matches. Apply — the admission path — derives the next epoch's index
// from the previous one and pays only O(codes x new subgraph content) plus
// O(new codes x (total subgraphs + database size)). Each explanation
// subgraph is keyed by its content, the bytes EncodeGraph (store/codec.h)
// writes for it: a replaced label's subgraph whose bytes its previous view
// held keeps its coverage bits, so re-admitting an identical view runs no
// check, and replacing k of a label's subgraphs runs codes x k. Encoding a
// replaced label's subgraphs is the only cost that stays proportional to
// the admitted views rather than to what changed. Both shard over a
// thread pool (deterministic result for every worker count) and add the
// checks they ran to `gvex_index_containment_checks_total`. Indexed
// queries are O(1) lookups plus output size; DiscriminativePatterns is
// O(|tier| x labels) bitset-emptiness checks.
//
// Thread-safety: immutable after Build/Apply/FromStored; all const methods
// are safe to call concurrently. Instances are snapshots, never mutated in
// place — but successive snapshots SHARE structure: Apply's result holds
// the same view pointers and the same per-(code, label) coverage words as
// its predecessor for every label the admission left alone (and the same
// words for a label re-admitted with identical subgraphs). Shared words
// are immutable, so readers of an old epoch and the writer building the
// next one only ever touch reference counts concurrently.

#ifndef GVEX_SERVE_PATTERN_INDEX_H_
#define GVEX_SERVE_PATTERN_INDEX_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "explain/explanation.h"
#include "graph/graph_database.h"
#include "pattern/matcher.h"
#include "pattern/pattern.h"
#include "store/snapshot.h"

namespace gvex {

class ThreadPool;

/// Views keyed by label, each held by pointer: successive epochs share
/// every view an admission did not replace, so copying the map for the
/// next epoch is O(labels), not O(store).
using ViewMap = std::map<int, std::shared_ptr<const ExplanationView>>;
using ViewMapPtr = std::shared_ptr<const ViewMap>;

/// Moves a plain label -> view map into shared form.
ViewMapPtr ShareViews(std::map<int, ExplanationView> views);

/// Postings for one canonical pattern code.
struct PatternPostings {
  /// Labels whose view tier contains this code, ascending.
  std::vector<int> labels;
  /// label -> position of the code in that view's pattern tier.
  std::map<int, int> tier_position;
  /// (label, bitset) pairs, labels ascending: 64-bit words over the label
  /// view's subgraph list; bit i is set iff subgraphs[i].subgraph contains
  /// the pattern. Computed for EVERY indexed label, not just the ones
  /// carrying the code, so discriminative queries never fall back to
  /// isomorphism. Each label's
  /// words are shared with snapshot export/import and with later epochs
  /// (Apply), so Save() and admissions copy pointers, not bitset words.
  CoverageBits subgraph_bits;
  /// Database graph indices containing the pattern, ascending (empty when
  /// database indexing is disabled or no database was supplied).
  std::vector<int> db_graphs;
};

/// Observability counters for one index instance. Queries mutate them
/// through an atomic so the index itself stays logically immutable (and
/// every const method stays safe to call concurrently).
struct IndexStats {
  /// Queries whose code was not indexed — answered by a filtered
  /// containment scan (the expected slow path for non-exact patterns).
  std::atomic<uint64_t> fallback_scans{0};
  /// Known code but no bitset for the queried label. This is an
  /// inconsistent snapshot state (build computes bits for every label); it
  /// is logged loudly, counted here, and answered by a scan.
  std::atomic<uint64_t> inconsistent_postings{0};
  /// Fallback containment checks refuted by candidate filtering alone
  /// (zero backtracking steps) — the matcher's fast-reject rate.
  std::atomic<uint64_t> filtered_rejects{0};
};

/// Immutable inverted index over the pattern tiers of a view set.
class PatternIndex {
 public:
  struct BuildOptions {
    /// Match semantics for containment checks; the scan reference uses
    /// induced semantics, the default here.
    MatchOptions match;
    /// Precompute db_graphs postings (full-database pattern queries become
    /// lookups at the cost of |codes| x |db| matches at build time).
    bool index_database = true;
    /// Workers for a Build (a ViewService also sizes its admission pool
    /// with it); the result is identical for every count.
    int num_threads = 1;
    BuildOptions() { match.semantics = MatchSemantics::kInduced; }
  };

  /// An empty index (no views, no database).
  PatternIndex() = default;

  /// Builds the index over `views` (keyed by label). `db` may be null and
  /// must outlive the index when given; views are shared via the pointer.
  static PatternIndex Build(ViewMapPtr views, const GraphDatabase* db,
                            const BuildOptions& options = {});

  /// Convenience overload copying the map.
  static PatternIndex Build(const std::map<int, ExplanationView>& views,
                            const GraphDatabase* db,
                            const BuildOptions& options = {});

  /// The index over `next_views`, derived from `prev` (an index over the
  /// previous epoch's views). `changed_labels` must name every label whose
  /// view was added, replaced or removed; every other label must map to
  /// the same view in both epochs. A replaced label's subgraphs are mapped
  /// by content (EncodeGraph bytes) onto its previous view's: a known code
  /// copies the bits of mapped subgraphs and checks only the unmapped ones,
  /// and when every subgraph sits where it was in a list of the same length
  /// the code shares `prev`'s words outright. Codes new to `next_views` are
  /// checked against every subgraph and database graph. Every other
  /// posting — each unchanged label's coverage words and every db_graphs
  /// list — is reused, and codes no tier carries any more are dropped. The
  /// database, match semantics and database indexing are `prev`'s. The
  /// result's ExportPostings() equals a Build over `next_views` with those
  /// options (pinned by the randomized oracle in
  /// tests/serve/pattern_index_test.cpp). The checks shard over `pool` when
  /// one is given and there is anything to check; null runs them inline.
  static PatternIndex Apply(const PatternIndex& prev, ViewMapPtr next_views,
                            const std::set<int>& changed_labels,
                            ThreadPool* pool = nullptr);

  // --- Snapshot persistence (store/snapshot.h) ---

  /// Exports every posting in ascending code order (deterministic snapshot
  /// bytes for identical state).
  std::vector<StoredPostings> ExportPostings() const;

  /// Reassembles an index from exported postings WITHOUT any isomorphism
  /// work — the warm-start path of ViewService::Open. The caller must
  /// supply the views/database the postings were computed over; `match`
  /// and `database_indexed` come from the snapshot so fallback queries
  /// behave exactly like the index that was saved. Answers are
  /// bit-identical to the original (pinned by the snapshot parity test).
  static PatternIndex FromStored(ViewMapPtr views, const GraphDatabase* db,
                                 const MatchOptions& match,
                                 bool database_indexed,
                                 const std::vector<StoredPostings>& postings);

  // --- Queries. Each is bit-identical to the linear scan of
  // tests/serve/scan_reference.h (see the oracle parity test). ---

  /// Labels that have a registered view, ascending.
  std::vector<int> Labels() const;

  /// The pattern tier of `label`'s view (empty when absent).
  const std::vector<Pattern>& PatternsForLabel(int label) const;

  /// Graphs of label group `label` whose explanation subgraph contains `p`.
  /// Indexed when p's code is known; filtered-matcher scan fallback
  /// otherwise.
  std::vector<int> GraphsWithPattern(int label, const Pattern& p) const;

  /// Graphs of label group `label` whose explanation subgraph contains ALL
  /// of `patterns` — equal to intersecting GraphsWithPattern answers, but
  /// computed as ONE bitset-AND accumulator pass across the postings
  /// (indexed codes narrow the accumulator word-wise first; any
  /// fallback-scan patterns only check subgraphs still in the
  /// accumulator). Empty `patterns` returns every graph of the label.
  std::vector<int> GraphsWithAllPatterns(
      int label, const std::vector<Pattern>& patterns) const;

  /// Labels whose pattern tier contains a pattern isomorphic to `p`.
  /// Always a pure hash lookup (tier membership is exact code equality).
  std::vector<int> LabelsOfPattern(const Pattern& p) const;

  /// Database graphs containing `p`, restricted to `label` (-1 = all).
  /// Indexed when p's code is known and the database was indexed.
  std::vector<int> DatabaseGraphsWithPattern(const Pattern& p,
                                             int label = -1) const;

  /// Patterns of `label`'s tier matching no explanation subgraph of any
  /// other label — pure bitset-emptiness checks, no isomorphism.
  std::vector<Pattern> DiscriminativePatterns(int label) const;

  /// Postings lookup by canonical code (null when unknown).
  const PatternPostings* Find(const std::string& code) const;

  int num_codes() const { return static_cast<int>(postings_.size()); }
  bool empty() const { return views_ == nullptr || views_->empty(); }
  const ViewMap& views() const;
  const MatchOptions& match_options() const { return match_; }
  bool database_indexed() const { return database_indexed_; }
  /// Containment checks Build/Apply ran to construct this index (0 for
  /// FromStored) — what makes an admission's O(new content) cost
  /// observable.
  uint64_t containment_checks() const { return containment_checks_; }
  /// Query-path counters (shared across copies of this snapshot's index).
  const IndexStats& stats() const { return *stats_; }

 private:
  bool SubgraphContains(const Graph& subgraph, const Pattern& p) const;
  /// `label`'s coverage words in `post`, or null when missing.
  static const std::vector<uint64_t>* LabelBits(const PatternPostings& post,
                                                int label);

  ViewMapPtr views_;
  const GraphDatabase* db_ = nullptr;
  MatchOptions match_;
  bool database_indexed_ = false;
  uint64_t containment_checks_ = 0;
  std::unordered_map<std::string, PatternPostings> postings_;
  // Behind a pointer so the index stays cheaply movable/copyable and const
  // query methods can count.
  std::shared_ptr<IndexStats> stats_ = std::make_shared<IndexStats>();
};

}  // namespace gvex

#endif  // GVEX_SERVE_PATTERN_INDEX_H_
