#include "pattern/matcher.h"

#include <algorithm>
#include <map>
#include <utility>

#include "util/bitops.h"

namespace gvex {

namespace {

// Distinct incident neighbors per node, flat: node v's list is
// nodes[begin[v] .. begin[v + 1]). BOTH orientations for directed graphs:
// a directed pattern edge may map onto a target edge of either
// orientation, so every structural filter here must look at the symmetric
// closure or it over-prunes candidates that appear in matches.
struct IncidentLists {
  std::vector<NodeId> nodes;
  std::vector<size_t> begin;

  size_t size(NodeId v) const {
    return begin[static_cast<size_t>(v) + 1] - begin[static_cast<size_t>(v)];
  }
};

// Fills `out`, reusing its storage; `pairs` is scratch.
void IncidentNeighbors(const Graph& g,
                       std::vector<std::pair<NodeId, NodeId>>* pairs,
                       IncidentLists* out) {
  pairs->clear();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Neighbor& nb : g.neighbors(v)) {
      pairs->emplace_back(v, nb.node);
      if (g.directed()) pairs->emplace_back(nb.node, v);
    }
  }
  if (g.directed()) {
    // Dedupe pairs connected in both orientations.
    std::sort(pairs->begin(), pairs->end());
    pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
  }
  out->begin.assign(static_cast<size_t>(g.num_nodes()) + 1, 0);
  out->nodes.clear();
  for (const auto& [v, u] : *pairs) {
    ++out->begin[static_cast<size_t>(v) + 1];
    out->nodes.push_back(u);
  }
  for (size_t v = 1; v < out->begin.size(); ++v) {
    out->begin[v] += out->begin[v - 1];
  }
}

// Every node's neighborhood signature, flat: node v's (key, count) runs,
// ascending by key, are runs[begin[v] .. begin[v + 1]). A key packs
// (neighbor node type, edge type) when pattern and target are both
// undirected, else (`type_only`) the neighbor type alone: Feasible resolves
// a directed pair's effective edge type orientation- (and BlindRank-)
// dependently, so edge type cannot soundly constrain the signature once
// either side is directed. Pattern and target must use the same keys.
struct Signatures {
  std::vector<std::pair<uint64_t, int>> runs;
  std::vector<size_t> begin;
};

uint64_t SignatureKey(int node_type, int edge_type) {
  return (uint64_t{static_cast<uint32_t>(node_type)} << 32) |
         static_cast<uint32_t>(edge_type);
}

// Fills `out`, reusing its storage; `keys` is scratch.
void NeighborSignatures(const Graph& g, const IncidentLists& nbrs,
                        bool type_only, std::vector<uint64_t>* keys,
                        Signatures* out) {
  out->runs.clear();
  out->begin.assign(1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    keys->clear();
    if (type_only) {
      for (size_t i = nbrs.begin[static_cast<size_t>(v)];
           i < nbrs.begin[static_cast<size_t>(v) + 1]; ++i) {
        keys->push_back(SignatureKey(g.node_type(nbrs.nodes[i]), 0));
      }
    } else {
      for (const Neighbor& nb : g.neighbors(v)) {
        keys->push_back(SignatureKey(g.node_type(nb.node), nb.edge_type));
      }
    }
    std::sort(keys->begin(), keys->end());
    for (size_t i = 0; i < keys->size(); ++i) {
      if (i > 0 && (*keys)[i] == (*keys)[i - 1]) {
        ++out->runs.back().second;
      } else {
        out->runs.emplace_back((*keys)[i], 1);
      }
    }
    out->begin.push_back(out->runs.size());
  }
}

// Every key of `need`'s node `nv` present in `have`'s node `hv` with at
// least the needed count (a merge walk over the two sorted runs).
bool SignatureCovers(const Signatures& have, NodeId hv,
                     const Signatures& need, NodeId nv) {
  size_t h = have.begin[static_cast<size_t>(hv)];
  const size_t h_end = have.begin[static_cast<size_t>(hv) + 1];
  for (size_t n = need.begin[static_cast<size_t>(nv)];
       n < need.begin[static_cast<size_t>(nv) + 1]; ++n) {
    const auto& [key, count] = need.runs[n];
    while (h < h_end && have.runs[h].first < key) ++h;
    if (h == h_end || have.runs[h].first != key ||
        have.runs[h].second < count) {
      return false;
    }
  }
  return true;
}

// Placement ranks of the blind test oracle (tests/pattern/blind_matcher.h
// BuildOrder: highest-degree start, then most placed out-neighbors, degree
// tie-break). A pair's effective edge type is resolved from the
// EARLIER-ranked node's perspective, which matters when a pair is connected
// in both orientations with different types — so the match set does not
// depend on the search order, Feasible below assigns pair roles by these
// ranks, not by our own placement order.
std::vector<int> BlindRank(const Graph& p) {
  const int np = p.num_nodes();
  std::vector<int> rank(static_cast<size_t>(np), 0);
  if (np == 0) return rank;
  std::vector<bool> placed(static_cast<size_t>(np), false);
  int start = 0;
  for (int v = 1; v < np; ++v) {
    if (p.degree(v) > p.degree(start)) start = v;
  }
  placed[static_cast<size_t>(start)] = true;
  int next_rank = 0;
  rank[static_cast<size_t>(start)] = next_rank++;
  while (next_rank < np) {
    int best = -1;
    int best_conn = -1;
    for (int v = 0; v < np; ++v) {
      if (placed[static_cast<size_t>(v)]) continue;
      int conn = 0;
      for (const Neighbor& nb : p.neighbors(v)) {
        if (placed[static_cast<size_t>(nb.node)]) ++conn;
      }
      if (conn > best_conn ||
          (conn == best_conn && best != -1 &&
           p.degree(v) > p.degree(best))) {
        best = v;
        best_conn = conn;
      }
    }
    placed[static_cast<size_t>(best)] = true;
    rank[static_cast<size_t>(best)] = next_rank++;
  }
  return rank;
}

// The buffers a thread's matcher runs reuse, so that a run on a small
// target allocates little beyond its results. Runs never nest, so one set
// per thread suffices.
struct MatcherBuffers {
  std::vector<uint64_t> cand;  // words per pattern node
  std::vector<uint64_t> adj;   // words per target node
  IncidentLists p_nbrs;        // incident, both orientations
  IncidentLists g_nbrs;
  Signatures p_sigs;
  Signatures g_sigs;
  std::vector<std::pair<NodeId, NodeId>> pairs;  // IncidentNeighbors scratch
  std::vector<uint64_t> keys;  // NeighborSignatures scratch
  std::vector<uint8_t> p_has;  // dense n*n edge existence (see PHas)
  std::vector<int32_t> p_et;   // dense n*n edge types, -1 = none
  std::vector<uint8_t> g_has;
  std::vector<int32_t> g_et;
  std::vector<int> order;
  Match mapping;
  std::vector<bool> used;
};

MatcherBuffers& ThreadBuffers() {
  thread_local MatcherBuffers buffers;
  return buffers;
}

// Shared state for one filtered run: candidate bitsets over target nodes,
// target adjacency bitsets, and the backtracking machinery.
class FilteredMatcher {
 public:
  FilteredMatcher(const Graph& pattern, const Graph& target,
                  const MatchOptions& options, MatcherStats* stats)
      : p_(pattern), g_(target), opt_(options), stats_(stats) {}

  // Phase 1: label + degree + signature filter, then Ullmann refinement.
  // Returns false when some pattern node has no surviving candidate.
  bool Filter() {
    const int np = p_.num_nodes();
    const int nt = g_.num_nodes();
    words_ = bitops::WordsForBits(static_cast<size_t>(nt));
    cand_.assign(static_cast<size_t>(np) * words_, 0);
    if (np > nt) return false;

    IncidentNeighbors(p_, &buf_.pairs, &p_nbrs_);
    IncidentNeighbors(g_, &buf_.pairs, &buf_.g_nbrs);
    const IncidentLists& g_nbrs = buf_.g_nbrs;
    const bool type_only = p_.directed() || g_.directed();
    NeighborSignatures(p_, p_nbrs_, type_only, &buf_.keys, &buf_.p_sigs);
    NeighborSignatures(g_, g_nbrs, type_only, &buf_.keys, &buf_.g_sigs);
    const Signatures& p_sigs = buf_.p_sigs;
    const Signatures& g_sigs = buf_.g_sigs;
    bool any_empty = false;
    for (int pv = 0; pv < np; ++pv) {
      bool empty = true;
      for (NodeId gv = 0; gv < nt; ++gv) {
        if (p_.node_type(pv) != g_.node_type(gv)) continue;
        // Out-degree(pv) <= out-degree(gv) is part of the match
        // definition (the oracle enforces it at every placement).
        if (p_.degree(pv) > g_.degree(gv)) continue;
        // Distinct pattern neighbors also map injectively to distinct
        // target neighbors (incident count — both orientations, see
        // IncidentNeighbors).
        if (p_nbrs_.size(pv) > g_nbrs.size(gv)) continue;
        if (!SignatureCovers(g_sigs, gv, p_sigs, pv)) continue;
        bitops::SetBit(Cand(pv), static_cast<size_t>(gv));
        empty = false;
      }
      any_empty = any_empty || empty;
    }
    if (any_empty) return false;

    // Target adjacency as bitsets — symmetric closure, since a directed
    // pattern edge may map onto a target edge of either orientation.
    adj_.assign(static_cast<size_t>(nt) * words_, 0);
    for (NodeId v = 0; v < nt; ++v) {
      for (size_t i = g_nbrs.begin[static_cast<size_t>(v)];
           i < g_nbrs.begin[static_cast<size_t>(v) + 1]; ++i) {
        bitops::SetBit(&adj_[static_cast<size_t>(v) * words_],
                       static_cast<size_t>(g_nbrs.nodes[i]));
      }
    }

    // Ullmann refinement to a fixpoint: gv stays a candidate for pv only
    // while every pattern neighbor pu of pv (either orientation) still has
    // a candidate among gv's neighbors. Sound: in any match pv->gv, pu
    // maps to such a node, so a refuted gv can appear in no match.
    bool changed = true;
    while (changed) {
      changed = false;
      for (int pv = 0; pv < np; ++pv) {
        uint64_t* cands = Cand(pv);
        bool empty = true;
        for (size_t wi = 0; wi < words_; ++wi) {
          uint64_t w = cands[wi];
          while (w != 0) {
            const size_t gv =
                (wi << 6) +
                static_cast<size_t>(__builtin_ctzll(w));
            w &= w - 1;
            bool ok = true;
            for (size_t i = p_nbrs_.begin[static_cast<size_t>(pv)];
                 i < p_nbrs_.begin[static_cast<size_t>(pv) + 1]; ++i) {
              if (!bitops::Intersects(Cand(p_nbrs_.nodes[i]),
                                      &adj_[gv * words_], words_)) {
                ok = false;
                break;
              }
            }
            if (!ok) {
              cands[wi] &= ~(uint64_t{1} << (gv & 63));
              changed = true;
            }
          }
          if (cands[wi] != 0) empty = false;
        }
        if (empty) return false;
      }
    }

    if (stats_ != nullptr) {
      stats_->candidates += bitops::Popcount(cand_.data(), cand_.size());
    }
    return true;
  }

  // Phase 2: backtracking over the surviving candidates,
  // most-constrained-first. Returns the verdict; matches land in results().
  MatchVerdict Search(bool stop_at_first) {
    stop_at_first_ = stop_at_first;
    BuildOrder();
    blind_rank_ = BlindRank(p_);
    // Graph::HasEdge/EdgeType scan an adjacency list per call, and the
    // backtracking inner loop issues several per placed pair. Replace them
    // with dense O(1) row-major tables (exact mirrors of the adjacency
    // lists) while the quadratic footprint stays small.
    BuildEdgeTables(p_, &p_has_, &p_et_);
    BuildEdgeTables(g_, &g_has_, &g_et_);
    mapping_.assign(static_cast<size_t>(p_.num_nodes()), -1);
    used_.assign(static_cast<size_t>(g_.num_nodes()), false);
    const bool completed = Backtrack(0);
    if (stats_ != nullptr) stats_->steps = steps_;
    if (!results_.empty()) return MatchVerdict::kMatch;
    // An aborted search that found nothing proves nothing — unless the
    // abort reason was "enough matches", impossible with zero results.
    return completed ? MatchVerdict::kNoMatch : MatchVerdict::kUnknown;
  }

  std::vector<Match> TakeResults() { return std::move(results_); }
  bool budget_exhausted() const { return budget_exhausted_; }
  // Pattern node pv's candidate bitset (words() words).
  const uint64_t* Cand(int pv) const {
    return cand_.data() + static_cast<size_t>(pv) * words_;
  }
  size_t words() const { return words_; }

 private:
  // Past this many nodes the n*n tables stop being worth their footprint;
  // the helpers below fall back to the (identical) adjacency-list scans.
  static constexpr int kDenseLookupMaxNodes = 512;

  // Leaves the tables empty past kDenseLookupMaxNodes (the buffers are
  // reused, so they must not keep an earlier run's tables).
  static void BuildEdgeTables(const Graph& g, std::vector<uint8_t>* has,
                              std::vector<int32_t>* et) {
    const size_t n = static_cast<size_t>(g.num_nodes());
    if (g.num_nodes() > kDenseLookupMaxNodes) {
      has->clear();
      et->clear();
      return;
    }
    has->assign(n * n, 0);
    et->assign(n * n, -1);
    for (NodeId u = 0; u < static_cast<NodeId>(n); ++u) {
      for (const Neighbor& nb : g.neighbors(u)) {
        (*has)[static_cast<size_t>(u) * n + static_cast<size_t>(nb.node)] =
            1;
        (*et)[static_cast<size_t>(u) * n + static_cast<size_t>(nb.node)] =
            nb.edge_type;
      }
    }
  }

  bool PHas(int u, int v) const {
    if (p_has_.empty()) return p_.HasEdge(u, v);
    return p_has_[static_cast<size_t>(u) *
                      static_cast<size_t>(p_.num_nodes()) +
                  static_cast<size_t>(v)] != 0;
  }
  int PEt(int u, int v) const {
    if (p_et_.empty()) return p_.EdgeType(u, v);
    return p_et_[static_cast<size_t>(u) *
                     static_cast<size_t>(p_.num_nodes()) +
                 static_cast<size_t>(v)];
  }
  bool GHas(NodeId u, NodeId v) const {
    if (g_has_.empty()) return g_.HasEdge(u, v);
    return g_has_[static_cast<size_t>(u) *
                      static_cast<size_t>(g_.num_nodes()) +
                  static_cast<size_t>(v)] != 0;
  }
  int GEt(NodeId u, NodeId v) const {
    if (g_et_.empty()) return g_.EdgeType(u, v);
    return g_et_[static_cast<size_t>(u) *
                     static_cast<size_t>(g_.num_nodes()) +
                 static_cast<size_t>(v)];
  }

  uint64_t* Cand(int pv) {
    return cand_.data() + static_cast<size_t>(pv) * words_;
  }

  size_t CandCount(int pv) const {
    return bitops::Popcount(Cand(pv), words_);
  }

  // Static order: start at the node with the fewest candidates; extend
  // connectivity-first (most placed neighbors), tie-breaking on candidate
  // count then degree, so the frontier stays maximally constrained.
  void BuildOrder() {
    const int np = p_.num_nodes();
    order_.clear();
    std::vector<bool> placed(static_cast<size_t>(np), false);
    int start = 0;
    for (int v = 1; v < np; ++v) {
      const size_t cv = CandCount(v);
      const size_t cs = CandCount(start);
      if (cv < cs || (cv == cs && p_.degree(v) > p_.degree(start))) {
        start = v;
      }
    }
    order_.push_back(start);
    placed[static_cast<size_t>(start)] = true;
    while (static_cast<int>(order_.size()) < np) {
      int best = -1;
      int best_conn = -1;
      size_t best_cands = 0;
      for (int v = 0; v < np; ++v) {
        if (placed[static_cast<size_t>(v)]) continue;
        int conn = 0;
        for (const Neighbor& nb : p_.neighbors(v)) {
          if (placed[static_cast<size_t>(nb.node)]) ++conn;
        }
        const size_t cands = CandCount(v);
        if (conn > best_conn ||
            (conn == best_conn &&
             (cands < best_cands ||
              (cands == best_cands && best != -1 &&
               p_.degree(v) > p_.degree(best))))) {
          best = v;
          best_conn = conn;
          best_cands = cands;
        }
      }
      order_.push_back(best);
      placed[static_cast<size_t>(best)] = true;
    }
  }

  bool Feasible(int pv, NodeId gv, int depth) {
    // Type/degree/signature already vetted by the candidate set; only the
    // consistency against mapped neighbors remains. Pair roles follow
    // BlindRank so the effective edge type of a both-orientation pair does
    // not depend on the search order.
    for (int i = 0; i < depth; ++i) {
      int pa = order_[static_cast<size_t>(i)];
      int pb = pv;
      NodeId ga = mapping_[static_cast<size_t>(pa)];
      NodeId gb = gv;
      if (blind_rank_[static_cast<size_t>(pb)] <
          blind_rank_[static_cast<size_t>(pa)]) {
        std::swap(pa, pb);
        std::swap(ga, gb);
      }
      const bool p_edge = PHas(pa, pb) || PHas(pb, pa);
      // adj_ is the symmetric closure of target edge existence, so one bit
      // test replaces HasEdge(ga, gb) || HasEdge(gb, ga).
      const bool g_edge = bitops::TestBit(
          &adj_[static_cast<size_t>(ga) * words_], static_cast<size_t>(gb));
      if (p_edge) {
        if (!g_edge) return false;
        int pt = PEt(pa, pb);
        if (pt < 0) pt = PEt(pb, pa);
        int gt = GEt(ga, gb);
        if (gt < 0) gt = GEt(gb, ga);
        if (pt != gt) return false;
      } else if (opt_.semantics == MatchSemantics::kInduced && g_edge) {
        return false;
      }
    }
    return true;
  }

  bool TryCandidate(int pv, NodeId gv, int depth) {
    if (used_[static_cast<size_t>(gv)]) return true;
    if (!bitops::TestBit(Cand(pv), static_cast<size_t>(gv))) return true;
    if (!Feasible(pv, gv, depth)) return true;
    mapping_[static_cast<size_t>(pv)] = gv;
    used_[static_cast<size_t>(gv)] = true;
    const bool keep = Backtrack(depth + 1);
    used_[static_cast<size_t>(gv)] = false;
    mapping_[static_cast<size_t>(pv)] = -1;
    return keep;
  }

  // Returns false when the search should stop (budget or enough matches).
  bool Backtrack(int depth) {
    if (opt_.max_steps > 0 && ++steps_ > opt_.max_steps) {
      budget_exhausted_ = true;
      return false;
    }
    if (depth == p_.num_nodes()) {
      results_.push_back(mapping_);
      if (stop_at_first_) return false;
      if (opt_.max_matches > 0 &&
          static_cast<int>(results_.size()) >= opt_.max_matches) {
        return false;
      }
      return true;
    }
    const int pv = order_[static_cast<size_t>(depth)];
    int anchor = -1;
    for (int i = 0; i < depth; ++i) {
      const int pu = order_[static_cast<size_t>(i)];
      if (PHas(pu, pv) || PHas(pv, pu)) {
        anchor = pu;
        break;
      }
    }
    if (anchor >= 0) {
      // Anchored: only neighbors of the anchor's image can work; intersect
      // that neighborhood with pv's candidate set via the O(1) bit test.
      const NodeId ga = mapping_[static_cast<size_t>(anchor)];
      for (const Neighbor& nb : g_.neighbors(ga)) {
        if (!TryCandidate(pv, nb.node, depth)) return false;
      }
      if (g_.directed()) {
        // Pure in-neighbors only: a both-orientation neighbor was already
        // tried above, and trying it again would emit duplicate matches.
        for (NodeId gv = 0; gv < g_.num_nodes(); ++gv) {
          if (GHas(gv, ga) && !GHas(ga, gv) &&
              !TryCandidate(pv, gv, depth)) {
            return false;
          }
        }
      }
    } else {
      // Unanchored (first node, or a disconnected pattern component):
      // iterate the candidate set itself, one ctz per candidate.
      const uint64_t* cands = Cand(pv);
      for (size_t wi = 0; wi < words_; ++wi) {
        uint64_t w = cands[wi];
        while (w != 0) {
          const NodeId gv = static_cast<NodeId>(
              (wi << 6) + static_cast<size_t>(__builtin_ctzll(w)));
          w &= w - 1;
          if (!TryCandidate(pv, gv, depth)) return false;
        }
      }
    }
    return true;
  }

  const Graph& p_;
  const Graph& g_;
  MatchOptions opt_;
  MatcherStats* stats_;
  size_t words_ = 0;
  MatcherBuffers& buf_ = ThreadBuffers();
  std::vector<uint64_t>& cand_ = buf_.cand;
  std::vector<uint64_t>& adj_ = buf_.adj;
  IncidentLists& p_nbrs_ = buf_.p_nbrs;
  std::vector<uint8_t>& p_has_ = buf_.p_has;
  std::vector<int32_t>& p_et_ = buf_.p_et;
  std::vector<uint8_t>& g_has_ = buf_.g_has;
  std::vector<int32_t>& g_et_ = buf_.g_et;
  std::vector<int>& order_ = buf_.order;
  std::vector<int> blind_rank_;
  Match& mapping_ = buf_.mapping;
  std::vector<bool>& used_ = buf_.used;
  std::vector<Match> results_;
  int64_t steps_ = 0;
  bool stop_at_first_ = false;
  bool budget_exhausted_ = false;
};

// Shared driver: filter, then search. An exhausted budget reports kUnknown;
// ContainsPattern turns that into "no match".
MatchVerdict RunFiltered(const Graph& pattern, const Graph& target,
                         const MatchOptions& options, bool stop_at_first,
                         MatcherStats* stats, std::vector<Match>* matches) {
  FilteredMatcher m(pattern, target, options, stats);
  if (!m.Filter()) {
    if (stats != nullptr) stats->filtered_out = true;
    return MatchVerdict::kNoMatch;
  }
  const MatchVerdict verdict = m.Search(stop_at_first);
  if (matches != nullptr) *matches = m.TakeResults();
  return verdict;
}

}  // namespace

bool BuildCandidateSets(const Graph& pattern, const Graph& target,
                        std::vector<std::vector<NodeId>>* candidates) {
  MatchOptions options;
  FilteredMatcher m(pattern, target, options, nullptr);
  const bool feasible = m.Filter();
  const FilteredMatcher& filtered = m;
  candidates->assign(static_cast<size_t>(pattern.num_nodes()), {});
  for (int pv = 0; pv < pattern.num_nodes(); ++pv) {
    bitops::ForEachSetBit(filtered.Cand(pv), m.words(), [&](size_t gv) {
      (*candidates)[static_cast<size_t>(pv)].push_back(
          static_cast<NodeId>(gv));
    });
  }
  return feasible;
}

std::vector<Match> FindMatches(const Graph& pattern, const Graph& target,
                               const MatchOptions& options,
                               MatcherStats* stats) {
  if (pattern.num_nodes() == 0) return {};
  std::vector<Match> matches;
  (void)RunFiltered(pattern, target, options, /*stop_at_first=*/false,
                    stats, &matches);
  return matches;
}

bool ContainsPattern(const Graph& target, const Graph& pattern,
                     const MatchOptions& options, MatcherStats* stats) {
  if (pattern.num_nodes() == 0) return true;
  return RunFiltered(pattern, target, options, /*stop_at_first=*/true,
                     stats, nullptr) == MatchVerdict::kMatch;
}

MatchVerdict ContainsPatternBudgeted(const Graph& target,
                                     const Graph& pattern,
                                     const MatchOptions& options,
                                     MatcherStats* stats) {
  if (pattern.num_nodes() == 0) return MatchVerdict::kMatch;
  return RunFiltered(pattern, target, options, /*stop_at_first=*/true,
                     stats, nullptr);
}

// --- McSplit-style maximum common subgraph ------------------------------

namespace {

// One label class: nodes of `a` (left) and `b` (right) that are pairwise
// compatible — same node type initially, refined by identical adjacency
// (presence + edge type) to every mapped pair.
struct LabelClass {
  std::vector<NodeId> left;
  std::vector<NodeId> right;
};

class McsSearcher {
 public:
  McsSearcher(const Graph& a, const Graph& b, const McsOptions& opt)
      : a_(a), b_(b), opt_(opt) {}

  McsResult Run() {
    // Initial partition by node type.
    std::map<int, LabelClass> by_type;
    for (NodeId v = 0; v < a_.num_nodes(); ++v) {
      by_type[a_.node_type(v)].left.push_back(v);
    }
    for (NodeId v = 0; v < b_.num_nodes(); ++v) {
      by_type[b_.node_type(v)].right.push_back(v);
    }
    std::vector<LabelClass> classes;
    for (auto& [type, cls] : by_type) {
      (void)type;
      if (!cls.left.empty() && !cls.right.empty()) {
        classes.push_back(std::move(cls));
      }
    }
    Search(classes);
    McsResult out;
    out.size = static_cast<int>(best_.size());
    out.exact = !exhausted_ && !stopped_;
    out.mapping = std::move(best_);
    std::sort(out.mapping.begin(), out.mapping.end());
    out.steps = steps_;
    return out;
  }

 private:
  // -1 encodes "no edge"; otherwise the edge type (checked both
  // orientations so undirected storage direction does not matter).
  int EdgeKey(const Graph& g, NodeId u, NodeId v) const {
    int t = g.EdgeType(u, v);
    if (t < 0 && !g.directed()) t = g.EdgeType(v, u);
    return t;
  }

  void Search(const std::vector<LabelClass>& classes) {
    if (stopped_ || exhausted_) return;
    if (opt_.max_steps > 0 && ++steps_ > opt_.max_steps) {
      exhausted_ = true;
      return;
    }
    if (current_.size() > best_.size()) {
      best_ = current_;
      if (opt_.target_size > 0 &&
          static_cast<int>(best_.size()) >= opt_.target_size) {
        stopped_ = true;
        return;
      }
    }
    // Soft bound: every class can contribute at most min(|left|, |right|).
    size_t bound = current_.size();
    for (const LabelClass& cls : classes) {
      bound += std::min(cls.left.size(), cls.right.size());
    }
    if (bound <= best_.size()) return;

    // min_max branching: the class with the smallest larger side.
    int pick = -1;
    size_t pick_metric = 0;
    for (size_t i = 0; i < classes.size(); ++i) {
      const size_t metric =
          std::max(classes[i].left.size(), classes[i].right.size());
      if (pick < 0 || metric < pick_metric) {
        pick = static_cast<int>(i);
        pick_metric = metric;
      }
    }
    if (pick < 0) return;
    const LabelClass& cls = classes[static_cast<size_t>(pick)];
    // Branch vertex: highest degree in `a` (most constraining), id tie.
    NodeId v = cls.left[0];
    for (NodeId u : cls.left) {
      if (a_.degree(u) > a_.degree(v)) v = u;
    }

    for (NodeId w : cls.right) {
      current_.emplace_back(v, w);
      // Split every class by adjacency (presence + edge type) to (v, w).
      std::vector<LabelClass> next;
      for (size_t i = 0; i < classes.size(); ++i) {
        const LabelClass& c = classes[static_cast<size_t>(i)];
        std::map<int, LabelClass> split;
        for (NodeId u : c.left) {
          if (u == v) continue;
          split[EdgeKey(a_, v, u)].left.push_back(u);
        }
        for (NodeId x : c.right) {
          if (x == w) continue;
          split[EdgeKey(b_, w, x)].right.push_back(x);
        }
        for (auto& [key, sub] : split) {
          (void)key;
          if (!sub.left.empty() && !sub.right.empty()) {
            next.push_back(std::move(sub));
          }
        }
      }
      Search(next);
      current_.pop_back();
      if (stopped_ || exhausted_) return;
    }

    // Branch with v unmatched: drop it from its class.
    std::vector<LabelClass> without = classes;
    LabelClass& mine = without[static_cast<size_t>(pick)];
    mine.left.erase(std::find(mine.left.begin(), mine.left.end(), v));
    if (!mine.left.empty()) {
      Search(without);
    } else {
      without.erase(without.begin() + pick);
      Search(without);
    }
  }

  const Graph& a_;
  const Graph& b_;
  McsOptions opt_;
  int64_t steps_ = 0;
  bool exhausted_ = false;
  bool stopped_ = false;
  std::vector<std::pair<NodeId, NodeId>> current_, best_;
};

}  // namespace

McsResult MaxCommonSubgraph(const Graph& a, const Graph& b,
                            const McsOptions& options) {
  McsSearcher searcher(a, b, options);
  return searcher.Run();
}

}  // namespace gvex
