#include "pattern/matcher.h"

#include <algorithm>
#include <map>

#include "util/bitops.h"

namespace gvex {

namespace {

// (neighbor node type, edge type) -> count. Small graphs, few distinct
// keys: an ordered map keeps the comparison loop trivial.
using Signature = std::map<std::pair<int, int>, int>;

// Distinct incident neighbors per node — BOTH orientations for directed
// graphs. The blind matcher (the semantics we must reproduce exactly)
// accepts a target edge of either orientation for a directed pattern edge,
// so every structural filter here must look at the symmetric closure or it
// over-prunes candidates the blind matcher accepts.
std::vector<std::vector<NodeId>> IncidentNeighbors(const Graph& g) {
  std::vector<std::vector<NodeId>> nbrs(
      static_cast<size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const Neighbor& nb : g.neighbors(v)) {
      nbrs[static_cast<size_t>(v)].push_back(nb.node);
      if (g.directed()) nbrs[static_cast<size_t>(nb.node)].push_back(v);
    }
  }
  if (g.directed()) {
    // Dedupe pairs connected in both orientations.
    for (auto& list : nbrs) {
      std::sort(list.begin(), list.end());
      list.erase(std::unique(list.begin(), list.end()), list.end());
    }
  }
  return nbrs;
}

// Undirected graphs key on (neighbor type, edge type). Directed graphs key
// on neighbor type only: the blind matcher resolves a directed pair's
// effective edge type orientation- (and placement-order-) dependently, so
// edge type cannot soundly constrain a directed signature.
Signature NeighborSignature(const Graph& g, NodeId v,
                            const std::vector<std::vector<NodeId>>& nbrs) {
  Signature sig;
  if (g.directed()) {
    for (NodeId u : nbrs[static_cast<size_t>(v)]) {
      ++sig[{g.node_type(u), 0}];
    }
  } else {
    for (const Neighbor& nb : g.neighbors(v)) {
      ++sig[{g.node_type(nb.node), nb.edge_type}];
    }
  }
  return sig;
}

// Every key of `need` present in `have` with at least the needed count.
bool SignatureCovers(const Signature& have, const Signature& need) {
  for (const auto& [key, count] : need) {
    auto it = have.find(key);
    if (it == have.end() || it->second < count) return false;
  }
  return true;
}

// Placement ranks of the blind matcher (isomorphism.cpp BuildOrder:
// highest-degree start, then most placed out-neighbors, degree tie-break).
// The blind accept predicate resolves a pair's effective edge type from the
// EARLIER-placed node's perspective, which matters when a pair is connected
// in both orientations with different types — so to reproduce its match set
// exactly while searching in a different order, Feasible below assigns pair
// roles by these ranks, not by our own placement order.
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
    cand_.assign(static_cast<size_t>(np),
                 std::vector<uint64_t>(words_, 0));
    if (np > nt) return false;

    p_nbrs_ = IncidentNeighbors(p_);
    const std::vector<std::vector<NodeId>> g_nbrs = IncidentNeighbors(g_);
    std::vector<Signature> target_sig;
    target_sig.reserve(static_cast<size_t>(nt));
    for (NodeId v = 0; v < nt; ++v) {
      target_sig.push_back(NeighborSignature(g_, v, g_nbrs));
    }
    bool any_empty = false;
    for (int pv = 0; pv < np; ++pv) {
      const Signature psig = NeighborSignature(p_, pv, p_nbrs_);
      bool empty = true;
      for (NodeId gv = 0; gv < nt; ++gv) {
        if (p_.node_type(pv) != g_.node_type(gv)) continue;
        // The blind matcher enforces out-degree(pv) <= out-degree(gv) at
        // every placement; reproduce it so no extra matches appear.
        if (p_.degree(pv) > g_.degree(gv)) continue;
        // Distinct pattern neighbors also map injectively to distinct
        // target neighbors (incident count — both orientations, see
        // IncidentNeighbors).
        if (p_nbrs_[static_cast<size_t>(pv)].size() >
            g_nbrs[static_cast<size_t>(gv)].size()) {
          continue;
        }
        if (!SignatureCovers(target_sig[static_cast<size_t>(gv)], psig)) {
          continue;
        }
        bitops::SetBit(cand_[static_cast<size_t>(pv)].data(),
                       static_cast<size_t>(gv));
        empty = false;
      }
      any_empty = any_empty || empty;
    }
    if (any_empty) return false;

    // Target adjacency as bitsets — symmetric closure, since a directed
    // pattern edge may map onto a target edge of either orientation.
    adj_.assign(static_cast<size_t>(nt), std::vector<uint64_t>(words_, 0));
    for (NodeId v = 0; v < nt; ++v) {
      for (const Neighbor& nb : g_.neighbors(v)) {
        bitops::SetBit(adj_[static_cast<size_t>(v)].data(),
                       static_cast<size_t>(nb.node));
        bitops::SetBit(adj_[static_cast<size_t>(nb.node)].data(),
                       static_cast<size_t>(v));
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
        std::vector<uint64_t>& cands = cand_[static_cast<size_t>(pv)];
        bool empty = true;
        for (size_t wi = 0; wi < words_; ++wi) {
          uint64_t w = cands[wi];
          while (w != 0) {
            const size_t gv =
                (wi << 6) +
                static_cast<size_t>(__builtin_ctzll(w));
            w &= w - 1;
            bool ok = true;
            for (NodeId pu : p_nbrs_[static_cast<size_t>(pv)]) {
              if (!bitops::Intersects(cand_[static_cast<size_t>(pu)],
                                      adj_[gv])) {
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
      for (const auto& bits : cand_) {
        stats_->candidates += bitops::Popcount(bits);
      }
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
    if (p_.num_nodes() <= kDenseLookupMaxNodes) {
      BuildEdgeTables(p_, &p_has_, &p_et_);
    }
    if (g_.num_nodes() <= kDenseLookupMaxNodes) {
      BuildEdgeTables(g_, &g_has_, &g_et_);
    }
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
  const std::vector<std::vector<uint64_t>>& candidate_bits() const {
    return cand_;
  }

 private:
  // Past this many nodes the n*n tables stop being worth their footprint;
  // the helpers below fall back to the (identical) adjacency-list scans.
  static constexpr int kDenseLookupMaxNodes = 512;

  static void BuildEdgeTables(const Graph& g, std::vector<uint8_t>* has,
                              std::vector<int32_t>* et) {
    const size_t n = static_cast<size_t>(g.num_nodes());
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

  size_t CandCount(int pv) const {
    return bitops::Popcount(cand_[static_cast<size_t>(pv)]);
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
    // consistency against mapped neighbors remains. Pair roles follow the
    // BLIND matcher's placement ranks (see BlindRank) so the effective
    // edge type of a both-orientation pair resolves identically.
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
      const bool g_edge = bitops::TestBit(adj_[static_cast<size_t>(ga)].data(),
                                          static_cast<size_t>(gb));
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
    if (!bitops::TestBit(cand_[static_cast<size_t>(pv)].data(),
                         static_cast<size_t>(gv))) {
      return true;
    }
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
      const std::vector<uint64_t>& cands = cand_[static_cast<size_t>(pv)];
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
  std::vector<std::vector<uint64_t>> cand_;  // per pattern node
  std::vector<std::vector<uint64_t>> adj_;   // per target node
  std::vector<std::vector<NodeId>> p_nbrs_;  // incident, both orientations
  std::vector<uint8_t> p_has_;   // dense n*n edge existence (see PHas)
  std::vector<int32_t> p_et_;    // dense n*n edge types, -1 = none
  std::vector<uint8_t> g_has_;
  std::vector<int32_t> g_et_;
  std::vector<int> order_;
  std::vector<int> blind_rank_;
  Match mapping_;
  std::vector<bool> used_;
  std::vector<Match> results_;
  int64_t steps_ = 0;
  bool stop_at_first_ = false;
  bool budget_exhausted_ = false;
};

// Shared driver: filter, then search. `verdict_mode` controls whether an
// exhausted budget reports kUnknown (true) or degrades to "no match"
// (false, the ContainsPattern-compatible behavior).
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
  candidates->assign(static_cast<size_t>(pattern.num_nodes()), {});
  for (size_t pv = 0; pv < m.candidate_bits().size(); ++pv) {
    bitops::ForEachSetBit(m.candidate_bits()[pv], [&](size_t gv) {
      (*candidates)[pv].push_back(static_cast<NodeId>(gv));
    });
  }
  return feasible;
}

std::vector<Match> FilteredFindMatches(const Graph& pattern,
                                       const Graph& target,
                                       const MatchOptions& options,
                                       MatcherStats* stats) {
  if (pattern.num_nodes() == 0) return {};
  std::vector<Match> matches;
  (void)RunFiltered(pattern, target, options, /*stop_at_first=*/false,
                    stats, &matches);
  return matches;
}

bool FilteredContainsPattern(const Graph& target, const Graph& pattern,
                             const MatchOptions& options,
                             MatcherStats* stats) {
  if (pattern.num_nodes() == 0) return true;
  return RunFiltered(pattern, target, options, /*stop_at_first=*/true,
                     stats, nullptr) == MatchVerdict::kMatch;
}

MatchVerdict FilteredContainsPatternBudgeted(const Graph& target,
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
