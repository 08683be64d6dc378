#include "pattern/isomorphism.h"

#include <algorithm>

namespace gvex {

namespace {

// Backtracking matcher state. Pattern nodes are matched in a connectivity-
// aware static order (each next node is adjacent to an already-ordered node
// when possible) to keep the frontier connected.
class Matcher {
 public:
  Matcher(const Graph& pattern, const Graph& target,
          const MatchOptions& options)
      : p_(pattern), g_(target), opt_(options) {
    BuildOrder();
    mapping_.assign(static_cast<size_t>(p_.num_nodes()), -1);
    used_.assign(static_cast<size_t>(g_.num_nodes()), false);
  }

  std::vector<Match> Run(bool stop_at_first) {
    stop_at_first_ = stop_at_first;
    if (p_.num_nodes() <= g_.num_nodes()) Backtrack(0);
    return std::move(results_);
  }

 private:
  void BuildOrder() {
    const int np = p_.num_nodes();
    order_.clear();
    std::vector<bool> placed(static_cast<size_t>(np), false);
    // Start from the highest-degree node (most constrained first).
    int start = 0;
    for (int v = 1; v < np; ++v) {
      if (p_.degree(v) > p_.degree(start)) start = v;
    }
    order_.push_back(start);
    placed[static_cast<size_t>(start)] = true;
    while (static_cast<int>(order_.size()) < np) {
      int best = -1;
      int best_conn = -1;
      for (int v = 0; v < np; ++v) {
        if (placed[static_cast<size_t>(v)]) continue;
        int conn = 0;
        for (const Neighbor& nb : p_.neighbors(v)) {
          if (placed[static_cast<size_t>(nb.node)]) ++conn;
        }
        if (conn > best_conn ||
            (conn == best_conn && best != -1 &&
             p_.degree(v) > p_.degree(best))) {
          best = v;
          best_conn = conn;
        }
      }
      order_.push_back(best);
      placed[static_cast<size_t>(best)] = true;
    }
  }

  bool Feasible(int pv, NodeId gv, int depth) {
    if (p_.node_type(pv) != g_.node_type(gv)) return false;
    if (p_.degree(pv) > g_.degree(gv)) return false;
    // Check consistency against already-mapped pattern nodes.
    for (int i = 0; i < depth; ++i) {
      const int pu = order_[static_cast<size_t>(i)];
      const NodeId gu = mapping_[static_cast<size_t>(pu)];
      const bool p_edge = p_.HasEdge(pu, pv) || p_.HasEdge(pv, pu);
      const bool g_edge = g_.HasEdge(gu, gv) || g_.HasEdge(gv, gu);
      if (p_edge) {
        if (!g_edge) return false;
        // Edge types must agree (check both orientations for undirected).
        int pt = p_.EdgeType(pu, pv);
        if (pt < 0) pt = p_.EdgeType(pv, pu);
        int gt = g_.EdgeType(gu, gv);
        if (gt < 0) gt = g_.EdgeType(gv, gu);
        if (pt != gt) return false;
      } else if (opt_.semantics == MatchSemantics::kInduced && g_edge) {
        return false;
      }
    }
    return true;
  }

  // Returns false when the search should be aborted (budget / enough).
  bool Backtrack(int depth) {
    if (opt_.max_steps > 0 && ++steps_ > opt_.max_steps) return false;
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
    // Candidate targets: neighbors of an already-mapped neighbor when one
    // exists (connectivity pruning), else all nodes.
    int anchor = -1;
    for (int i = 0; i < depth; ++i) {
      const int pu = order_[static_cast<size_t>(i)];
      if (p_.HasEdge(pu, pv) || p_.HasEdge(pv, pu)) {
        anchor = pu;
        break;
      }
    }
    if (anchor >= 0) {
      const NodeId ga = mapping_[static_cast<size_t>(anchor)];
      std::vector<NodeId> cands;
      for (const Neighbor& nb : g_.neighbors(ga)) cands.push_back(nb.node);
      if (g_.directed()) {
        // Pure in-neighbors too (Feasible checks the orientation). A
        // neighbor joined in both orientations is already listed, and
        // listing it twice would emit each of its matches twice.
        for (NodeId v = 0; v < g_.num_nodes(); ++v) {
          if (g_.HasEdge(v, ga) && !g_.HasEdge(ga, v)) cands.push_back(v);
        }
      }
      for (NodeId gv : cands) {
        if (used_[static_cast<size_t>(gv)]) continue;
        if (!Feasible(pv, gv, depth)) continue;
        mapping_[static_cast<size_t>(pv)] = gv;
        used_[static_cast<size_t>(gv)] = true;
        bool keep = Backtrack(depth + 1);
        used_[static_cast<size_t>(gv)] = false;
        mapping_[static_cast<size_t>(pv)] = -1;
        if (!keep) return false;
      }
    } else {
      for (NodeId gv = 0; gv < g_.num_nodes(); ++gv) {
        if (used_[static_cast<size_t>(gv)]) continue;
        if (!Feasible(pv, gv, depth)) continue;
        mapping_[static_cast<size_t>(pv)] = gv;
        used_[static_cast<size_t>(gv)] = true;
        bool keep = Backtrack(depth + 1);
        used_[static_cast<size_t>(gv)] = false;
        mapping_[static_cast<size_t>(pv)] = -1;
        if (!keep) return false;
      }
    }
    return true;
  }

  const Graph& p_;
  const Graph& g_;
  MatchOptions opt_;
  std::vector<int> order_;
  Match mapping_;
  std::vector<bool> used_;
  std::vector<Match> results_;
  int64_t steps_ = 0;
  bool stop_at_first_ = false;
};

}  // namespace

std::vector<Match> FindMatches(const Graph& pattern, const Graph& target,
                               const MatchOptions& options) {
  if (pattern.num_nodes() == 0) return {};
  Matcher m(pattern, target, options);
  return m.Run(/*stop_at_first=*/false);
}

bool ContainsPattern(const Graph& target, const Graph& pattern,
                     const MatchOptions& options) {
  if (pattern.num_nodes() == 0) return true;
  Matcher m(pattern, target, options);
  return !m.Run(/*stop_at_first=*/true).empty();
}

bool GraphsIsomorphic(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return false;
  }
  MatchOptions opt;
  opt.semantics = MatchSemantics::kInduced;
  opt.max_matches = 1;
  return ContainsPattern(b, a, opt);
}

}  // namespace gvex
