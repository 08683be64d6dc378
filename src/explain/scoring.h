// The explainability objective of §3.1 (Eqs. 2-6) and the incremental state
// the greedy algorithms maintain over it.
//
//   f(G^l_V) = Σ_i ( I(V_si) + γ D(V_si) ) / |V_i|
//   I(V_s)   = |{ v : ∃u ∈ V_s, I2(u,v) ≥ θ }|          (influence, Eq. 5)
//   D(V_s)   = | ∪_{v influenced by V_s} r(v,d) |        (diversity, Eq. 6)
//   r(v,d)   = { v' : d(X^k_v, X^k_v') ≤ r }             (embedding ball)
//
// Lemma 3.3 shows I and D are monotone submodular in V_s; ScoreState keeps
// them incrementally for the greedy algorithms. GainOf(u) and Add(u) each
// cost O(|InfluencedBy(u)| + Σ |r(v,d)|), the sum over the nodes v that u
// newly influences: a gain visits each ball entry once, deduplicated by an
// epoch-stamped mark array rather than a scan of the entries counted so far.

#ifndef GVEX_EXPLAIN_SCORING_H_
#define GVEX_EXPLAIN_SCORING_H_

#include <cstdint>
#include <vector>

#include "explain/config.h"
#include "gnn/gcn_model.h"
#include "gnn/influence.h"
#include "graph/graph.h"

namespace gvex {

/// Immutable per-graph scoring context: pairwise influence (Eq. 3-4),
/// θ-thresholded influence lists, and r-radius embedding neighborhoods.
/// Built once per (model, graph) — this is the EVerify precomputation of
/// Algorithm 1 line 2.
class GraphScoringContext {
 public:
  GraphScoringContext(const GnnClassifier& model, const Graph& g,
                      const Configuration& config);

  int num_nodes() const { return num_nodes_; }

  /// Nodes v with I2(u, v) >= θ — the targets node u influences.
  const std::vector<NodeId>& InfluencedBy(NodeId u) const {
    return influenced_by_[static_cast<size_t>(u)];
  }

  /// r(v, d): nodes within embedding distance r of v (includes v itself).
  const std::vector<NodeId>& Neighborhood(NodeId v) const {
    return neighborhood_[static_cast<size_t>(v)];
  }

  const NodeInfluence& influence() const { return influence_; }
  const Matrix& embeddings() const { return embeddings_; }
  float gamma() const { return gamma_; }

 private:
  int num_nodes_;
  float gamma_;
  NodeInfluence influence_;
  Matrix embeddings_;
  std::vector<std::vector<NodeId>> influenced_by_;
  std::vector<std::vector<NodeId>> neighborhood_;
};

/// Mutable greedy state over one context: tracks the influenced set and the
/// diversity union with reference counts so marginal gains are exact
/// integer counts. Not thread-safe, GainOf included (it writes scratch):
/// give each thread its own state.
class ScoreState {
 public:
  explicit ScoreState(const GraphScoringContext* ctx);

  /// Current (I + γD) / |V|.
  double Score() const;

  /// Raw I(V_s) and D(V_s) components.
  int InfluenceCount() const { return influence_count_; }
  int DiversityCount() const { return diversity_count_; }

  /// Marginal gain of adding `u` (V_s is unchanged).
  double GainOf(NodeId u) const;

  /// Adds `u` to V_s.
  void Add(NodeId u);

  /// Static evaluation of an arbitrary node set (used by the streaming
  /// swap analysis, which needs scores of V_s \ {v}).
  static double ScoreOfSet(const GraphScoringContext& ctx,
                           const std::vector<NodeId>& vs);

 private:
  const GraphScoringContext* ctx_;
  std::vector<bool> influenced_;       // v influenced by current V_s
  std::vector<int> diversity_refcnt_;  // times v appears in the union
  // GainOf's scratch: counted_[w] == epoch_ iff the current call has
  // counted w. A ScoreState serves one thread.
  mutable std::vector<uint32_t> counted_;
  mutable uint32_t epoch_ = 0;
  int influence_count_ = 0;
  int diversity_count_ = 0;
};

}  // namespace gvex

#endif  // GVEX_EXPLAIN_SCORING_H_
