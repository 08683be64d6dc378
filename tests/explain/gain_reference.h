// Test-only oracle: the greedy score state as it ran before GainOf's
// epoch-stamped dedup, finding each diversity entry already counted by a
// linear scan of the entries counted so far. Kept verbatim so
// GainOracleTest can pin the production ScoreState (explain/scoring.cpp) to
// it: the same gain bits for every node after every greedy prefix.

#ifndef GVEX_TESTS_EXPLAIN_GAIN_REFERENCE_H_
#define GVEX_TESTS_EXPLAIN_GAIN_REFERENCE_H_

#include <vector>

#include "explain/scoring.h"

namespace gvex {
namespace testing {
namespace gain_reference {

class ReferenceScoreState {
 public:
  explicit ReferenceScoreState(const GraphScoringContext* ctx) : ctx_(ctx) {
    influenced_.assign(static_cast<size_t>(ctx->num_nodes()), false);
    diversity_refcnt_.assign(static_cast<size_t>(ctx->num_nodes()), 0);
  }

  double Score() const {
    if (ctx_->num_nodes() == 0) return 0.0;
    return (influence_count_ + ctx_->gamma() * diversity_count_) /
           static_cast<double>(ctx_->num_nodes());
  }

  int InfluenceCount() const { return influence_count_; }
  int DiversityCount() const { return diversity_count_; }

  double GainOf(NodeId u) const {
    if (ctx_->num_nodes() == 0) return 0.0;
    int new_influenced = 0;
    double new_diverse = 0;
    // Count diversity additions without double counting across multiple
    // newly influenced nodes: use a small local set keyed by refcnt==0.
    std::vector<NodeId> touched;
    for (NodeId v : ctx_->InfluencedBy(u)) {
      if (influenced_[static_cast<size_t>(v)]) continue;
      ++new_influenced;
      for (NodeId w : ctx_->Neighborhood(v)) {
        if (diversity_refcnt_[static_cast<size_t>(w)] == 0) {
          bool seen = false;
          for (NodeId t : touched) {
            if (t == w) {
              seen = true;
              break;
            }
          }
          if (!seen) {
            touched.push_back(w);
            new_diverse += 1.0;
          }
        }
      }
    }
    return (new_influenced + ctx_->gamma() * new_diverse) /
           static_cast<double>(ctx_->num_nodes());
  }

  void Add(NodeId u) {
    for (NodeId v : ctx_->InfluencedBy(u)) {
      if (influenced_[static_cast<size_t>(v)]) continue;
      influenced_[static_cast<size_t>(v)] = true;
      ++influence_count_;
      for (NodeId w : ctx_->Neighborhood(v)) {
        if (diversity_refcnt_[static_cast<size_t>(w)]++ == 0) {
          ++diversity_count_;
        }
      }
    }
  }

 private:
  const GraphScoringContext* ctx_;
  std::vector<bool> influenced_;       // v influenced by current V_s
  std::vector<int> diversity_refcnt_;  // times v appears in the union
  int influence_count_ = 0;
  int diversity_count_ = 0;
};

}  // namespace gain_reference

using gain_reference::ReferenceScoreState;

}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_EXPLAIN_GAIN_REFERENCE_H_
