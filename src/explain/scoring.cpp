#include "explain/scoring.h"

#include <algorithm>

#include "la/matrix_ops.h"

namespace gvex {

GraphScoringContext::GraphScoringContext(const GnnClassifier& model, const Graph& g,
                                         const Configuration& config)
    : num_nodes_(g.num_nodes()), gamma_(config.gamma) {
  influence_ = NodeInfluence::Compute(model, g, config.influence_mode,
                                      config.auto_exact_node_limit);
  embeddings_ = model.NodeEmbeddings(g);
  influenced_by_.resize(static_cast<size_t>(num_nodes_));
  neighborhood_.resize(static_cast<size_t>(num_nodes_));
  for (NodeId u = 0; u < num_nodes_; ++u) {
    for (NodeId v = 0; v < num_nodes_; ++v) {
      if (influence_.I2(u, v) >= config.theta) {
        influenced_by_[static_cast<size_t>(u)].push_back(v);
      }
    }
  }
  for (NodeId v = 0; v < num_nodes_; ++v) {
    for (NodeId w = 0; w < num_nodes_; ++w) {
      if (NormalizedRowDistance(embeddings_, v, w) <= config.r) {
        neighborhood_[static_cast<size_t>(v)].push_back(w);
      }
    }
  }
}

ScoreState::ScoreState(const GraphScoringContext* ctx) : ctx_(ctx) {
  influenced_.assign(static_cast<size_t>(ctx->num_nodes()), false);
  diversity_refcnt_.assign(static_cast<size_t>(ctx->num_nodes()), 0);
  counted_.assign(static_cast<size_t>(ctx->num_nodes()), 0);
}

double ScoreState::Score() const {
  if (ctx_->num_nodes() == 0) return 0.0;
  return (influence_count_ + ctx_->gamma() * diversity_count_) /
         static_cast<double>(ctx_->num_nodes());
}

double ScoreState::GainOf(NodeId u) const {
  if (ctx_->num_nodes() == 0) return 0.0;
  // A w outside the union counts once however many newly influenced nodes
  // reach it: counted_[w] == epoch_ marks it as counted by this call.
  if (++epoch_ == 0) {
    std::fill(counted_.begin(), counted_.end(), 0);
    epoch_ = 1;
  }
  int new_influenced = 0;
  double new_diverse = 0;
  for (NodeId v : ctx_->InfluencedBy(u)) {
    if (influenced_[static_cast<size_t>(v)]) continue;
    ++new_influenced;
    for (NodeId w : ctx_->Neighborhood(v)) {
      const size_t wi = static_cast<size_t>(w);
      if (diversity_refcnt_[wi] == 0 && counted_[wi] != epoch_) {
        counted_[wi] = epoch_;
        new_diverse += 1.0;
      }
    }
  }
  return (new_influenced + ctx_->gamma() * new_diverse) /
         static_cast<double>(ctx_->num_nodes());
}

void ScoreState::Add(NodeId u) {
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

double ScoreState::ScoreOfSet(const GraphScoringContext& ctx,
                              const std::vector<NodeId>& vs) {
  ScoreState state(&ctx);
  for (NodeId u : vs) state.Add(u);
  return state.Score();
}

}  // namespace gvex
