#include "gnn/influence.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "la/matrix_ops.h"

namespace gvex {

namespace {

size_t Idx(NodeId v) { return static_cast<size_t>(v); }

// The rows of each node's layer output that its ReLU mask keeps, ascending:
// node v's are rows[first[v]] .. rows[first[v + 1] - 1].
struct LiveRows {
  std::vector<int> rows;
  std::vector<int> first;
  const int* begin(NodeId v) const { return rows.data() + first[Idx(v)]; }
  const int* end(NodeId v) const { return rows.data() + first[Idx(v) + 1]; }
};

LiveRows LiveRowsOf(const Matrix& relu_mask) {
  LiveRows live;
  live.first.reserve(static_cast<size_t>(relu_mask.rows()) + 1);
  live.first.push_back(0);
  for (int v = 0; v < relu_mask.rows(); ++v) {
    for (int r = 0; r < relu_mask.cols(); ++r) {
      if (relu_mask.at(v, r) != 0.0f) live.rows.push_back(r);
    }
    live.first.push_back(static_cast<int>(live.rows.size()));
  }
  return live;
}

// Exact mode: propagate the Jacobian blocks J_k(v,u) ∈ R^{d_k x d_0} of
// every source node u one layer at a time,
//
//     J_k(v,u) = diag(relu'_k(v)) Σ_w S_vw W_k^T J_{k-1}(w,u),
//
// with J_0(w,u) = δ_wu I. Requires access to the GCN internals; other
// architectures fall back to the random-walk mode.
//
// Only work that can change the result is done: a row r of J_k(v,·) whose
// ReLU mask is dead is never computed (it is zero), and a dead row m of
// J_{k-1}(w,·) is never read (its terms are ±0). Every computed entry adds
// its surviving terms in the dense order — w in CSR order, then m
// ascending — and an accumulator that starts at +0 is never -0, so adding
// the skipped ±0 terms could not change it. I1 is therefore bit-identical
// to the dense propagation (for finite weights); tests/gnn pins this
// against a verbatim copy of it.
Matrix ExactI1(const GcnModel& model, const Graph& g) {
  const int n = g.num_nodes();
  Matrix i1(n, n);
  if (n == 0) return i1;

  GcnModel::Trace trace = model.Forward(g);
  const SparseMatrix& s = trace.s;
  const int d0 = trace.caches.front().input.cols();
  const size_t num_layers = model.gcn_layers().size();

  // Per layer, once per call: W_k^T (d_k x d_{k-1}) and the live rows.
  std::vector<Matrix> wt;
  std::vector<LiveRows> live;
  int d_max = 0;
  for (size_t k = 0; k < num_layers; ++k) {
    wt.push_back(model.gcn_layers()[k].weight().Transposed());
    live.push_back(LiveRowsOf(trace.caches[k].relu_mask));
    d_max = std::max(d_max, wt.back().rows());
  }

  // Ping-pong blocks, node v's row r at (v * d_max + r) * d0, and whether
  // J(v,u) exists at all. Only live rows are written or read, so neither
  // buffer is ever cleared.
  const size_t block = static_cast<size_t>(d_max) * static_cast<size_t>(d0);
  std::vector<float> prev(static_cast<size_t>(n) * block);
  std::vector<float> next(prev.size());
  std::vector<char> prev_present(static_cast<size_t>(n));
  std::vector<char> next_present(static_cast<size_t>(n));
  auto row_of = [block, d0](std::vector<float>& buf, NodeId v, int r) {
    return buf.data() + static_cast<size_t>(v) * block +
           static_cast<size_t>(r) * static_cast<size_t>(d0);
  };

  for (NodeId u = 0; u < n; ++u) {
    for (size_t k = 0; k < num_layers; ++k) {
      for (NodeId v = 0; v < n; ++v) {
        // J_k(v,u) exists iff some neighbour's J_{k-1}(w,u) does.
        bool any = false;
        for (int idx = s.row_begin(v); idx < s.row_end(v) && !any; ++idx) {
          const NodeId w = s.col_at(idx);
          any = k == 0 ? w == u : prev_present[Idx(w)] != 0;
        }
        next_present[Idx(v)] = any ? 1 : 0;
        if (!any) continue;
        for (const int* r = live[k].begin(v); r != live[k].end(v); ++r) {
          const float* wrow = wt[k].row(*r);
          float* acc = row_of(next, v, *r);
          std::fill(acc, acc + d0, 0.0f);
          for (int idx = s.row_begin(v); idx < s.row_end(v); ++idx) {
            const NodeId w = s.col_at(idx);
            const float sw = s.value_at(idx);
            if (k == 0) {
              // J_0(w,u) = δ_wu I: the term is sw times row r of W^T.
              if (w != u) continue;
              for (int c = 0; c < d0; ++c) acc[c] += sw * wrow[c];
              continue;
            }
            if (prev_present[Idx(w)] == 0) continue;
            for (const int* m = live[k - 1].begin(w); m != live[k - 1].end(w);
                 ++m) {
              const float wv = sw * wrow[*m];
              if (wv == 0.0f) continue;
              const float* jrow = row_of(prev, w, *m);
              for (int c = 0; c < d0; ++c) acc[c] += wv * jrow[c];
            }
          }
        }
      }
      prev.swap(next);
      prev_present.swap(next_present);
    }
    // I1(v,u) = ||J_K(v,u)||_1 over the live rows: a dead row would add +0.
    const LiveRows& last = live.back();
    for (NodeId v = 0; v < n; ++v) {
      if (prev_present[Idx(v)] == 0) continue;
      double l1 = 0.0;
      for (const int* r = last.begin(v); r != last.end(v); ++r) {
        const float* jrow = row_of(prev, v, *r);
        for (int c = 0; c < d0; ++c) {
          l1 += std::fabs(static_cast<double>(jrow[c]));
        }
      }
      i1.at(v, u) = static_cast<float>(l1);
    }
  }
  return i1;
}

// Random-walk mode: I1(v,u) = [S^k]_{vu}.
Matrix RandomWalkI1(const GnnClassifier& model, const Graph& g) {
  const int n = g.num_nodes();
  Matrix i1(n, n);
  if (n == 0) return i1;
  SparseMatrix s = g.NormalizedAdjacency();
  Matrix power = Matrix::Identity(n);
  for (int k = 0; k < model.num_layers(); ++k) {
    power = s.Multiply(power);
  }
  // power(v, u) = [S^k]_{vu}.
  return power;
}

}  // namespace

NodeInfluence NodeInfluence::Compute(const GnnClassifier& model, const Graph& g,
                                     InfluenceMode mode,
                                     int auto_exact_node_limit) {
  NodeInfluence out;
  InfluenceMode resolved = mode;
  if (mode == InfluenceMode::kAuto) {
    resolved = g.num_nodes() <= auto_exact_node_limit
                   ? InfluenceMode::kExactJacobian
                   : InfluenceMode::kRandomWalk;
  }
  // The exact Jacobian differentiates through GCN internals; for any other
  // architecture the model-agnostic random-walk surrogate is used (the
  // explainer stays black-box).
  const auto* gcn = dynamic_cast<const GcnModel*>(&model);
  if (resolved == InfluenceMode::kExactJacobian && gcn == nullptr) {
    resolved = InfluenceMode::kRandomWalk;
  }
  out.mode_used_ = resolved;
  out.i1_ = resolved == InfluenceMode::kExactJacobian
                ? ExactI1(*gcn, g)
                : RandomWalkI1(model, g);
  // Normalize per target v (Eq. 4): I2(u,v) = I1(v,u) / Σ_w I1(v,w).
  const int n = out.i1_.rows();
  out.i2_ = Matrix(n, n);
  for (int v = 0; v < n; ++v) {
    double total = 0.0;
    for (int w = 0; w < n; ++w) total += out.i1_.at(v, w);
    if (total <= 0.0) continue;
    for (int u = 0; u < n; ++u) {
      out.i2_.at(u, v) =
          static_cast<float>(out.i1_.at(v, u) / total);
    }
  }
  return out;
}

}  // namespace gvex
