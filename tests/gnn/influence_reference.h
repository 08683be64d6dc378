// Test-only oracle for the exact-Jacobian influence kernel: the dense,
// unmasked per-source propagation that NodeInfluence's kExactJacobian mode
// used before it learned to skip ReLU-dead rows. It computes every output
// row of every block and zeroes the dead ones afterwards, so its I1 is the
// specification the production kernel must match bit for bit.

#ifndef GVEX_TESTS_GNN_INFLUENCE_REFERENCE_H_
#define GVEX_TESTS_GNN_INFLUENCE_REFERENCE_H_

#include <vector>

#include "gnn/gcn_model.h"
#include "graph/graph.h"
#include "la/matrix.h"

namespace gvex {
namespace testing {

// Exact mode: propagate Jacobian blocks for every source node u.
// J_{k}(v,u) has shape d_k x d_0. We iterate sources; per source we keep a
// vector of n blocks and apply one layer at a time. Requires access to the
// GCN internals; other architectures fall back to the random-walk mode.
inline Matrix ReferenceExactI1(const GcnModel& model, const Graph& g) {
  const int n = g.num_nodes();
  Matrix i1(n, n);
  if (n == 0) return i1;

  GcnModel::Trace trace = model.Forward(g);
  const SparseMatrix& s = trace.s;
  const int d0 = trace.caches.front().input.cols();

  for (NodeId u = 0; u < n; ++u) {
    // J_0(w,u) = δ_{wu} I (d0 x d0). Represent implicitly for layer 1 and
    // materialize from layer 1 onward.
    std::vector<Matrix> jac(static_cast<size_t>(n));
    for (size_t k = 0; k < model.gcn_layers().size(); ++k) {
      const GcnLayer& layer = model.gcn_layers()[k];
      const Matrix wt = layer.weight().Transposed();  // d_k x d_{k-1}
      const Matrix& mask = trace.caches[k].relu_mask;
      std::vector<Matrix> next(static_cast<size_t>(n));
      for (NodeId v = 0; v < n; ++v) {
        Matrix acc(wt.rows(), d0);
        bool any = false;
        for (int idx = s.row_begin(v); idx < s.row_end(v); ++idx) {
          const NodeId w = s.col_at(idx);
          const float sw = s.value_at(idx);
          if (k == 0) {
            // J_0(w,u) = δ_{wu} I: contribution sw * W^T columns.
            if (w != u) continue;
            for (int r = 0; r < wt.rows(); ++r) {
              for (int c = 0; c < d0; ++c) {
                acc.at(r, c) += sw * wt.at(r, c);
              }
            }
            any = true;
          } else {
            const Matrix& jw = jac[static_cast<size_t>(w)];
            if (jw.empty()) continue;
            // acc += sw * W^T * J(w)
            for (int r = 0; r < wt.rows(); ++r) {
              float* arow = acc.row(r);
              for (int m = 0; m < wt.cols(); ++m) {
                const float wv = sw * wt.at(r, m);
                if (wv == 0.0f) continue;
                const float* jrow = jw.row(m);
                for (int c = 0; c < d0; ++c) arow[c] += wv * jrow[c];
              }
            }
            any = true;
          }
        }
        if (any) {
          // Apply the ReLU mask of node v at layer k.
          for (int r = 0; r < acc.rows(); ++r) {
            const float mv = mask.at(v, r);
            if (mv == 0.0f) {
              float* arow = acc.row(r);
              for (int c = 0; c < d0; ++c) arow[c] = 0.0f;
            }
          }
          next[static_cast<size_t>(v)] = std::move(acc);
        }
      }
      jac = std::move(next);
    }
    for (NodeId v = 0; v < n; ++v) {
      const Matrix& jv = jac[static_cast<size_t>(v)];
      i1.at(v, u) = jv.empty() ? 0.0f : static_cast<float>(jv.L1Norm());
    }
  }
  return i1;
}

/// Eq. 4 over a reference I1, in NodeInfluence::Compute's order:
/// I2(u,v) = I1(v,u) / Σ_w I1(v,w), u-major.
inline Matrix ReferenceI2(const Matrix& i1) {
  const int n = i1.rows();
  Matrix i2(n, n);
  for (int v = 0; v < n; ++v) {
    double total = 0.0;
    for (int w = 0; w < n; ++w) total += i1.at(v, w);
    if (total <= 0.0) continue;
    for (int u = 0; u < n; ++u) {
      i2.at(u, v) = static_cast<float>(i1.at(v, u) / total);
    }
  }
  return i2;
}

}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_GNN_INFLUENCE_REFERENCE_H_
