// GcnModel's remainder predictor: P(· | G \ R) for many removal sets R of
// one graph, without building G \ R.
//
// Built once per graph: the pattern of the symmetrized operator Â = A_sym + I
// as CSR (columns ascending, the self loop in place, multiplicity 2 for a
// reciprocal directed pair) and the first layer's X·Θ₁ rows, which no
// removal changes. A pinned base set B keeps the forward state a query can
// reuse: the D^-1/2 factors, every layer's X·Θ rows, the last layer's ReLU
// rows and its probabilities.
//
// A query R differs from B by the toggled nodes T = R Δ B. Only the degrees
// of T and its neighbours change, so at layer ℓ (from 1) only the rows
// within ℓ+1 hops of T can change; they are recomputed into scratch rows and
// every other row is read from the base. Removed nodes are skipped as the
// rebuilt graph skips them, and G \ R keeps G's node order, so each
// recomputed row sums the same terms in the same order as
// SparseMatrix::Multiply over RemoveNodes(G, R) and each X·Θ row is MatMul's:
// the answer is bit-identical to PredictProba(RemoveNodes(G, R)).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>

#include "gnn/gcn_model.h"
#include "util/string_util.h"

namespace gvex {

namespace {

class GcnRemainderPredictor : public RemainderPredictor {
 public:
  GcnRemainderPredictor(const GcnModel& model, const Graph& g);

  Result<std::vector<float>> ProbaWithout(
      const std::vector<NodeId>& removed) override;
  void Pin(const std::vector<NodeId>& base) override;

 private:
  // Rows of layer l (0-based) that can differ from the base lie within
  // HLimit(l) hops of T, and so do the X·Θ rows layer l + 1 makes of them.
  // Degrees change within kDegLimit hops.
  static int HLimit(int l) { return l + 2; }
  static int XwLimit(int l) { return HLimit(l - 1); }
  static constexpr int kDegLimit = 1;

  // Fills removed_ / removed_list_ from `removed` (deduplicated).
  Status MarkQuery(const std::vector<NodeId>& removed);
  void ClearQuery();
  // Forward of the marked query into the scratch rows and probs_: all
  // nodes when there is no base yet, else only the rows T can reach.
  // Returns false when the query equals the base.
  bool Evaluate();
  // Makes the evaluated query the base.
  void Commit();

  bool Within(NodeId v, int limit) const {
    const int d = dist_[static_cast<size_t>(v)];
    return d >= 0 && d <= limit;
  }
  const float* XwRow(int l, NodeId v) const {
    if (l == 0) return xw0_.row(v);
    return Within(v, XwLimit(l)) ? ScratchRow(s_xw_[static_cast<size_t>(l)], v)
                                 : BaseRow(base_xw_[static_cast<size_t>(l)], v);
  }
  // A ReLU row of the last layer; earlier layers' rows live only as the
  // X·Θ rows the next layer makes of them.
  const float* LastRow(NodeId v) const {
    return Within(v, HLimit(layers_ - 1)) ? ScratchRow(s_h_, v)
                                          : BaseRow(base_h_, v);
  }
  float InvSqrt(NodeId v) const {
    if (!Within(v, kDegLimit)) return base_inv_[static_cast<size_t>(v)];
    return s_inv_[static_cast<size_t>(pos_[static_cast<size_t>(v)])];
  }
  const float* BaseRow(const std::vector<float>& buf, NodeId v) const {
    return buf.data() + static_cast<size_t>(v) * hidden_;
  }
  const float* ScratchRow(const std::vector<float>& buf, NodeId v) const {
    return buf.data() +
           static_cast<size_t>(pos_[static_cast<size_t>(v)]) * hidden_;
  }
  float* ScratchRow(std::vector<float>* buf, int p) {
    return buf->data() + static_cast<size_t>(p) * hidden_;
  }
  // Number of visited nodes within `limit` hops (a prefix of visit_).
  int Upto(int limit) const {
    return upto_[static_cast<size_t>(std::min(limit, max_hops_))];
  }

  const GcnModel& model_;
  const int n_;
  const int layers_;
  const size_t hidden_;
  const int max_hops_;

  // Â's pattern as CSR.
  std::vector<int> row_ptr_;
  std::vector<NodeId> col_;
  std::vector<uint8_t> mult_;
  Matrix xw0_;  // X·Θ₁ for every node of G

  bool has_base_ = false;
  std::vector<uint8_t> base_removed_;
  std::vector<NodeId> base_list_;
  // Rows are n x hidden, row v at v * hidden, like the scratch rows of a
  // query without a base (visit_ is then 0..n-1), which Commit swaps in.
  std::vector<float> base_inv_;
  std::vector<std::vector<float>> base_xw_;  // [l >= 1]: layer l's X·Θ
  std::vector<float> base_h_;                // the last layer's ReLU rows
  std::vector<float> base_probs_;

  // Per-query scratch. dist_ is -1 outside a query's reach; pos_[v] is v's
  // index in visit_, which lists the reached nodes by hop count, so the
  // nodes within k hops are visit_[0, upto_[k]).
  std::vector<uint8_t> removed_;
  std::vector<NodeId> removed_list_;
  std::vector<int> dist_;
  std::vector<int> pos_;
  std::vector<NodeId> visit_;
  std::vector<int> upto_;
  std::vector<float> s_inv_;
  std::vector<std::vector<float>> s_xw_;
  std::vector<float> s_h_;
  std::vector<float> row_;  // one ReLU row on its way to the next layer
  std::vector<float> probs_;
};

GcnRemainderPredictor::GcnRemainderPredictor(const GcnModel& model,
                                             const Graph& g)
    : model_(model),
      n_(g.num_nodes()),
      layers_(model.num_layers()),
      hidden_(static_cast<size_t>(model.config().hidden_dim)),
      max_hops_(HLimit(model.num_layers() - 1)) {
  // Â's rows: each stored edge adds u→v and v→u, so a reciprocal directed
  // pair lands twice on each side; the triplet constructor sums those.
  std::vector<int> start(static_cast<size_t>(n_) + 1, 0);
  for (const Edge& e : g.edges()) {
    ++start[static_cast<size_t>(e.u) + 1];
    ++start[static_cast<size_t>(e.v) + 1];
  }
  for (NodeId v = 0; v < n_; ++v) {
    start[static_cast<size_t>(v) + 1] += start[static_cast<size_t>(v)] + 1;
  }
  std::vector<NodeId> entries(static_cast<size_t>(start.back()));
  std::vector<int> fill(start.begin(), start.end() - 1);
  for (NodeId v = 0; v < n_; ++v) {
    entries[static_cast<size_t>(fill[static_cast<size_t>(v)]++)] = v;
  }
  for (const Edge& e : g.edges()) {
    entries[static_cast<size_t>(fill[static_cast<size_t>(e.u)]++)] = e.v;
    entries[static_cast<size_t>(fill[static_cast<size_t>(e.v)]++)] = e.u;
  }
  row_ptr_.assign(static_cast<size_t>(n_) + 1, 0);
  col_.reserve(entries.size());
  mult_.reserve(entries.size());
  for (NodeId v = 0; v < n_; ++v) {
    auto first = entries.begin() + start[static_cast<size_t>(v)];
    auto last = entries.begin() + start[static_cast<size_t>(v) + 1];
    std::sort(first, last);
    for (auto it = first; it != last; ++it) {
      if (it != first && *it == *(it - 1)) {
        ++mult_.back();
        continue;
      }
      col_.push_back(*it);
      mult_.push_back(1);
    }
    row_ptr_[static_cast<size_t>(v) + 1] = static_cast<int>(col_.size());
  }

  const Matrix& w0 = model.gcn_layers()[0].weight();
  if (g.has_features()) {
    xw0_ = MatMul(g.features(), w0);
  } else {
    // Featureless graphs get the constant default feature, so every row
    // of X·Θ₁ is MatMul's row for a ones row.
    const Matrix one = MatMul(Matrix(1, model.config().input_dim, 1.0f), w0);
    xw0_ = Matrix(n_, model.config().hidden_dim);
    for (NodeId v = 0; v < n_; ++v) {
      std::memcpy(xw0_.row(v), one.row(0), hidden_ * sizeof(float));
    }
  }

  base_removed_.assign(static_cast<size_t>(n_), 0);
  base_xw_.resize(static_cast<size_t>(layers_));
  removed_.assign(static_cast<size_t>(n_), 0);
  dist_.assign(static_cast<size_t>(n_), -1);
  pos_.assign(static_cast<size_t>(n_), 0);
  upto_.assign(static_cast<size_t>(max_hops_) + 1, 0);
  s_xw_.resize(static_cast<size_t>(layers_));
  row_.resize(hidden_);
}

Status GcnRemainderPredictor::MarkQuery(const std::vector<NodeId>& removed) {
  for (NodeId v : removed) {
    if (v < 0 || v >= n_) {
      return Status::InvalidArgument(StrFormat(
          "node %d out of bounds (graph has %d nodes)", v, n_));
    }
  }
  removed_list_.clear();
  for (NodeId v : removed) {
    if (removed_[static_cast<size_t>(v)]) continue;
    removed_[static_cast<size_t>(v)] = 1;
    removed_list_.push_back(v);
  }
  return Status::OK();
}

void GcnRemainderPredictor::ClearQuery() {
  for (NodeId v : removed_list_) removed_[static_cast<size_t>(v)] = 0;
  for (NodeId v : visit_) dist_[static_cast<size_t>(v)] = -1;
  visit_.clear();
}

bool GcnRemainderPredictor::Evaluate() {
  // Seeds: every node without a base, else the toggled ones.
  if (!has_base_) {
    for (NodeId v = 0; v < n_; ++v) visit_.push_back(v);
  } else {
    for (NodeId v : removed_list_) {
      if (!base_removed_[static_cast<size_t>(v)]) visit_.push_back(v);
    }
    for (NodeId v : base_list_) {
      if (!removed_[static_cast<size_t>(v)]) visit_.push_back(v);
    }
    if (visit_.empty()) return false;
  }
  for (NodeId v : visit_) dist_[static_cast<size_t>(v)] = 0;
  // Hop counts over G. A node removed on both sides passes nothing on.
  size_t head = 0;
  for (int d = 0; d <= max_hops_; ++d) {
    const size_t level_end = visit_.size();
    upto_[static_cast<size_t>(d)] = static_cast<int>(level_end);
    if (d == max_hops_) break;
    for (; head < level_end; ++head) {
      const NodeId u = visit_[head];
      if (d > 0 && removed_[static_cast<size_t>(u)]) continue;
      for (int idx = row_ptr_[static_cast<size_t>(u)];
           idx < row_ptr_[static_cast<size_t>(u) + 1]; ++idx) {
        const NodeId w = col_[static_cast<size_t>(idx)];
        if (dist_[static_cast<size_t>(w)] >= 0) continue;
        dist_[static_cast<size_t>(w)] = d + 1;
        visit_.push_back(w);
      }
    }
  }
  for (size_t p = 0; p < visit_.size(); ++p) {
    pos_[static_cast<size_t>(visit_[p])] = static_cast<int>(p);
  }

  // D^-1/2 of Â restricted to the kept nodes (self loop included).
  s_inv_.resize(static_cast<size_t>(Upto(kDegLimit)));
  for (int p = 0; p < Upto(kDegLimit); ++p) {
    const NodeId v = visit_[static_cast<size_t>(p)];
    if (removed_[static_cast<size_t>(v)]) continue;
    int deg = 1;
    for (int idx = row_ptr_[static_cast<size_t>(v)];
         idx < row_ptr_[static_cast<size_t>(v) + 1]; ++idx) {
      const NodeId c = col_[static_cast<size_t>(idx)];
      if (c != v && !removed_[static_cast<size_t>(c)]) {
        deg += mult_[static_cast<size_t>(idx)];
      }
    }
    s_inv_[static_cast<size_t>(p)] =
        1.0f / std::sqrt(static_cast<float>(deg));
  }

  for (int l = 0; l < layers_; ++l) {
    // ReLU rows of layer l, as SparseMatrix::Multiply then Relu. Each one
    // becomes the next layer's X·Θ row, as MatMul computes it, or after
    // the last layer a row of the readout.
    const bool last = l == layers_ - 1;
    std::vector<float>* out =
        last ? &s_h_ : &s_xw_[static_cast<size_t>(l) + 1];
    out->resize(static_cast<size_t>(Upto(HLimit(l))) * hidden_);
    for (int p = 0; p < Upto(HLimit(l)); ++p) {
      const NodeId r = visit_[static_cast<size_t>(p)];
      if (removed_[static_cast<size_t>(r)]) continue;
      float* h = last ? ScratchRow(out, p) : row_.data();
      std::fill(h, h + hidden_, 0.0f);
      const float inv_r = InvSqrt(r);
      for (int idx = row_ptr_[static_cast<size_t>(r)];
           idx < row_ptr_[static_cast<size_t>(r) + 1]; ++idx) {
        const NodeId c = col_[static_cast<size_t>(idx)];
        if (removed_[static_cast<size_t>(c)]) continue;
        const float w = inv_r * InvSqrt(c);
        const float s = mult_[static_cast<size_t>(idx)] == 2 ? w + w : w;
        const float* x = XwRow(l, c);
        for (size_t j = 0; j < hidden_; ++j) h[j] += s * x[j];
      }
      for (size_t j = 0; j < hidden_; ++j) h[j] = std::max(0.0f, h[j]);
      if (last) continue;
      const Matrix& theta =
          model_.gcn_layers()[static_cast<size_t>(l) + 1].weight();
      float* o = ScratchRow(out, p);
      std::fill(o, o + hidden_, 0.0f);
      for (int k = 0; k < theta.rows(); ++k) {
        const float a = h[k];
        if (a == 0.0f) continue;
        const float* wrow = theta.row(k);
        for (size_t j = 0; j < hidden_; ++j) o[j] += a * wrow[j];
      }
    }
  }

  // Readout over the kept rows in node order, as Readout does, then the head.
  Matrix pooled(1, static_cast<int>(hidden_));
  float* pool = pooled.row(0);
  int kept = 0;
  const ReadoutKind kind = model_.config().readout;
  for (NodeId v = 0; v < n_; ++v) {
    if (removed_[static_cast<size_t>(v)]) continue;
    const float* h = LastRow(v);
    if (kind == ReadoutKind::kMax) {
      if (kept == 0) {
        std::memcpy(pool, h, hidden_ * sizeof(float));
      } else {
        for (size_t j = 0; j < hidden_; ++j) {
          if (h[j] > pool[j]) pool[j] = h[j];
        }
      }
    } else {
      for (size_t j = 0; j < hidden_; ++j) pool[j] += h[j];
    }
    ++kept;
  }
  if (kind == ReadoutKind::kMean && kept > 0) {
    for (size_t j = 0; j < hidden_; ++j) pool[j] /= static_cast<float>(kept);
  }
  probs_ = Softmax(model_.fc().Forward(pooled).RowVec(0));
  return true;
}

void GcnRemainderPredictor::Commit() {
  const size_t last = static_cast<size_t>(layers_) - 1;
  if (!has_base_) {
    // Every node was evaluated, at scratch row v: the scratch is the base.
    base_inv_.swap(s_inv_);
    for (size_t l = 1; l <= last; ++l) base_xw_[l].swap(s_xw_[l]);
    base_h_.swap(s_h_);
  } else {
    const size_t row_bytes = hidden_ * sizeof(float);
    for (size_t p = 0; p < visit_.size(); ++p) {
      const NodeId v = visit_[p];
      if (removed_[static_cast<size_t>(v)]) continue;
      const int d = dist_[static_cast<size_t>(v)];
      const size_t at = static_cast<size_t>(v) * hidden_;
      if (d <= kDegLimit) base_inv_[static_cast<size_t>(v)] = s_inv_[p];
      for (int l = 1; l < layers_; ++l) {
        if (d > XwLimit(l)) continue;
        std::memcpy(base_xw_[static_cast<size_t>(l)].data() + at,
                    ScratchRow(&s_xw_[static_cast<size_t>(l)],
                               static_cast<int>(p)),
                    row_bytes);
      }
      if (d <= HLimit(layers_ - 1)) {
        std::memcpy(base_h_.data() + at,
                    ScratchRow(&s_h_, static_cast<int>(p)), row_bytes);
      }
    }
  }
  for (NodeId v : base_list_) base_removed_[static_cast<size_t>(v)] = 0;
  for (NodeId v : removed_list_) base_removed_[static_cast<size_t>(v)] = 1;
  base_list_ = removed_list_;
  base_probs_ = probs_;
  has_base_ = true;
}

Result<std::vector<float>> GcnRemainderPredictor::ProbaWithout(
    const std::vector<NodeId>& removed) {
  GVEX_RETURN_NOT_OK(MarkQuery(removed));
  if (!has_base_) {
    // The first query becomes the base: it costs one forward either way.
    Evaluate();
    Commit();
    ClearQuery();
    return base_probs_;
  }
  const bool differs = Evaluate();
  ClearQuery();
  return differs ? probs_ : base_probs_;
}

void GcnRemainderPredictor::Pin(const std::vector<NodeId>& base) {
  if (!MarkQuery(base).ok()) return;  // a hint; queries report bad ids
  if (Evaluate()) Commit();
  ClearQuery();
}

}  // namespace

std::unique_ptr<RemainderPredictor> GcnModel::MakeRemainderPredictor(
    const Graph& g) const {
  return std::make_unique<GcnRemainderPredictor>(*this, g);
}

}  // namespace gvex
