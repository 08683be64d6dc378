#include "pattern/canonical.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gvex {

namespace {

// Appends the decimal form of `v` (what "%d" prints).
void AppendInt(std::string* out, int v) {
  char buf[16];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

// Renders codes under node orders, keeping the smallest. The code under an
// order is "<type>," per node in order, "|", then every edge as
// "<a>-<b>:<type>" (positions in the order, a <= b when undirected),
// sorted as strings and joined by ';'. The buffers are reused across
// orders and, per thread, across calls.
class CodeRenderer {
 public:
  // Starts a new graph; the caller then fills `order` and `class_begin`.
  void Reset(const Graph& g) {
    g_ = &g;
    best_.clear();
    const size_t m = g.edges().size();
    spans_.resize(m);
    sorted_.resize(m);
    pos_.resize(static_cast<size_t>(g.num_nodes()));
  }

  void Offer() {
    const Graph& g = *g_;
    const size_t n = order.size();
    for (size_t i = 0; i < n; ++i) {
      pos_[static_cast<size_t>(order[i])] = static_cast<int>(i);
    }
    code_.clear();
    for (size_t i = 0; i < n; ++i) {
      AppendInt(&code_, g.node_type(order[i]));
      code_ += ',';
    }
    code_ += '|';
    edge_text_.clear();
    const std::vector<Edge>& edges = g.edges();
    for (size_t k = 0; k < edges.size(); ++k) {
      int a = pos_[static_cast<size_t>(edges[k].u)];
      int b = pos_[static_cast<size_t>(edges[k].v)];
      if (!g.directed() && a > b) std::swap(a, b);
      const size_t begin = edge_text_.size();
      AppendInt(&edge_text_, a);
      edge_text_ += '-';
      AppendInt(&edge_text_, b);
      edge_text_ += ':';
      AppendInt(&edge_text_, edges[k].edge_type);
      spans_[k] = {static_cast<uint32_t>(begin),
                   static_cast<uint32_t>(edge_text_.size() - begin)};
      sorted_[k] = static_cast<uint32_t>(k);
    }
    std::sort(sorted_.begin(), sorted_.end(), [this](uint32_t x, uint32_t y) {
      return EdgeText(x) < EdgeText(y);
    });
    for (size_t k = 0; k < sorted_.size(); ++k) {
      if (k > 0) code_ += ';';
      code_ += EdgeText(sorted_[k]);
    }
    if (best_.empty() || code_ < best_) best_ = code_;
  }

  // Offers every order that permutes classes >= `c` within themselves.
  void Permute(size_t c) {
    if (c + 1 == class_begin.size()) {
      Offer();
      return;
    }
    const auto first = order.begin() + class_begin[c];
    const auto last = order.begin() + class_begin[c + 1];
    // The class starts sorted, and next_permutation leaves it sorted again
    // once it has visited every arrangement.
    do {
      Permute(c + 1);
    } while (std::next_permutation(first, last));
  }

  const std::string& best() const { return best_; }

  /// The node order under test: nodes by (type, degree, id), each class
  /// [class_begin[i], class_begin[i + 1]) permuted in place.
  std::vector<int> order;
  std::vector<int> class_begin;  ///< class starts in `order`, then n

 private:
  std::string_view EdgeText(uint32_t k) const {
    return std::string_view(edge_text_).substr(spans_[k].first,
                                               spans_[k].second);
  }

  const Graph* g_ = nullptr;
  std::vector<int> pos_;
  std::string code_;
  std::string edge_text_;  ///< every edge's rendering, back to back
  std::vector<std::pair<uint32_t, uint32_t>> spans_;  ///< offset, length
  std::vector<uint32_t> sorted_;  ///< edge indices in code order
  std::string best_;
};

}  // namespace

std::string CanonicalCode(const Graph& g) {
  const int n = g.num_nodes();
  if (n == 0) return "empty";
  thread_local CodeRenderer renderer;
  renderer.Reset(g);
  // Group nodes by (type, degree), sorted; permute within groups only
  // (refined initial classes cut the factorial blowup).
  std::vector<int>& order = renderer.order;
  order.resize(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) order[static_cast<size_t>(v)] = v;
  const auto sig = [&g](int v) {
    return std::make_pair(g.node_type(v), g.degree(v));
  };
  std::sort(order.begin(), order.end(), [&sig](int a, int b) {
    return std::make_pair(sig(a), a) < std::make_pair(sig(b), b);
  });
  renderer.class_begin.clear();
  for (int i = 0; i < n; ++i) {
    if (i == 0 || sig(order[static_cast<size_t>(i)]) !=
                      sig(order[static_cast<size_t>(i - 1)])) {
      renderer.class_begin.push_back(i);
    }
  }
  renderer.class_begin.push_back(n);
  renderer.Permute(0);
  return renderer.best();
}

}  // namespace gvex
