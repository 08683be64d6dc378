// Test-only oracle: CanonicalCode as it ran before codes were rendered
// with std::to_chars into buffers reused across permutations — one
// StrFormat per node and per edge, the edges sorted as std::strings. Kept
// verbatim so CanonicalOracleTest can pin the production CanonicalCode
// (pattern/canonical.cpp) to it byte for byte.

#ifndef GVEX_TESTS_PATTERN_CANONICAL_REFERENCE_H_
#define GVEX_TESTS_PATTERN_CANONICAL_REFERENCE_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/string_util.h"

namespace gvex {
namespace testing {
namespace canonical_reference {

namespace internal {

// Render the adjacency under a given node order.
inline std::string CodeUnderOrder(const Graph& g, const std::vector<int>& order) {
  const int n = g.num_nodes();
  std::vector<int> pos(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) pos[static_cast<size_t>(order[static_cast<size_t>(i)])] = i;
  std::string code;
  for (int i = 0; i < n; ++i) {
    code += StrFormat("%d,", g.node_type(order[static_cast<size_t>(i)]));
  }
  code += "|";
  std::vector<std::string> edges;
  for (const Edge& e : g.edges()) {
    int a = pos[static_cast<size_t>(e.u)];
    int b = pos[static_cast<size_t>(e.v)];
    if (!g.directed() && a > b) std::swap(a, b);
    edges.push_back(StrFormat("%d-%d:%d", a, b, e.edge_type));
  }
  std::sort(edges.begin(), edges.end());
  code += Join(edges, ";");
  return code;
}

// Refined initial classes: (type, degree) signature. Permutations only swap
// nodes within the same class, cutting the factorial blowup.
inline void Permute(const Graph& g, std::vector<std::vector<int>>& classes,
             size_t class_idx, std::vector<int>* order, std::string* best) {
  if (class_idx == classes.size()) {
    std::string code = CodeUnderOrder(g, *order);
    if (best->empty() || code < *best) *best = std::move(code);
    return;
  }
  std::vector<int>& cls = classes[class_idx];
  std::sort(cls.begin(), cls.end());
  do {
    size_t base = order->size();
    for (int v : cls) order->push_back(v);
    Permute(g, classes, class_idx + 1, order, best);
    order->resize(base);
  } while (std::next_permutation(cls.begin(), cls.end()));
}

}  // namespace internal

inline std::string CanonicalCode(const Graph& g) {
  const int n = g.num_nodes();
  if (n == 0) return "empty";
  // Group nodes by (type, degree), sorted; permute within groups only.
  std::vector<std::pair<std::pair<int, int>, int>> sig;
  sig.reserve(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    sig.push_back({{g.node_type(v), g.degree(v)}, v});
  }
  std::sort(sig.begin(), sig.end());
  std::vector<std::vector<int>> classes;
  for (size_t i = 0; i < sig.size();) {
    std::vector<int> cls;
    auto key = sig[i].first;
    while (i < sig.size() && sig[i].first == key) {
      cls.push_back(sig[i].second);
      ++i;
    }
    classes.push_back(std::move(cls));
  }
  std::string best;
  std::vector<int> order;
  order.reserve(static_cast<size_t>(n));
  internal::Permute(g, classes, 0, &order, &best);
  return best;
}

}  // namespace canonical_reference
}  // namespace testing
}  // namespace gvex

#endif  // GVEX_TESTS_PATTERN_CANONICAL_REFERENCE_H_
