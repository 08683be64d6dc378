#include "graph/subgraph.h"

#include <algorithm>
#include <queue>

#include "util/string_util.h"

namespace gvex {

Result<InducedSubgraph> ExtractInducedSubgraph(
    const Graph& g, const std::vector<NodeId>& nodes) {
  InducedSubgraph out;
  out.graph = Graph(g.directed());
  std::vector<int> to_sub(static_cast<size_t>(g.num_nodes()), -1);
  for (NodeId v : nodes) {
    if (v < 0 || v >= g.num_nodes()) {
      return Status::InvalidArgument(
          StrFormat("node %d out of bounds (graph has %d nodes)", v,
                    g.num_nodes()));
    }
    if (to_sub[static_cast<size_t>(v)] != -1) continue;  // dedup
    to_sub[static_cast<size_t>(v)] =
        out.graph.AddNode(g.node_type(v));
    out.original_nodes.push_back(v);
  }
  // Induced edges: iterate parent edges once. The parent is a valid graph
  // and to_sub is injective, so no edge can be a self loop or a duplicate.
  for (const Edge& e : g.edges()) {
    int su = to_sub[static_cast<size_t>(e.u)];
    int sv = to_sub[static_cast<size_t>(e.v)];
    if (su >= 0 && sv >= 0) out.graph.AddEdgeUnchecked(su, sv, e.edge_type);
  }
  if (g.has_features()) {
    const int d = g.feature_dim();
    Matrix x(out.graph.num_nodes(), d);
    for (int i = 0; i < out.graph.num_nodes(); ++i) {
      const float* src =
          g.features().row(out.original_nodes[static_cast<size_t>(i)]);
      std::copy(src, src + d, x.row(i));
    }
    GVEX_RETURN_NOT_OK(out.graph.SetFeatures(std::move(x)));
  }
  return out;
}

Result<InducedSubgraph> RemoveNodes(const Graph& g,
                                    const std::vector<NodeId>& nodes) {
  std::vector<bool> removed(static_cast<size_t>(g.num_nodes()), false);
  for (NodeId v : nodes) {
    if (v < 0 || v >= g.num_nodes()) {
      return Status::InvalidArgument(
          StrFormat("node %d out of bounds (graph has %d nodes)", v,
                    g.num_nodes()));
    }
    removed[static_cast<size_t>(v)] = true;
  }
  std::vector<NodeId> keep;
  keep.reserve(static_cast<size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!removed[static_cast<size_t>(v)]) keep.push_back(v);
  }
  return ExtractInducedSubgraph(g, keep);
}

InducedSubgraph ExtractNeighborhood(const Graph& g, NodeId center, int hops) {
  std::vector<int> dist(static_cast<size_t>(g.num_nodes()), -1);
  std::queue<NodeId> q;
  dist[static_cast<size_t>(center)] = 0;
  q.push(center);
  std::vector<NodeId> nodes{center};
  while (!q.empty()) {
    NodeId u = q.front();
    q.pop();
    if (dist[static_cast<size_t>(u)] >= hops) continue;
    for (const Neighbor& nb : g.neighbors(u)) {
      if (dist[static_cast<size_t>(nb.node)] == -1) {
        dist[static_cast<size_t>(nb.node)] = dist[static_cast<size_t>(u)] + 1;
        nodes.push_back(nb.node);
        q.push(nb.node);
      }
    }
  }
  auto result = ExtractInducedSubgraph(g, nodes);
  // Cannot fail: nodes are valid by construction.
  return std::move(result).value();
}

}  // namespace gvex
