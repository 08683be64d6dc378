#include "graph/connectivity.h"

#include <algorithm>
#include <queue>

namespace gvex {

namespace {
// Undirected adjacency view: for directed graphs we traverse both directions.
std::vector<std::vector<NodeId>> UndirectedAdj(const Graph& g) {
  std::vector<std::vector<NodeId>> adj(static_cast<size_t>(g.num_nodes()));
  for (const Edge& e : g.edges()) {
    adj[static_cast<size_t>(e.u)].push_back(e.v);
    adj[static_cast<size_t>(e.v)].push_back(e.u);
  }
  return adj;
}
}  // namespace

std::vector<std::vector<NodeId>> ConnectedComponents(const Graph& g) {
  auto adj = UndirectedAdj(g);
  std::vector<bool> seen(static_cast<size_t>(g.num_nodes()), false);
  std::vector<std::vector<NodeId>> comps;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (seen[static_cast<size_t>(s)]) continue;
    std::vector<NodeId> comp;
    std::queue<NodeId> q;
    q.push(s);
    seen[static_cast<size_t>(s)] = true;
    while (!q.empty()) {
      NodeId u = q.front();
      q.pop();
      comp.push_back(u);
      for (NodeId v : adj[static_cast<size_t>(u)]) {
        if (!seen[static_cast<size_t>(v)]) {
          seen[static_cast<size_t>(v)] = true;
          q.push(v);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    comps.push_back(std::move(comp));
  }
  return comps;
}

bool IsConnected(const Graph& g) {
  const int n = g.num_nodes();
  if (n == 0) return true;
  // Union-find over the edges, direction ignored: one allocation, since
  // every Pattern::Create asks this.
  std::vector<NodeId> parent(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v) parent[static_cast<size_t>(v)] = v;
  const auto find = [&parent](NodeId v) {
    while (parent[static_cast<size_t>(v)] != v) {
      NodeId& p = parent[static_cast<size_t>(v)];
      p = parent[static_cast<size_t>(p)];
      v = p;
    }
    return v;
  };
  int components = n;
  for (const Edge& e : g.edges()) {
    const NodeId a = find(e.u);
    const NodeId b = find(e.v);
    if (a != b) {
      parent[static_cast<size_t>(a)] = b;
      --components;
    }
  }
  return components == 1;
}

}  // namespace gvex
