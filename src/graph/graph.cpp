#include "graph/graph.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace gvex {

NodeId Graph::AddNode(int node_type) {
  node_types_.push_back(node_type);
  adj_.emplace_back();
  // Grow the feature matrix lazily: if features were installed already, the
  // caller must re-install them after adding nodes; enforced in SetFeatures.
  return static_cast<NodeId>(node_types_.size() - 1);
}

Status Graph::AddEdge(NodeId u, NodeId v, int edge_type) {
  if (u < 0 || v < 0 || u >= num_nodes() || v >= num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("edge (%d,%d) out of bounds for %d nodes", u, v,
                  num_nodes()));
  }
  if (u == v) {
    return Status::InvalidArgument(StrFormat("self loop at node %d", u));
  }
  if (HasEdge(u, v)) {
    return Status::InvalidArgument(StrFormat("duplicate edge (%d,%d)", u, v));
  }
  AddEdgeUnchecked(u, v, edge_type);
  return Status::OK();
}

void Graph::AddEdgeUnchecked(NodeId u, NodeId v, int edge_type) {
  adj_[static_cast<size_t>(u)].push_back({v, edge_type});
  if (!directed_) adj_[static_cast<size_t>(v)].push_back({u, edge_type});
  Edge e{u, v, edge_type};
  if (!directed_ && e.u > e.v) std::swap(e.u, e.v);
  edges_.push_back(e);
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= num_nodes() || v >= num_nodes()) return false;
  const auto& nb = adj_[static_cast<size_t>(u)];
  for (const auto& n : nb) {
    if (n.node == v) return true;
  }
  return false;
}

int Graph::EdgeType(NodeId u, NodeId v) const {
  if (u < 0 || v < 0 || u >= num_nodes() || v >= num_nodes()) return -1;
  for (const auto& n : adj_[static_cast<size_t>(u)]) {
    if (n.node == v) return n.edge_type;
  }
  return -1;
}

Status Graph::SetFeatures(Matrix x) {
  if (x.rows() != num_nodes()) {
    return Status::InvalidArgument(
        StrFormat("feature matrix has %d rows, graph has %d nodes", x.rows(),
                  num_nodes()));
  }
  features_ = std::move(x);
  return Status::OK();
}

Status Graph::SetOneHotFeaturesFromTypes(int num_types) {
  Matrix x(num_nodes(), num_types);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    int t = node_type(v);
    if (t < 0 || t >= num_types) {
      return Status::InvalidArgument(
          StrFormat("node %d type %d outside [0,%d)", v, t, num_types));
    }
    x.at(v, t) = 1.0f;
  }
  features_ = std::move(x);
  return Status::OK();
}

SparseMatrix Graph::NormalizedAdjacency() const {
  const int n = num_nodes();
  // Degree of Â = A_sym + I.
  std::vector<float> deg(static_cast<size_t>(n), 1.0f);  // self loop
  std::vector<SparseMatrix::Triplet> trips;
  trips.reserve(static_cast<size_t>(edges_.size()) * 2 +
                static_cast<size_t>(n));
  for (const Edge& e : edges_) {
    deg[static_cast<size_t>(e.u)] += 1.0f;
    deg[static_cast<size_t>(e.v)] += 1.0f;
  }
  std::vector<float> inv_sqrt(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) {
    inv_sqrt[static_cast<size_t>(v)] =
        1.0f / std::sqrt(deg[static_cast<size_t>(v)]);
  }
  for (int v = 0; v < n; ++v) {
    float w = inv_sqrt[static_cast<size_t>(v)] * inv_sqrt[static_cast<size_t>(v)];
    trips.push_back({v, v, w});
  }
  for (const Edge& e : edges_) {
    float w = inv_sqrt[static_cast<size_t>(e.u)] * inv_sqrt[static_cast<size_t>(e.v)];
    trips.push_back({e.u, e.v, w});
    trips.push_back({e.v, e.u, w});
  }
  return SparseMatrix(n, n, std::move(trips));
}

std::string Graph::ToString() const {
  return StrFormat("Graph(n=%d, m=%d, directed=%s)", num_nodes(), num_edges(),
                   directed_ ? "true" : "false");
}

}  // namespace gvex
