// Attributed graph per §2.1: G = (V, E, T, L). Nodes carry an integer type
// L(v) (real-world entity type, e.g. atom symbol) and a feature vector T(v);
// edges carry an integer type L(e) (e.g. bond type). Undirected by default
// (both directions stored); directed graphs store one direction.

#ifndef GVEX_GRAPH_GRAPH_H_
#define GVEX_GRAPH_GRAPH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "la/matrix.h"
#include "la/sparse.h"
#include "util/status.h"

namespace gvex {

using NodeId = int32_t;

/// One endpoint record in an adjacency list.
struct Neighbor {
  NodeId node;
  int edge_type;
};

/// One stored edge (u <= v for undirected graphs after normalization).
struct Edge {
  NodeId u;
  NodeId v;
  int edge_type;
};

/// Attributed graph with typed nodes/edges and per-node feature vectors.
/// Node ids are dense [0, num_nodes).
class Graph {
 public:
  /// Creates an empty graph. `directed` controls edge semantics.
  explicit Graph(bool directed = false) : directed_(directed) {}

  /// Adds a node with the given type; returns its id. Features default to a
  /// zero vector whose width is fixed by the first SetFeatures call.
  NodeId AddNode(int node_type);

  /// Adds an edge u—v (or u→v when directed) with a type. Self loops and
  /// duplicate edges are rejected.
  Status AddEdge(NodeId u, NodeId v, int edge_type = 0);

  /// AddEdge without its checks, for an edge copied from a valid graph
  /// through an injective node map: in range, no self loop, no duplicate.
  void AddEdgeUnchecked(NodeId u, NodeId v, int edge_type);

  /// True if the edge u—v (u→v when directed) exists.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Type of the edge u—v; -1 when absent.
  int EdgeType(NodeId u, NodeId v) const;

  int num_nodes() const { return static_cast<int>(node_types_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }
  bool directed() const { return directed_; }

  int node_type(NodeId v) const { return node_types_[static_cast<size_t>(v)]; }
  const std::vector<int>& node_types() const { return node_types_; }

  /// Out-neighbors (all neighbors for undirected graphs).
  const std::vector<Neighbor>& neighbors(NodeId v) const {
    return adj_[static_cast<size_t>(v)];
  }

  int degree(NodeId v) const {
    return static_cast<int>(adj_[static_cast<size_t>(v)].size());
  }

  const std::vector<Edge>& edges() const { return edges_; }

  /// Node feature matrix X (num_nodes x feature_dim). Empty until set.
  const Matrix& features() const { return features_; }
  bool has_features() const { return !features_.empty(); }
  int feature_dim() const { return features_.cols(); }

  /// Installs a feature matrix; must have num_nodes rows.
  Status SetFeatures(Matrix x);

  /// Sets node features to one-hot encodings of node types with the given
  /// vocabulary size (types must lie in [0, num_types)).
  Status SetOneHotFeaturesFromTypes(int num_types);

  /// Symmetric-normalized propagation operator of Eq. (1):
  /// S = D^-1/2 (A + I) D^-1/2 over the *undirectedized* adjacency (GCN
  /// convention: directed graphs are symmetrized for message passing).
  /// Non-empty `edge_weights` (aligned with edges()) scale each edge's two
  /// entries; self loops keep weight 1 and the degrees stay those of the
  /// unweighted graph (GNNExplainer's edge mask). All-ones weights give the
  /// unweighted operator bit for bit.
  SparseMatrix NormalizedAdjacency(
      const std::vector<float>& edge_weights = {}) const;

  /// Summary like "Graph(n=30, m=31, directed=false)".
  std::string ToString() const;

 private:
  bool directed_;
  std::vector<int> node_types_;
  std::vector<std::vector<Neighbor>> adj_;  // out-adjacency
  std::vector<Edge> edges_;
  Matrix features_;
};

}  // namespace gvex

#endif  // GVEX_GRAPH_GRAPH_H_
