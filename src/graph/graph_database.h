// Graph database G = {G_1, ..., G_m} with per-graph class labels — the input
// object of the EVG problem (§3.2). Stores ground-truth labels (from the
// generator) and, once a classifier has run, the model-assigned labels used
// to form label groups G^l.

#ifndef GVEX_GRAPH_GRAPH_DATABASE_H_
#define GVEX_GRAPH_GRAPH_DATABASE_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace gvex {

/// A set of attributed graphs with labels.
class GraphDatabase {
 public:
  GraphDatabase() = default;

  /// Appends a graph with its ground-truth label; returns its index.
  int Add(Graph g, int true_label);

  int size() const { return static_cast<int>(graphs_.size()); }
  bool empty() const { return graphs_.empty(); }

  const Graph& graph(int i) const { return graphs_[static_cast<size_t>(i)]; }
  Graph* mutable_graph(int i) { return &graphs_[static_cast<size_t>(i)]; }

  int true_label(int i) const { return true_labels_[static_cast<size_t>(i)]; }
  const std::vector<int>& true_labels() const { return true_labels_; }

  /// Model-assigned labels (empty until SetPredictedLabels).
  bool has_predictions() const { return !predicted_labels_.empty(); }
  int predicted_label(int i) const {
    return predicted_labels_[static_cast<size_t>(i)];
  }
  Status SetPredictedLabels(std::vector<int> labels);

  /// Label group G^l: indices of graphs whose *predicted* label is l
  /// (falls back to ground truth if no predictions are installed).
  std::vector<int> LabelGroup(int label) const;

  /// Distinct labels present (predicted if available, else ground truth),
  /// ascending.
  std::vector<int> DistinctLabels() const;

  /// Aggregate statistics for reporting (Table 3 reproduction).
  struct Stats {
    int num_graphs = 0;
    double avg_nodes = 0.0;
    double avg_edges = 0.0;
    int feature_dim = 0;
    int num_classes = 0;
  };
  Stats ComputeStats() const;

 private:
  std::vector<Graph> graphs_;
  std::vector<int> true_labels_;
  std::vector<int> predicted_labels_;
};

}  // namespace gvex

#endif  // GVEX_GRAPH_GRAPH_DATABASE_H_
