#include "graph/graph_database.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace gvex {

int GraphDatabase::Add(Graph g, int true_label) {
  graphs_.push_back(std::move(g));
  true_labels_.push_back(true_label);
  return static_cast<int>(graphs_.size()) - 1;
}

Status GraphDatabase::SetPredictedLabels(std::vector<int> labels) {
  if (labels.size() != graphs_.size()) {
    return Status::InvalidArgument(
        StrFormat("got %zu predictions for %zu graphs", labels.size(),
                  graphs_.size()));
  }
  predicted_labels_ = std::move(labels);
  return Status::OK();
}

std::vector<int> GraphDatabase::LabelGroup(int label) const {
  const std::vector<int>& labels =
      has_predictions() ? predicted_labels_ : true_labels_;
  std::vector<int> out;
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] == label) out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> GraphDatabase::DistinctLabels() const {
  const std::vector<int>& labels =
      has_predictions() ? predicted_labels_ : true_labels_;
  std::set<int> s(labels.begin(), labels.end());
  return std::vector<int>(s.begin(), s.end());
}

GraphDatabase::Stats GraphDatabase::ComputeStats() const {
  Stats s;
  s.num_graphs = size();
  if (empty()) return s;
  double nodes = 0.0;
  double edges = 0.0;
  for (const auto& g : graphs_) {
    nodes += g.num_nodes();
    edges += g.num_edges();
    s.feature_dim = std::max(s.feature_dim, g.feature_dim());
  }
  s.avg_nodes = nodes / size();
  s.avg_edges = edges / size();
  std::set<int> classes(true_labels_.begin(), true_labels_.end());
  s.num_classes = static_cast<int>(classes.size());
  return s;
}

}  // namespace gvex
