#include "gnn/trainer.h"

#include <string>

namespace gvex {

Status CheckInputWidth(int input_dim, const Graph& g) {
  if (!g.has_features() || g.feature_dim() == input_dim) return Status::OK();
  return Status::InvalidArgument(
      "graph feature width " + std::to_string(g.feature_dim()) +
      " differs from the model's input_dim " + std::to_string(input_dim));
}

float EvaluateAccuracy(const GnnClassifier& model, const GraphDatabase& db,
                       const std::vector<int>& indices) {
  if (indices.empty()) return 0.0f;
  int correct = 0;
  for (int i : indices) {
    if (model.Predict(db.graph(i)) == db.true_label(i)) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(indices.size());
}

Result<TrainReport> TrainGcn(GcnModel* model, const GraphDatabase& db,
                             const std::vector<int>& train_indices,
                             const TrainConfig& config) {
  return TrainAnyModel(model, db, train_indices, config);
}

}  // namespace gvex
