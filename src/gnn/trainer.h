// The one training loop for every GNN architecture (GCN, GIN, GraphSAGE,
// R-GCN): mini-batched Adam on softmax cross-entropy over a GraphDatabase,
// driven through the substrate protocol of gnn/substrate.h (Forward,
// Backward, ZeroGradients, MutableParams, MutableFcBias). Also the
// accuracy and predicted-label helpers, with the feature-width check every
// entry point runs.

#ifndef GVEX_GNN_TRAINER_H_
#define GVEX_GNN_TRAINER_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "gnn/adam.h"
#include "gnn/gcn_model.h"
#include "gnn/loss.h"
#include "graph/graph_database.h"
#include "util/rng.h"
#include "util/status.h"

namespace gvex {

/// Training hyperparameters.
struct TrainConfig {
  int epochs = 200;
  int batch_size = 16;
  AdamConfig adam;
  uint64_t shuffle_seed = 7;
};

/// Result of a training run.
struct TrainReport {
  float final_loss = 0.0f;
  float train_accuracy = 0.0f;
};

/// InvalidArgument when `g` has features and they are not `input_dim`
/// wide: a forward pass multiplies them by an input_dim-row weight matrix.
/// Featureless graphs get a default input_dim-wide feature instead.
Status CheckInputWidth(int input_dim, const Graph& g);

/// Accuracy of `model` on the graphs at `indices` (0 for none).
float EvaluateAccuracy(const GnnClassifier& model, const GraphDatabase& db,
                       const std::vector<int>& indices);

/// Trains `model` in place on the graphs at `train_indices` (ground-truth
/// labels from the database). InvalidArgument when a training graph's
/// feature width differs from the model's input_dim. The reported loss is
/// the last epoch's mean, summed per batch and then per epoch.
template <typename Model>
Result<TrainReport> TrainAnyModel(Model* model, const GraphDatabase& db,
                                  const std::vector<int>& train_indices,
                                  const TrainConfig& config) {
  if (model == nullptr) return Status::InvalidArgument("model is null");
  if (train_indices.empty()) {
    return Status::InvalidArgument("no training graphs");
  }
  for (int i : train_indices) {
    if (i < 0 || i >= db.size()) {
      return Status::OutOfRange("training index out of bounds");
    }
    int l = db.true_label(i);
    if (l < 0 || l >= model->num_classes()) {
      return Status::InvalidArgument("label outside model class range");
    }
    GVEX_RETURN_NOT_OK(CheckInputWidth(model->config().input_dim, db.graph(i)));
  }

  Rng rng(config.shuffle_seed);
  Adam opt(model->MutableParams(), model->MutableFcBias(), config.adam);
  std::vector<int> order = train_indices;

  float last_loss = 0.0f;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(&order);
    float epoch_loss = 0.0f;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(config.batch_size)) {
      size_t end = std::min(order.size(),
                            start + static_cast<size_t>(config.batch_size));
      auto grads = model->ZeroGradients();
      float batch_loss = 0.0f;
      for (size_t i = start; i < end; ++i) {
        const Graph& g = db.graph(order[i]);
        if (g.num_nodes() == 0) continue;
        auto trace = model->Forward(g);
        Matrix dlogits;
        batch_loss += SoftmaxCrossEntropy(trace.logits,
                                          db.true_label(order[i]), &dlogits);
        model->Backward(trace, dlogits, &grads);
      }
      const float scale = 1.0f / static_cast<float>(end - start);
      std::vector<Matrix*> grad_ptrs;
      for (Matrix& m : grads.mats) {
        m *= scale;
        grad_ptrs.push_back(&m);
      }
      for (float& b : grads.fc_bias) b *= scale;
      opt.Step(grad_ptrs, &grads.fc_bias);
      epoch_loss += batch_loss;
    }
    last_loss = epoch_loss / static_cast<float>(order.size());
  }

  TrainReport report;
  report.final_loss = last_loss;
  report.train_accuracy = EvaluateAccuracy(*model, db, train_indices);
  return report;
}

/// TrainAnyModel for the GCN classifier.
Result<TrainReport> TrainGcn(GcnModel* model, const GraphDatabase& db,
                             const std::vector<int>& train_indices,
                             const TrainConfig& config);

/// Runs the model on every graph and installs predicted labels in `db`.
/// InvalidArgument when a graph's feature width differs from the model's
/// input_dim.
template <typename Model>
Status AssignPredictedLabels(const Model& model, GraphDatabase* db) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  std::vector<int> preds;
  preds.reserve(static_cast<size_t>(db->size()));
  for (int i = 0; i < db->size(); ++i) {
    GVEX_RETURN_NOT_OK(CheckInputWidth(model.config().input_dim, db->graph(i)));
    preds.push_back(model.Predict(db->graph(i)));
  }
  return db->SetPredictedLabels(std::move(preds));
}

}  // namespace gvex

#endif  // GVEX_GNN_TRAINER_H_
