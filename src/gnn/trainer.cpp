#include "gnn/trainer.h"

#include <algorithm>
#include <string>
#include <utility>

#include "gnn/loss.h"
#include "la/matrix_ops.h"
#include "util/logging.h"

namespace gvex {

namespace {

// A graph with features must be exactly as wide as the model's input layer:
// Forward multiplies them by an input_dim-row weight matrix. Featureless
// graphs get a default input_dim-wide feature instead.
Status CheckInputWidth(const GcnModel& model, const Graph& g) {
  if (!g.has_features() || g.feature_dim() == model.config().input_dim) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "graph feature width " + std::to_string(g.feature_dim()) +
      " differs from the model's input_dim " +
      std::to_string(model.config().input_dim));
}

}  // namespace

Result<TrainReport> TrainGcn(GcnModel* model, const GraphDatabase& db,
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
    if (l < 0 || l >= model->config().num_classes) {
      return Status::InvalidArgument("label outside model class range");
    }
    GVEX_RETURN_NOT_OK(CheckInputWidth(*model, db.graph(i)));
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
      GcnModel::Gradients grads = model->ZeroGradients();
      float batch_loss = 0.0f;
      for (size_t i = start; i < end; ++i) {
        const Graph& g = db.graph(order[i]);
        if (g.num_nodes() == 0) continue;
        GcnModel::Trace trace = model->Forward(g);
        Matrix dlogits;
        batch_loss +=
            SoftmaxCrossEntropy(trace.logits, db.true_label(order[i]),
                                &dlogits);
        model->Backward(trace, dlogits, &grads);
      }
      const float scale = 1.0f / static_cast<float>(end - start);
      std::vector<Matrix*> grad_ptrs;
      for (auto& gm : grads.gcn_weights) {
        gm *= scale;
        grad_ptrs.push_back(&gm);
      }
      grads.fc_weight *= scale;
      grad_ptrs.push_back(&grads.fc_weight);
      for (auto& b : grads.fc_bias) b *= scale;
      opt.Step(grad_ptrs, &grads.fc_bias);
      epoch_loss += batch_loss;
    }
    last_loss = epoch_loss / static_cast<float>(order.size());
    if (config.verbose && (epoch % config.log_every == 0 ||
                           epoch + 1 == config.epochs)) {
      GVEX_LOG(kInfo) << "epoch " << epoch << " loss " << last_loss;
    }
  }

  TrainReport report;
  report.final_loss = last_loss;
  report.train_accuracy = EvaluateAccuracy(*model, db, train_indices);
  return report;
}

float EvaluateAccuracy(const GcnModel& model, const GraphDatabase& db,
                       const std::vector<int>& indices) {
  if (indices.empty()) return 0.0f;
  int correct = 0;
  for (int i : indices) {
    if (model.Predict(db.graph(i)) == db.true_label(i)) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(indices.size());
}

Status AssignPredictedLabels(const GcnModel& model, GraphDatabase* db) {
  if (db == nullptr) return Status::InvalidArgument("db is null");
  std::vector<int> preds;
  preds.reserve(static_cast<size_t>(db->size()));
  for (int i = 0; i < db->size(); ++i) {
    GVEX_RETURN_NOT_OK(CheckInputWidth(model, db->graph(i)));
    preds.push_back(model.Predict(db->graph(i)));
  }
  return db->SetPredictedLabels(std::move(preds));
}

}  // namespace gvex
