// Architecture-generic training loop. Any model exposing the substrate's
// Forward/Backward/ZeroGradients/MutableParams protocol trains with the same
// mini-batched Adam + cross-entropy recipe; the per-architecture gradient
// layout is adapted by the GradientPtrs overloads.

#ifndef GVEX_GNN_TRAIN_ANY_H_
#define GVEX_GNN_TRAIN_ANY_H_

#include <algorithm>
#include <vector>

#include "gnn/adam.h"
#include "gnn/gcn_model.h"
#include "gnn/gin_model.h"
#include "gnn/loss.h"
#include "gnn/rgcn_model.h"
#include "gnn/sage_model.h"
#include "gnn/trainer.h"
#include "graph/graph_database.h"
#include "util/rng.h"
#include "util/status.h"

namespace gvex {

/// Uniform view over a model's gradient storage.
struct GradientView {
  std::vector<Matrix*> mats;
  std::vector<float>* bias = nullptr;
};

inline GradientView GradientPtrs(GcnModel::Gradients* g) {
  GradientView view;
  for (auto& m : g->gcn_weights) view.mats.push_back(&m);
  view.mats.push_back(&g->fc_weight);
  view.bias = &g->fc_bias;
  return view;
}

inline GradientView GradientPtrs(GinModel::Gradients* g) {
  GradientView view;
  for (auto& m : g->mats) view.mats.push_back(&m);
  view.bias = &g->fc_bias;
  return view;
}

inline GradientView GradientPtrs(SageModel::Gradients* g) {
  GradientView view;
  for (auto& m : g->mats) view.mats.push_back(&m);
  view.bias = &g->fc_bias;
  return view;
}

inline GradientView GradientPtrs(RgcnModel::Gradients* g) {
  GradientView view;
  for (auto& m : g->mats) view.mats.push_back(&m);
  view.bias = &g->fc_bias;
  return view;
}

/// Trains `model` on the graphs at `train_indices` (same recipe as TrainGcn,
/// for any supported architecture).
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
      for (size_t i = start; i < end; ++i) {
        const Graph& g = db.graph(order[i]);
        if (g.num_nodes() == 0) continue;
        auto trace = model->Forward(g);
        Matrix dlogits;
        epoch_loss += SoftmaxCrossEntropy(trace.logits,
                                          db.true_label(order[i]), &dlogits);
        model->Backward(trace, dlogits, &grads);
      }
      GradientView view = GradientPtrs(&grads);
      const float scale = 1.0f / static_cast<float>(end - start);
      for (Matrix* m : view.mats) (*m) *= scale;
      if (view.bias) {
        for (auto& b : *view.bias) b *= scale;
      }
      opt.Step(view.mats, view.bias);
    }
    last_loss = epoch_loss / static_cast<float>(order.size());
  }

  TrainReport report;
  report.final_loss = last_loss;
  int correct = 0;
  for (int i : train_indices) {
    if (model->Predict(db.graph(i)) == db.true_label(i)) ++correct;
  }
  report.train_accuracy =
      static_cast<float>(correct) / static_cast<float>(train_indices.size());
  return report;
}

}  // namespace gvex

#endif  // GVEX_GNN_TRAIN_ANY_H_
