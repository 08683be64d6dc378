// Training loop for the GCN classifier over a GraphDatabase: mini-batched
// Adam on softmax cross-entropy, with train/validation accuracy reporting.

#ifndef GVEX_GNN_TRAINER_H_
#define GVEX_GNN_TRAINER_H_

#include <vector>

#include "gnn/adam.h"
#include "gnn/gcn_model.h"
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
  bool verbose = false;     // log per-epoch loss
  int log_every = 50;
};

/// Result of a training run.
struct TrainReport {
  float final_loss = 0.0f;
  float train_accuracy = 0.0f;
};

/// Trains `model` in place on the graphs at `train_indices` (ground-truth
/// labels from the database). InvalidArgument when a training graph's
/// feature width differs from the model's input_dim.
Result<TrainReport> TrainGcn(GcnModel* model, const GraphDatabase& db,
                             const std::vector<int>& train_indices,
                             const TrainConfig& config);

/// Accuracy of `model` on the graphs at `indices`.
float EvaluateAccuracy(const GcnModel& model, const GraphDatabase& db,
                       const std::vector<int>& indices);

/// Runs the model on every graph and installs predicted labels in `db`.
/// InvalidArgument when a graph's feature width differs from the model's
/// input_dim.
Status AssignPredictedLabels(const GcnModel& model, GraphDatabase* db);

}  // namespace gvex

#endif  // GVEX_GNN_TRAINER_H_
