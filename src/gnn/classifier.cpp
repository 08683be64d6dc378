#include "gnn/classifier.h"

#include "graph/subgraph.h"

namespace gvex {

namespace {

// The reference path: rebuild G \ R, then a full forward.
class RebuildRemainderPredictor : public RemainderPredictor {
 public:
  RebuildRemainderPredictor(const GnnClassifier& model, const Graph& g)
      : model_(model), g_(g) {}

  Result<std::vector<float>> ProbaWithout(
      const std::vector<NodeId>& removed) override {
    auto rest = RemoveNodes(g_, removed);
    if (!rest.ok()) return rest.status();
    return model_.PredictProba(rest.value().graph);
  }

 private:
  const GnnClassifier& model_;
  const Graph& g_;
};

}  // namespace

std::unique_ptr<RemainderPredictor> GnnClassifier::MakeRemainderPredictor(
    const Graph& g) const {
  return std::make_unique<RebuildRemainderPredictor>(*this, g);
}

}  // namespace gvex
