// The trained model: the offline stage's output and the online stage's
// whole world (paper Fig. 1). Holds the per-cluster regressions and the
// classification tree; given only a kernel's two sample runs it assigns a
// cluster, predicts power and performance for every configuration, and
// derives the predicted Pareto frontier the scheduler walks (§III-C).
//
// TrainedModel is the first — and the paper's — implementation of the
// core::Predictor interface; consumers hold it as PredictorPtr and only
// tests and the trainer name the concrete type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cluster_model.h"
#include "core/predictor.h"
#include "hw/config_space.h"
#include "pareto/frontier.h"
#include "stats/cart.h"

namespace acsel::core {

class TrainedModel final : public Predictor {
 public:
  /// Envelope tag of this family (per-cluster regression behind a CART).
  static constexpr std::string_view kKind = "cluster-cart";

  TrainedModel() = default;
  TrainedModel(std::vector<ClusterModel> clusters, stats::Cart tree);

  std::size_t cluster_count() const override { return clusters_.size(); }
  const ClusterModel& cluster(std::size_t index) const;
  const stats::Cart& tree() const { return tree_; }
  const hw::ConfigSpace& config_space() const override { return space_; }

  std::string_view kind() const override { return kKind; }

  /// Assigns a kernel to a trained cluster from its sample runs (the
  /// first online step; tree application costs O(depth), §IV-C).
  std::size_t classify(const SamplePair& samples) const override;

  /// Full online prediction: classify, then apply the cluster's models at
  /// every configuration — "a simple matrix-vector product" (§IV-C).
  Prediction predict(const SamplePair& samples) const override;

  std::string serialize_body() const override;

  /// Concrete-type parse/load; accepts both the current envelope and the
  /// legacy "acsel-model v1" header. parse_predictor() is the
  /// kind-dispatching form.
  static TrainedModel parse(const std::string& text);
  static TrainedModel load(const std::string& path);

  /// Factory hook: body parser behind the "cluster-cart" envelope tag.
  static PredictorPtr parse_shared(std::uint32_t version,
                                   const std::string& body);

 private:
  std::vector<ClusterModel> clusters_;
  stats::Cart tree_;
  hw::ConfigSpace space_;
};

/// Wraps a concrete model into the shared-ownership interface form every
/// consumer takes (registries, runtimes, fleets hold PredictorPtr).
inline PredictorPtr make_predictor(TrainedModel model) {
  return std::make_shared<const TrainedModel>(std::move(model));
}

}  // namespace acsel::core
