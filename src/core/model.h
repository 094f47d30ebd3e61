// The trained model: the offline stage's output and the online stage's
// whole world (paper Fig. 1). Holds the per-cluster regressions and the
// classification tree; given only a kernel's two sample runs it assigns a
// cluster, predicts power and performance for every configuration, and
// derives the predicted Pareto frontier the scheduler walks (§III-C).
//
// Everything in an estimate that does not depend on the request is
// computed once, at construction (train() and both parse paths construct
// through the same constructor): one table row per (cluster,
// configuration) holds the partial sum of the eight configuration-only
// power terms, the device indicator, and the performance ratio. predict()
// then costs a classification and four multiply-adds per configuration —
// §IV-C's "simple matrix-vector product" — and answers bitwise what
// evaluating the cluster's regressions on the full feature rows would.
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

  /// Full online prediction: classify, then apply the cluster's table
  /// rows to the two sample powers at every configuration.
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
  /// The request-independent part of one (cluster, configuration)
  /// estimate. Power is intercept + dot(slopes, power_features); the dot's
  /// eight configuration-only terms are folded into `power_partial` in its
  /// left-to-right order, and predict() adds the four sample terms after
  /// them in the same order.
  struct Row {
    double power_partial = 0.0;
    double dev = 0.0;         ///< 1 on GPU configurations, else 0
    double perf_ratio = 0.0;  ///< max(1e-6, perf model at the config)
  };

  std::vector<ClusterModel> clusters_;
  stats::Cart tree_;
  hw::ConfigSpace space_;
  /// cluster_count() x config_space().size(), cluster-major.
  std::vector<Row> table_;
};

/// Wraps a concrete model into the shared-ownership interface form every
/// consumer takes (registries, runtimes, fleets hold PredictorPtr).
inline PredictorPtr make_predictor(TrainedModel model) {
  return std::make_shared<const TrainedModel>(std::move(model));
}

}  // namespace acsel::core
