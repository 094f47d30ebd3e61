// The trained model: the offline stage's output and the online stage's
// whole world (paper Fig. 1). Its per-cluster regressions, classification
// tree, classify and serialized body are those of every cluster predictor
// (core/cluster_predictor.h); given only a kernel's two sample runs it
// assigns a cluster, predicts power and performance for every
// configuration, and derives the predicted Pareto frontier the scheduler
// walks (§III-C).
//
// Everything in an estimate that does not depend on the request is
// computed once, at construction (train() and parse_predictor() construct
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

#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "core/cluster_predictor.h"
#include "core/predictor.h"
#include "linalg/regression.h"
#include "stats/cart.h"

namespace acsel::core {

extern template class ClusterPredictor<linalg::LinearModel>;

class TrainedModel final : public ClusterPredictor<linalg::LinearModel> {
 public:
  /// Envelope tag of this family (per-cluster regression behind a CART).
  static constexpr std::string_view kKind = "cluster-cart";

  TrainedModel() = default;
  TrainedModel(std::vector<Trio> clusters, stats::Cart tree);

  std::string_view kind() const override { return kKind; }

  /// Full online prediction: classify, then apply the cluster's table
  /// rows to the two sample powers at every configuration.
  Prediction predict(const SamplePair& samples) const override;

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

  /// cluster_count() x config_space().size(), cluster-major.
  std::vector<Row> table_;
};

/// Wraps a concrete model into the shared-ownership interface form every
/// consumer takes (registries, runtimes, fleets hold PredictorPtr).
inline PredictorPtr make_predictor(TrainedModel model) {
  return std::make_shared<const TrainedModel>(std::move(model));
}

}  // namespace acsel::core
