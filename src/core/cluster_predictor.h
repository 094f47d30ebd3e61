// The shape both predictor families share (§III-B): per cluster, one
// regressor for absolute power and one per device for relative
// performance, behind a CART that assigns a kernel to a cluster from its
// two sample runs. ClusterPredictor<Regressor> holds that trio vector,
// the tree and the configuration space, classifies, and writes and reads
// the serialized body:
//
//   clusters <k>
//   <power line>       k times these three lines, each one
//   <perf_cpu line>    Regressor::serialize() line
//   <perf_gpu line>
//   tree
//   <stats::Cart::serialize() text>
//
// A family derives from it, tabulates what its estimates need in its
// constructor and implements predict(). The members are instantiated in
// cluster_predictor.cpp for the two families' regressors:
// linalg::LinearModel (TrainedModel) and GpRegressor (GpPredictor).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/characterization.h"
#include "core/predictor.h"
#include "hw/config_space.h"
#include "stats/cart.h"

namespace acsel::core {

template <typename Regressor>
struct ClusterTrio {
  Regressor power;     ///< watts over power_features(config, samples)
  Regressor perf_cpu;  ///< perf / S_perf_cpu over CPU perf_features
  Regressor perf_gpu;  ///< perf / S_perf_gpu over GPU perf_features
};

template <typename Regressor>
class ClusterPredictor : public Predictor {
 public:
  using Trio = ClusterTrio<Regressor>;

  /// What serialize_body() writes: a family's constructor arguments.
  struct Body {
    std::vector<Trio> clusters;
    stats::Cart tree;
  };
  /// Reads serialize_body()'s text back. Throws acsel::Error on truncated
  /// or malformed text; the family's constructor checks the rest.
  static Body read_body(const std::string& text);

  std::size_t cluster_count() const override { return clusters_.size(); }
  const hw::ConfigSpace& config_space() const override { return space_; }
  const Trio& cluster(std::size_t index) const;
  const stats::Cart& tree() const { return tree_; }

  /// Tree application costs O(depth) (§IV-C).
  std::size_t classify(const SamplePair& samples) const override;

  std::string serialize_body() const override;

 protected:
  ClusterPredictor() = default;
  /// Throws acsel::Error on an empty cluster list or a tree over other
  /// features than classification_features.
  ClusterPredictor(std::vector<Trio> clusters, stats::Cart tree);

  std::vector<Trio> clusters_;
  stats::Cart tree_;
  hw::ConfigSpace space_;
};

}  // namespace acsel::core
