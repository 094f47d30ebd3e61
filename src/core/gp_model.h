// Gaussian-process (kriging) surrogate predictor: the second
// core::Predictor implementation, trained on the same sample pairs and
// per-configuration measurements as the paper's cluster regressions but
// replacing each cluster's linear models with GP posteriors under a
// squared-exponential kernel. Where the linear model reports one global
// residual sigma, the GP's predictive variance *grows with distance from
// the training data* — exactly the signal the risk-averse SelectionPolicy
// and the variance-aware canary gate need near the power cap: a config
// the model has barely seen carries a wide interval and is selected (or
// promoted) more cautiously.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/characterization.h"
#include "core/predictor.h"
#include "hw/config_space.h"
#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "stats/cart.h"

namespace acsel::core {

/// Squared-exponential kernel hyperparameters. Non-positive length_scale /
/// signal_variance mean "resolve from the data at fit time" (median
/// pairwise distance / target variance) — the resolved values are stored
/// and serialized, so a parsed model never re-resolves.
struct GpHyperparams {
  double length_scale = 0.0;
  double signal_variance = 0.0;
  /// Observation-noise variance as a fraction of the signal variance.
  double noise_fraction = 1e-2;
};

/// One scalar GP regression: constant-mean prior (the training-target
/// mean), k(a,b) = s² exp(-|a-b|² / 2ℓ²), exact posterior via Cholesky.
/// Posteriors are evaluated in blocks: predict_distances() solves any
/// number of query points together from their squared distances to the
/// training rows, predict_rows() forms those from the points, and
/// predict() is its one-row case.
class GpRegressor {
 public:
  GpRegressor() = default;

  /// Fits on rows of `x` against `y`. Rows beyond `max_rows` are
  /// deterministically strided down — O(n³) factorization cost is bounded
  /// regardless of training-set size.
  static GpRegressor fit(const linalg::Matrix& x, std::span<const double> y,
                         const GpHyperparams& hp = {},
                         std::size_t max_rows = 256);

  struct MeanVariance {
    double mean = 0.0;
    /// Predictive variance of a new *observation* (posterior + noise);
    /// never negative.
    double variance = 0.0;
  };

  /// Posterior at one feature vector (length == feature_count()).
  MeanVariance predict(std::span<const double> features) const;

  /// Posteriors at every row of `points` (cols == feature_count()), in
  /// row order: predict_distances() over the points' squared distances to
  /// the training rows. Row r is bitwise equal to predict(row r).
  std::vector<MeanVariance> predict_rows(const linalg::Matrix& points) const;

  /// Writes |x_i - point c|² to squared[i] for every training row i,
  /// summed from 0.0 in feature order (squared.size() == training_rows()).
  using DistanceFill =
      std::function<void(std::size_t c, std::span<double> squared)>;

  /// Posteriors at m points given by their squared distances to the
  /// training rows, in point order. One forward solve runs over an
  /// n × m block in column tiles (linalg/tile_solve.h), reading the
  /// factor once per tile rather than once per point; each column keeps
  /// the operation order of a single-point solve, so a point's answer
  /// does not depend on the others or on the tile width.
  std::vector<MeanVariance> predict_distances(std::size_t m,
                                              const DistanceFill& fill) const;

  /// Retained training inputs, n × feature_count().
  const linalg::Matrix& inputs() const { return x_; }
  std::size_t training_rows() const { return x_.rows(); }
  std::size_t feature_count() const { return x_.cols(); }
  double length_scale() const { return length_scale_; }
  double signal_variance() const { return signal_variance_; }
  double noise_variance() const { return noise_variance_; }

  /// One-line serialization; round-trips through parse() with
  /// bit-identical predictions (the factorization is re-derived from the
  /// exactly-restored inputs).
  std::string serialize() const;
  static GpRegressor parse(const std::string& line);

 private:
  /// Rebuilds the kernel matrix, factorization and dual weights from
  /// x_/y_ and the resolved hyperparameters (shared by fit and parse).
  void finalize();

  linalg::Matrix x_;       ///< retained training inputs, n x d
  std::vector<double> y_;  ///< raw targets, length n
  double length_scale_ = 1.0;
  double signal_variance_ = 1.0;
  double noise_variance_ = 1e-2;
  // Derived state (never serialized):
  double y_mean_ = 0.0;
  std::vector<double> alpha_;  ///< K⁻¹ (y - mean)
  linalg::Matrix l_;           ///< Cholesky factor of K
};

/// The GP-family predictor: the same CART front end as TrainedModel (the
/// cluster assignment problem is unchanged) with three GP posteriors per
/// cluster — absolute power over power_features, and per-device relative
/// performance over perf_features.
///
/// The constructor (which train() and both parse paths go through)
/// tabulates what depends on the configuration only:
///  * the performance posteriors, per (cluster, configuration), one
///    predict_rows() call per (cluster, device);
///  * per cluster, the first 8 terms of every squared distance between a
///    configuration's power features and a power-GP training row
///    (power_features terms 0-7 do not read the samples), summed from 0.0
///    in feature order as the distance itself is.
/// predict() then adds only terms 8-11, formed from the samples, to each
/// tabulated prefix, solves the 54 power posteriors in one
/// predict_distances() call, and scales the performance rows by the
/// sample performance; its answers are bitwise those of per-point
/// posteriors.
class GpPredictor final : public Predictor {
 public:
  /// Envelope tag of this family.
  static constexpr std::string_view kKind = "gp-sqexp";

  struct ClusterSurrogate {
    GpRegressor power;     ///< watts over power_features(config, samples)
    GpRegressor perf_cpu;  ///< perf / S_perf_cpu over CPU perf_features
    GpRegressor perf_gpu;  ///< perf / S_perf_gpu over GPU perf_features
  };

  GpPredictor() = default;
  /// Throws acsel::Error when a GP's feature count does not match its
  /// feature builder (power_features / perf_features).
  GpPredictor(std::vector<ClusterSurrogate> clusters, stats::Cart tree);

  std::string_view kind() const override { return kKind; }
  std::size_t cluster_count() const override { return clusters_.size(); }
  const hw::ConfigSpace& config_space() const override { return space_; }
  const ClusterSurrogate& cluster(std::size_t index) const;
  const stats::Cart& tree() const { return tree_; }

  std::size_t classify(const SamplePair& samples) const override;
  Prediction predict(const SamplePair& samples) const override;

  std::string serialize_body() const override;
  static GpPredictor parse(const std::string& text);
  /// Factory hook: body parser behind the "gp-sqexp" envelope tag.
  static PredictorPtr parse_shared(std::uint32_t version,
                                   const std::string& body);

 private:
  /// Tabulated performance posterior of one (cluster, configuration),
  /// per unit of sample performance.
  struct PerfRow {
    double ratio = 0.0;  ///< max(1e-6, posterior mean)
    double sigma = 0.0;  ///< sqrt(posterior variance)
  };

  std::vector<ClusterSurrogate> clusters_;
  stats::Cart tree_;
  hw::ConfigSpace space_;
  /// cluster-major: row (c, i) at c * space_.size() + i.
  std::vector<PerfRow> perf_table_;
  /// Per cluster, configuration-major: the squared distance's terms 0-7
  /// between configuration i and power-GP training row t at
  /// i * n + t, n that GP's training_rows().
  std::vector<std::vector<double>> power_prefix_;
};

}  // namespace acsel::core
