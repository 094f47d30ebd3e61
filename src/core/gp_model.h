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

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/characterization.h"
#include "core/cluster_predictor.h"
#include "core/predictor.h"
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
/// mean) and exact posterior via Cholesky, under a squared-exponential
/// kernel written as a product of two factors. With c = 1/2ℓ², h the
/// squared distance over features [0, kHeadFeatures) and t the squared
/// distance over the rest:
///
///   k(a,b) = head_factor(h) · tail_factor(t) = (s² exp(-h·c)) · exp(-t·c).
///
/// A GP of at most kHeadFeatures features has no tail, and k is the head
/// factor alone: s² exp(-|a-b|²·c). kernel() is the one definition; the
/// kernel matrix, every pointwise posterior and GpPredictor's tabulated
/// heads all go through it or its two factors. Posteriors are evaluated
/// in two steps over a block of query points: kernel_columns() takes every
/// point's kernel column and forms its posterior mean, and variances()
/// runs the forward solve for only the points a caller lists.
/// predict_rows() is both steps over every point, and predict() is its
/// one-row case.
class GpRegressor {
 public:
  GpRegressor() = default;

  /// Most training rows a GP may hold: fit() refuses a larger
  /// `max_rows` and parse() a larger row count, so the n × n factor and
  /// its O(n³) factorization stay bounded whatever a text claims (4× the
  /// trainer's default of 256).
  static constexpr std::size_t kMaxTrainingRows = 1024;

  /// Fits on rows of `x` against `y`. Rows beyond `max_rows` (at most
  /// kMaxTrainingRows) are deterministically strided down — O(n³)
  /// factorization cost is bounded regardless of training-set size.
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
  /// row order: kernel_columns() of the points' kernel() columns, then
  /// variances() of every point. Row r is bitwise equal to predict(row r).
  std::vector<MeanVariance> predict_rows(const linalg::Matrix& points) const;

  /// Features [0, kHeadFeatures) feed the head factor and the rest the
  /// tail factor: for the power GP, the configuration-only terms of
  /// power_features and the sample terms.
  static constexpr std::size_t kHeadFeatures = 8;

  /// s² exp(-h·c) of a squared head distance h.
  double head_factor(double squared) const {
    return signal_variance_ * std::exp(-squared * inv_2l2_);
  }
  /// exp(-t·c) of a squared tail distance t.
  double tail_factor(double squared) const {
    return std::exp(-squared * inv_2l2_);
  }
  /// k(a,b): head_factor of the squared distance over the first
  /// kHeadFeatures features, times tail_factor of the squared distance
  /// over the rest when there are more. Each squared distance is summed
  /// from 0.0 in feature order.
  double kernel(std::span<const double> a, std::span<const double> b) const;

  /// Kernel columns and posterior means of m query points.
  struct KernelColumns {
    /// k(x_i, point c) at c * training_rows() + i: one contiguous column
    /// per point.
    std::vector<double> kernel;
    /// Posterior mean of each point, in point order.
    std::vector<double> means;
  };

  /// Takes m kernel columns (kernel.size() == m * training_rows()) and
  /// forms their posterior means: the m × n block times the dual weights.
  /// Each mean is summed in training-row order from 0.0, as a
  /// single-point posterior sums it.
  KernelColumns kernel_columns(std::vector<double> kernel) const;

  /// Predictive variances of the listed points of `columns`, in list
  /// order. The listed columns are gathered, tile_columns at a time, into
  /// one n × tile block, and each tile takes one forward solve
  /// (linalg/tile_solve.h), so the factor is read once per tile rather
  /// than once per point. Each column keeps the operation order of a
  /// single-point solve, so a point's variance does not depend on which
  /// other points are listed or on the tile width.
  std::vector<double> variances(const KernelColumns& columns,
                                std::span<const std::size_t> points) const;

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
  double inv_2l2_ = 0.5;       ///< 1/2ℓ²
  double y_mean_ = 0.0;
  std::vector<double> alpha_;  ///< K⁻¹ (y - mean)
  linalg::Matrix l_;           ///< Cholesky factor of K
};

extern template class ClusterPredictor<GpRegressor>;

/// The GP-family predictor: the same cluster trio, CART front end and body
/// text as TrainedModel (core/cluster_predictor.h; the cluster assignment
/// problem is unchanged) with a GP posterior in each trio slot — absolute
/// power over power_features, and per-device relative performance over
/// perf_features.
///
/// The constructor (which train_predictor() and parse_predictor() go
/// through) tabulates what depends on the configuration only:
///  * the performance posteriors, per (cluster, configuration), one
///    predict_rows() call per (cluster, device);
///  * per cluster, the power GP's head factor between every
///    configuration and every training row: power_features terms 0-7 do
///    not read the samples, so neither does the head.
/// The tail, over terms 8-11, depends on the samples and the device only.
/// So predict() forms one tail factor per (device, training row), 2n
/// exp calls, takes each configuration's kernel column as its head row
/// times its device's tails, and forms all 54 power means as that 54 × n
/// block times the dual weights (kernel_columns()). It then scales the
/// performance rows by the sample performance and builds the frontier.
/// Only then does it solve power variances, and only at the frontier's
/// configurations: the scheduler and the canary read power_sigma nowhere
/// else. So power_sigma is the posterior sd at every frontier
/// configuration and the prior sd, sqrt(signal_variance + noise_variance),
/// elsewhere; the posterior variance is the prior minus a squared norm,
/// so the prior sd bounds it from above. Every other answer, and every
/// frontier sigma, is bitwise that of a per-point posterior.
class GpPredictor final : public ClusterPredictor<GpRegressor> {
 public:
  /// Envelope tag of this family.
  static constexpr std::string_view kKind = "gp-sqexp";

  /// Throws acsel::Error when a GP's feature count does not match its
  /// feature builder (power_features / perf_features).
  GpPredictor(std::vector<Trio> clusters, stats::Cart tree);

  std::string_view kind() const override { return kKind; }
  Prediction predict(const SamplePair& samples) const override;

 private:
  /// Tabulated performance posterior of one (cluster, configuration),
  /// per unit of sample performance.
  struct PerfRow {
    double ratio = 0.0;  ///< max(1e-6, posterior mean)
    double sigma = 0.0;  ///< sqrt(posterior variance)
  };

  /// cluster-major: row (c, i) at c * space_.size() + i.
  std::vector<PerfRow> perf_table_;
  /// Per cluster, configuration-major: the power GP's head_factor
  /// between configuration i and training row t at i * n + t, n that
  /// GP's training_rows().
  std::vector<std::vector<double>> power_heads_;
};

}  // namespace acsel::core
