#include "core/gp_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "core/features.h"
#include "linalg/tile_solve.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/strings.h"

namespace acsel::core {

namespace {

double squared_distance(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return sum;
}

/// Median pairwise distance over (a deterministic prefix of) the rows —
/// the standard length-scale heuristic when none is given.
double median_distance(const linalg::Matrix& x) {
  const std::size_t n = std::min<std::size_t>(x.rows(), 64);
  std::vector<double> distances;
  distances.reserve(n * (n - 1) / 2 + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      distances.push_back(std::sqrt(squared_distance(x.row(i), x.row(j))));
    }
  }
  if (distances.empty()) {
    return 1.0;
  }
  const std::size_t mid = distances.size() / 2;
  std::nth_element(distances.begin(),
                   distances.begin() + static_cast<std::ptrdiff_t>(mid),
                   distances.end());
  const double median = distances[mid];
  return median > 0.0 ? median : 1.0;
}

}  // namespace

GpRegressor GpRegressor::fit(const linalg::Matrix& x,
                             std::span<const double> y,
                             const GpHyperparams& hp, std::size_t max_rows) {
  ACSEL_CHECK_MSG(x.rows() == y.size() && x.rows() > 0 && x.cols() > 0,
                  "GpRegressor::fit: shape mismatch or empty data");
  ACSEL_CHECK_MSG(max_rows > 0 && max_rows <= kMaxTrainingRows,
                  "GpRegressor::fit: max_rows not in [1, kMaxTrainingRows]");

  GpRegressor gp;
  if (x.rows() <= max_rows) {
    gp.x_ = x;
    gp.y_.assign(y.begin(), y.end());
  } else {
    // Deterministic stride subsample: index order is the training-row
    // order, which the trainer builds identically at any thread count.
    const std::size_t stride = (x.rows() + max_rows - 1) / max_rows;
    const std::size_t kept = (x.rows() + stride - 1) / stride;
    gp.x_ = linalg::Matrix{kept, x.cols()};
    gp.y_.reserve(kept);
    std::size_t out = 0;
    for (std::size_t i = 0; i < x.rows(); i += stride, ++out) {
      const auto row = x.row(i);
      for (std::size_t c = 0; c < x.cols(); ++c) {
        gp.x_(out, c) = row[c];
      }
      gp.y_.push_back(y[i]);
    }
  }

  gp.length_scale_ =
      hp.length_scale > 0.0 ? hp.length_scale : median_distance(gp.x_);

  if (hp.signal_variance > 0.0) {
    gp.signal_variance_ = hp.signal_variance;
  } else {
    const std::size_t n = gp.y_.size();
    double mean = 0.0;
    for (const double v : gp.y_) mean += v;
    mean /= static_cast<double>(n);
    double var = 0.0;
    for (const double v : gp.y_) var += (v - mean) * (v - mean);
    var /= static_cast<double>(n);
    gp.signal_variance_ = std::max(var, 1e-12);
  }

  const double fraction = hp.noise_fraction > 0.0 ? hp.noise_fraction : 1e-6;
  gp.noise_variance_ = std::max(gp.signal_variance_ * fraction,
                                gp.signal_variance_ * 1e-10);
  gp.finalize();
  return gp;
}

void GpRegressor::finalize() {
  const std::size_t n = y_.size();
  y_mean_ = 0.0;
  for (const double v : y_) y_mean_ += v;
  y_mean_ /= static_cast<double>(n);

  inv_2l2_ = 1.0 / (2.0 * length_scale_ * length_scale_);

  // Only the lower triangle: it is all the factorization reads.
  linalg::Matrix k{n, n};
  const std::size_t d = x_.cols();
  const double* const x = x_.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<double> ki = k.row(i);
    const std::span<const double> xi{x + i * d, d};
    ki[i] = signal_variance_ + noise_variance_;
    for (std::size_t j = 0; j < i; ++j) {
      ki[j] = kernel(xi, {x + j * d, d});
    }
  }
  const linalg::CholeskyFactorization chol{k};
  l_ = chol.l();
  std::vector<double> centered(n);
  for (std::size_t i = 0; i < n; ++i) {
    centered[i] = y_[i] - y_mean_;
  }
  alpha_ = chol.solve(centered);
}

GpRegressor::MeanVariance GpRegressor::predict(
    std::span<const double> features) const {
  linalg::Matrix point{1, features.size()};
  std::copy(features.begin(), features.end(), point.row(0).begin());
  return predict_rows(point).front();
}

std::vector<GpRegressor::MeanVariance> GpRegressor::predict_rows(
    const linalg::Matrix& points) const {
  ACSEL_CHECK_MSG(y_.empty() || points.cols() == x_.cols(),
                  "GpRegressor::predict: feature count mismatch");
  const std::size_t n = y_.size();
  const std::size_t d = x_.cols();
  const double* const x = x_.data().data();
  std::vector<double> block(n * points.rows());
  for (std::size_t c = 0; c < points.rows(); ++c) {
    const std::span<const double> point = points.row(c);
    for (std::size_t i = 0; i < n; ++i) {
      block[c * n + i] = kernel({x + i * d, d}, point);
    }
  }
  const KernelColumns columns = kernel_columns(std::move(block));
  std::vector<std::size_t> all(points.rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const std::vector<double> variance = variances(columns, all);
  std::vector<MeanVariance> out(points.rows());
  for (std::size_t c = 0; c < out.size(); ++c) {
    out[c] = {columns.means[c], variance[c]};
  }
  return out;
}

double GpRegressor::kernel(std::span<const double> a,
                           std::span<const double> b) const {
  if (a.size() <= kHeadFeatures) {
    return head_factor(squared_distance(a, b));
  }
  return head_factor(squared_distance(a.first(kHeadFeatures),
                                      b.first(kHeadFeatures))) *
         tail_factor(squared_distance(a.subspan(kHeadFeatures),
                                      b.subspan(kHeadFeatures)));
}

GpRegressor::KernelColumns GpRegressor::kernel_columns(
    std::vector<double> kernel) const {
  ACSEL_CHECK_MSG(!y_.empty(), "GpRegressor::predict before fit/parse");
  const std::size_t n = y_.size();
  ACSEL_CHECK_MSG(kernel.size() % n == 0,
                  "GpRegressor::kernel_columns: partial kernel column");
  const std::size_t m = kernel.size() / n;
  // Every mean is summed in i order from 0.0, as linalg::dot sums, so it
  // is bitwise the single-point result.
  KernelColumns out{std::move(kernel), std::vector<double>(m)};
  for (std::size_t c = 0; c < m; ++c) {
    const double* const column = out.kernel.data() + c * n;
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      mean += column[i] * alpha_[i];
    }
    out.means[c] = y_mean_ + mean;
  }
  return out;
}

std::vector<double> GpRegressor::variances(
    const KernelColumns& columns, std::span<const std::size_t> points) const {
  const std::size_t n = y_.size();
  const std::size_t m = columns.means.size();
  ACSEL_CHECK_MSG(!y_.empty() && columns.kernel.size() == n * m,
                  "GpRegressor::variances: kernel columns of another GP");
  const linalg::TileSolve& solve = linalg::tile_solve();
  const std::size_t width = solve.tile_columns;

  // var = k(x*,x*) + noise - |L⁻¹ k*|² — the posterior shrinks toward the
  // noise floor at training points and opens to signal + noise far away.
  // Row i of the n × width block holds k(x_i, point) for the tile's
  // points, one per column; the tiled solve overwrites it with
  // v = L⁻¹ k* and sums each column's |v|² in the operation order of a
  // single-column solve. A last, partial tile's unused columns are 0.
  std::vector<double> block(n * width);
  std::vector<double> reduction(width);
  std::vector<double> out(points.size());
  for (std::size_t p0 = 0; p0 < points.size(); p0 += width) {
    const std::size_t count = std::min(width, points.size() - p0);
    if (count < width) {
      std::fill(block.begin(), block.end(), 0.0);
    }
    for (std::size_t t = 0; t < count; ++t) {
      const std::size_t point = points[p0 + t];
      ACSEL_CHECK_MSG(point < m, "GpRegressor::variances: point out of range");
      const double* const k = columns.kernel.data() + point * n;
      for (std::size_t i = 0; i < n; ++i) {
        block[i * width + t] = k[i];
      }
    }
    std::fill(reduction.begin(), reduction.end(), 0.0);
    solve.solve(l_, block, width, reduction);
    for (std::size_t t = 0; t < count; ++t) {
      out[p0 + t] =
          std::max(0.0, signal_variance_ + noise_variance_ - reduction[t]);
    }
  }
  return out;
}

std::string GpRegressor::serialize() const {
  ACSEL_CHECK_MSG(!y_.empty(), "GpRegressor::serialize before fit/parse");
  std::ostringstream os;
  os << x_.rows() << ' ' << x_.cols() << ' '
     << format_double(length_scale_, 17) << ' '
     << format_double(signal_variance_, 17) << ' '
     << format_double(noise_variance_, 17);
  for (std::size_t r = 0; r < x_.rows(); ++r) {
    for (std::size_t c = 0; c < x_.cols(); ++c) {
      os << ' ' << format_double(x_(r, c), 17);
    }
  }
  for (const double v : y_) {
    os << ' ' << format_double(v, 17);
  }
  return os.str();
}

GpRegressor GpRegressor::parse(const std::string& line) {
  const std::vector<std::string> fields = split(trim(line), ' ');
  ACSEL_CHECK_MSG(fields.size() >= 5, "GpRegressor::parse: truncated line");
  GpRegressor gp;
  const std::size_t n = parse_size(fields[0]);
  const std::size_t d = parse_size(fields[1]);
  ACSEL_CHECK_MSG(n > 0 && d > 0, "GpRegressor::parse: empty shape");
  ACSEL_CHECK_MSG(n <= kMaxTrainingRows,
                  "GpRegressor::parse: more than kMaxTrainingRows rows");
  gp.length_scale_ = parse_double(fields[2]);
  gp.signal_variance_ = parse_double(fields[3]);
  gp.noise_variance_ = parse_double(fields[4]);
  ACSEL_CHECK_MSG(gp.length_scale_ > 0.0 && gp.signal_variance_ > 0.0 &&
                      gp.noise_variance_ > 0.0,
                  "GpRegressor::parse: non-positive hyperparameter");
  // n rows of d inputs plus n targets, checked without overflow so a
  // shape the line does not hold never reaches the allocator.
  const std::size_t values = fields.size() - 5;
  ACSEL_CHECK_MSG(d < values && values % (d + 1) == 0 &&
                      values / (d + 1) == n,
                  "GpRegressor::parse: field count mismatch");
  gp.x_ = linalg::Matrix{n, d};
  std::size_t f = 5;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < d; ++c) {
      gp.x_(r, c) = parse_double(fields[f++]);
    }
  }
  gp.y_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    gp.y_.push_back(parse_double(fields[f++]));
  }
  gp.finalize();
  return gp;
}

GpPredictor::GpPredictor(std::vector<Trio> clusters, stats::Cart tree)
    : ClusterPredictor(std::move(clusters), std::move(tree)) {
  const std::size_t perf_d = perf_feature_names().size();
  for (const Trio& surrogate : clusters_) {
    ACSEL_CHECK_MSG(
        surrogate.power.feature_count() == power_feature_names().size() &&
            surrogate.perf_cpu.feature_count() == perf_d &&
            surrogate.perf_gpu.feature_count() == perf_d,
        "GP feature count mismatch");
  }

  // Terms 0-7 of power_features do not read the samples, so any sample
  // pair yields the head factors.
  const std::size_t n = space_.size();
  const SamplePair no_samples{};
  power_heads_.reserve(clusters_.size());
  for (const Trio& surrogate : clusters_) {
    const GpRegressor& gp = surrogate.power;
    const linalg::Matrix& x = gp.inputs();
    std::vector<double> heads(n * x.rows());
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double> pf = power_features(space_.at(i), no_samples);
      const std::span<const double> terms{pf.data(),
                                          GpRegressor::kHeadFeatures};
      for (std::size_t t = 0; t < x.rows(); ++t) {
        heads[i * x.rows() + t] = gp.head_factor(squared_distance(
            x.row(t).first(GpRegressor::kHeadFeatures), terms));
      }
    }
    power_heads_.push_back(std::move(heads));
  }

  // One batched pass per (cluster, device) over that device's
  // configurations fills the performance table.
  perf_table_.resize(clusters_.size() * n);
  for (const hw::Device device : {hw::Device::Cpu, hw::Device::Gpu}) {
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < n; ++i) {
      if (space_.at(i).device == device) {
        indices.push_back(i);
      }
    }
    linalg::Matrix points{indices.size(), perf_d};
    for (std::size_t r = 0; r < indices.size(); ++r) {
      const std::vector<double> features = perf_features(space_.at(indices[r]));
      std::copy(features.begin(), features.end(), points.row(r).begin());
    }
    for (std::size_t c = 0; c < clusters_.size(); ++c) {
      const GpRegressor& gp = device == hw::Device::Gpu
                                  ? clusters_[c].perf_gpu
                                  : clusters_[c].perf_cpu;
      const std::vector<GpRegressor::MeanVariance> posteriors =
          gp.predict_rows(points);
      for (std::size_t r = 0; r < indices.size(); ++r) {
        perf_table_[c * n + indices[r]] = {
            std::max(1e-6, posteriors[r].mean),
            std::sqrt(posteriors[r].variance)};
      }
    }
  }
}

Prediction GpPredictor::predict(const SamplePair& samples) const {
  ACSEL_OBS_SPAN("predict", "model");
  Prediction prediction;
  prediction.cluster = classify(samples);

  const std::size_t n = space_.size();
  const GpRegressor& power_gp = clusters_[prediction.cluster].power;
  const linalg::Matrix& x = power_gp.inputs();
  const std::size_t rows = x.rows();
  // Terms 8-11 of power_features read only the samples and the device,
  // so each device has one row of tail factors, formed at any of its
  // configurations: tails[g * rows + t] for device g (1 = GPU) and
  // training row t.
  std::vector<double> tails(2 * rows);
  const hw::Configuration on_device[2] = {space_.cpu_sample(),
                                          space_.gpu_sample()};
  for (std::size_t g = 0; g < 2; ++g) {
    const std::vector<double> pf = power_features(on_device[g], samples);
    const std::span<const double> terms =
        std::span<const double>{pf}.subspan(GpRegressor::kHeadFeatures);
    for (std::size_t t = 0; t < rows; ++t) {
      tails[g * rows + t] = power_gp.tail_factor(squared_distance(
          x.row(t).subspan(GpRegressor::kHeadFeatures), terms));
    }
  }
  // Each kernel value is its tabulated head times its device's tail, as
  // GpRegressor::kernel multiplies them.
  const double* const heads = power_heads_[prediction.cluster].data();
  std::vector<double> block(n * rows);
  for (std::size_t c = 0; c < n; ++c) {
    const double* const head = heads + c * rows;
    const double* const tail =
        tails.data() + (space_.at(c).device == hw::Device::Gpu ? rows : 0);
    double* const column = block.data() + c * rows;
    for (std::size_t t = 0; t < rows; ++t) {
      column[t] = head[t] * tail[t];
    }
  }
  const GpRegressor::KernelColumns power_k =
      power_gp.kernel_columns(std::move(block));
  const PerfRow* const perf_rows = perf_table_.data() + prediction.cluster * n;
  const double s_perf_cpu = samples.cpu.performance();
  const double s_perf_gpu = samples.gpu.performance();
  // Off the frontier, power_sigma is the prior sd: the bound every
  // posterior sd stays under (see the class comment).
  const double prior_sigma =
      std::sqrt(power_gp.signal_variance() + power_gp.noise_variance());

  prediction.per_config.reserve(n);
  std::vector<double> power(n);
  std::vector<double> perf(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double s_perf =
        space_.at(i).device == hw::Device::Gpu ? s_perf_gpu : s_perf_cpu;
    Estimate estimate;
    estimate.power_w = std::max(1.0, power_k.means[i]);
    estimate.power_sigma = prior_sigma;
    estimate.performance = perf_rows[i].ratio * s_perf;
    estimate.performance_sigma = perf_rows[i].sigma * s_perf;

    power[i] = estimate.power_w;
    perf[i] = estimate.performance;
    prediction.per_config.push_back(estimate);
  }
  prediction.frontier = pareto::ParetoFrontier::build(power, perf);

  // The power variance is solved only where the decision reads it.
  std::vector<std::size_t> frontier_configs;
  frontier_configs.reserve(prediction.frontier.size());
  for (const pareto::FrontierPoint& point : prediction.frontier.points()) {
    frontier_configs.push_back(point.config_index);
  }
  const std::vector<double> variance =
      power_gp.variances(power_k, frontier_configs);
  for (std::size_t p = 0; p < frontier_configs.size(); ++p) {
    prediction.per_config[frontier_configs[p]].power_sigma =
        std::sqrt(variance[p]);
  }
  return prediction;
}

}  // namespace acsel::core
