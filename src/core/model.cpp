#include "core/model.h"

#include <algorithm>
#include <array>
#include <span>

#include "core/features.h"
#include "obs/trace.h"
#include "util/error.h"

namespace acsel::core {

TrainedModel::TrainedModel(std::vector<Trio> clusters, stats::Cart tree)
    : ClusterPredictor(std::move(clusters), std::move(tree)) {
  // Terms 0-7 of power_features do not read the samples, so any sample
  // pair yields them.
  const SamplePair no_samples{};
  const std::size_t n = space_.size();
  table_.reserve(clusters_.size() * n);
  for (const Trio& cluster : clusters_) {
    // The perf models' count is checked by their predict() below.
    ACSEL_CHECK_MSG(cluster.power.feature_count() ==
                        power_feature_names().size(),
                    "power model feature count mismatch");
    const std::span<const double> w = cluster.power.coefficients();
    for (std::size_t i = 0; i < n; ++i) {
      const hw::Configuration& config = space_.at(i);
      const std::vector<double> pf = power_features(config, no_samples);
      Row row;
      // linalg::dot's accumulation, stopped before the sample terms.
      for (std::size_t k = 0; k < 8; ++k) {
        row.power_partial += w[k] * pf[k];
      }
      row.dev = pf[0];
      const linalg::LinearModel& perf_model =
          config.device == hw::Device::Gpu ? cluster.perf_gpu
                                           : cluster.perf_cpu;
      row.perf_ratio =
          std::max(1e-6, perf_model.predict(perf_features(config)));
      table_.push_back(row);
    }
  }
}

Prediction TrainedModel::predict(const SamplePair& samples) const {
  ACSEL_OBS_SPAN("predict", "model");
  Prediction prediction;
  prediction.cluster = classify(samples);
  const Trio& cluster = clusters_[prediction.cluster];
  const linalg::LinearModel& power_model = cluster.power;
  const double intercept = power_model.intercept();
  const linalg::ResponseTransform transform = power_model.options().transform;
  const double power_sigma = power_model.residual_stddev();
  const std::span<const double> w = power_model.coefficients();
  // Terms 8 and 9 are the scaled sample powers, the same at every
  // configuration.
  const std::vector<double> pf = power_features(space_.at(0), samples);
  const double s_cpu = pf[8];
  const double s_gpu = pf[9];
  const double s_perf_cpu = samples.cpu.performance();
  const double s_perf_gpu = samples.gpu.performance();
  const double perf_sigma_cpu = cluster.perf_cpu.residual_stddev();
  const double perf_sigma_gpu = cluster.perf_gpu.residual_stddev();

  // ConfigSpace always holds kConfigCount configurations.
  std::array<double, hw::kConfigCount> power{};
  std::array<double, hw::kConfigCount> perf{};
  const Row* rows = table_.data() + prediction.cluster * power.size();
  prediction.per_config.resize(power.size());
  for (std::size_t i = 0; i < power.size(); ++i) {
    const Row& row = rows[i];
    // The rest of dot(slopes, power_features): terms 8-11, in feature
    // order, each formed as power_features forms it.
    double sum = row.power_partial;
    sum += w[8] * s_cpu;
    sum += w[9] * s_gpu;
    sum += w[10] * (row.dev * s_gpu);
    sum += w[11] * ((1.0 - row.dev) * s_cpu);
    const bool on_gpu = row.dev == 1.0;
    const double s_perf = on_gpu ? s_perf_gpu : s_perf_cpu;

    Estimate& estimate = prediction.per_config[i];
    estimate.power_w =
        std::max(1.0, linalg::invert_transform(transform, intercept + sum));
    estimate.power_sigma = power_sigma;
    estimate.performance = row.perf_ratio * s_perf;
    estimate.performance_sigma =
        (on_gpu ? perf_sigma_gpu : perf_sigma_cpu) * s_perf;
    power[i] = estimate.power_w;
    perf[i] = estimate.performance;
  }
  prediction.frontier = pareto::ParetoFrontier::build(power, perf);
  return prediction;
}

}  // namespace acsel::core
