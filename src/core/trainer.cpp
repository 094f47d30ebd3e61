#include "core/trainer.h"

#include <optional>
#include <utility>
#include <vector>

#include "core/features.h"
#include "exec/parallel_for.h"
#include "exec/task_group.h"
#include "hw/config_space.h"
#include "obs/trace.h"
#include "pareto/dissimilarity.h"
#include "util/error.h"
#include "util/log.h"

namespace acsel::core {

namespace {

/// The per-cluster training rows both estimator families fit on: every
/// member kernel contributes one power row per configuration and one
/// relative-performance row per configuration of the matching device.
struct ClusterRows {
  std::vector<std::vector<double>> power_rows;
  std::vector<double> power_y;
  std::vector<std::vector<double>> cpu_rows;
  std::vector<double> cpu_y;
  std::vector<std::vector<double>> gpu_rows;
  std::vector<double> gpu_y;
};

ClusterRows collect_cluster_rows(
    std::span<const KernelCharacterization> kernels,
    const std::vector<std::size_t>& members, const hw::ConfigSpace& space) {
  ClusterRows rows;
  const std::size_t n_configs = space.size();
  for (const std::size_t member : members) {
    const KernelCharacterization& kernel = kernels[member];
    const double s_perf_cpu = kernel.samples.cpu.performance();
    const double s_perf_gpu = kernel.samples.gpu.performance();
    for (std::size_t i = 0; i < n_configs; ++i) {
      const hw::Configuration& config = space.at(i);
      const profile::KernelRecord& record = kernel.per_config[i];

      rows.power_rows.push_back(power_features(config, kernel.samples));
      rows.power_y.push_back(record.total_power_w());

      const auto pf = perf_features(config);
      if (config.device == hw::Device::Cpu) {
        rows.cpu_rows.push_back(pf);
        rows.cpu_y.push_back(record.performance() / s_perf_cpu);
      } else {
        rows.gpu_rows.push_back(pf);
        rows.gpu_y.push_back(record.performance() / s_perf_gpu);
      }
    }
  }
  return rows;
}

linalg::Matrix to_matrix(const std::vector<std::vector<double>>& rows) {
  ACSEL_CHECK(!rows.empty());
  linalg::Matrix m{rows.size(), rows.front().size()};
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      m(r, c) = rows[r][c];
    }
  }
  return m;
}

/// Fits one cluster's power and performance regressions from its member
/// kernels' full characterizations.
TrainedModel::Trio fit_cluster(
    std::span<const KernelCharacterization> kernels,
    const std::vector<std::size_t>& members, const hw::ConfigSpace& space,
    const TrainerOptions& options) {
  const ClusterRows rows = collect_cluster_rows(kernels, members, space);

  linalg::RegressionOptions power_opts;
  power_opts.intercept = true;
  power_opts.transform = options.transform;
  power_opts.ridge = options.ridge;

  linalg::RegressionOptions perf_opts;
  // The constant column in perf_features() plays the role of the model's
  // leading coefficient; no separate intercept (§III-B formulation).
  perf_opts.intercept = false;
  perf_opts.transform = options.transform;
  perf_opts.ridge = options.ridge;

  TrainedModel::Trio model;
  model.power = linalg::LinearModel::fit(to_matrix(rows.power_rows),
                                         rows.power_y, power_opts);
  model.perf_cpu =
      linalg::LinearModel::fit(to_matrix(rows.cpu_rows), rows.cpu_y,
                               perf_opts);
  model.perf_gpu =
      linalg::LinearModel::fit(to_matrix(rows.gpu_rows), rows.gpu_y,
                               perf_opts);
  return model;
}

/// Fits one cluster's GP surrogates on the same rows the linear models
/// see.
GpPredictor::Trio fit_cluster_gp(
    std::span<const KernelCharacterization> kernels,
    const std::vector<std::size_t>& members, const hw::ConfigSpace& space,
    const TrainerOptions& options) {
  const ClusterRows rows = collect_cluster_rows(kernels, members, space);
  GpPredictor::Trio surrogate;
  surrogate.power = GpRegressor::fit(to_matrix(rows.power_rows), rows.power_y,
                                     options.gp, options.gp_max_rows);
  surrogate.perf_cpu = GpRegressor::fit(to_matrix(rows.cpu_rows), rows.cpu_y,
                                        options.gp, options.gp_max_rows);
  surrogate.perf_gpu = GpRegressor::fit(to_matrix(rows.gpu_rows), rows.gpu_y,
                                        options.gp, options.gp_max_rows);
  return surrogate;
}

}  // namespace

const char* to_string(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::ClusterCart:
      return "cluster-cart";
    case PredictorKind::GaussianProcess:
      return "gp-sqexp";
  }
  return "?";
}

TrainingResult train(std::span<const KernelCharacterization> kernels,
                     const TrainerOptions& options,
                     exec::Executor& executor) {
  const hw::ConfigSpace space;
  ACSEL_CHECK_MSG(kernels.size() >= options.clusters,
                  "need at least as many training kernels as clusters");
  ACSEL_CHECK_MSG(options.clusters >= 1, "need at least one cluster");
  for (const auto& kernel : kernels) {
    kernel.validate(space.size());
  }

  // 1. Pareto frontier per training kernel.
  const std::vector<pareto::ParetoFrontier> frontiers = [&] {
    ACSEL_OBS_SPAN("train.frontiers", "trainer");
    return exec::parallel_map(executor, kernels.size(), [&](std::size_t i) {
      return kernels[i].frontier();
    });
  }();

  // 2. Frontier-order dissimilarity matrix; 3. PAM relational clustering.
  // The O(K²·C²) Kendall comparisons dominate; the matrix build
  // distributes rows over the executor.
  const linalg::Matrix dissimilarity = [&] {
    ACSEL_OBS_SPAN("train.dissimilarity", "trainer");
    return pareto::dissimilarity_matrix(frontiers, options.dissimilarity,
                                        executor);
  }();
  const stats::PamResult clustering = [&] {
    ACSEL_OBS_SPAN("train.cluster", "trainer");
    return stats::pam(dissimilarity, options.clusters);
  }();

  // 4. Per-cluster regressions and 5. the classification tree are
  // independent given the clustering, so they run concurrently: each fit
  // writes only its own slot and results are collected in cluster order.
  std::vector<std::vector<std::size_t>> members(options.clusters);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    members[clustering.assignment[i]].push_back(i);
  }
  for (std::size_t c = 0; c < options.clusters; ++c) {
    ACSEL_CHECK_MSG(!members[c].empty(), "PAM produced an empty cluster");
  }

  std::vector<std::optional<TrainedModel::Trio>> fit_slots(options.clusters);
  std::optional<stats::Cart> tree_slot;
  {
    ACSEL_OBS_SPAN("train.fits", "trainer");
    exec::TaskGroup group{executor};
    for (std::size_t c = 0; c < options.clusters; ++c) {
      group.spawn([&, c] {
        ACSEL_OBS_SPAN("train.regression", "trainer");
        fit_slots[c].emplace(fit_cluster(kernels, members[c], space, options));
      });
    }
    group.spawn([&] {
      ACSEL_OBS_SPAN("train.cart", "trainer");
      linalg::Matrix tree_x{kernels.size(),
                            classification_feature_names().size()};
      std::vector<std::size_t> tree_labels(kernels.size());
      for (std::size_t i = 0; i < kernels.size(); ++i) {
        const auto features = classification_features(kernels[i].samples);
        for (std::size_t j = 0; j < features.size(); ++j) {
          tree_x(i, j) = features[j];
        }
        tree_labels[i] = clustering.assignment[i];
      }
      tree_slot.emplace(stats::Cart::fit(tree_x, tree_labels, options.tree,
                                         classification_feature_names()));
    });
    group.wait();
  }

  std::vector<TrainedModel::Trio> cluster_models;
  cluster_models.reserve(options.clusters);
  for (std::size_t c = 0; c < options.clusters; ++c) {
    cluster_models.push_back(std::move(*fit_slots[c]));
  }
  stats::Cart tree = std::move(*tree_slot);

  TrainingReport report;
  report.clustering = clustering;
  report.silhouette =
      options.clusters > 1
          ? stats::silhouette(dissimilarity, clustering.assignment)
          : 0.0;
  for (std::size_t c = 0; c < options.clusters; ++c) {
    report.cluster_sizes.push_back(members[c].size());
    report.power_r2.push_back(cluster_models[c].power.r_squared());
    report.perf_cpu_r2.push_back(cluster_models[c].perf_cpu.r_squared());
    report.perf_gpu_r2.push_back(cluster_models[c].perf_gpu.r_squared());
  }
  report.tree_training_accuracy = tree.training_accuracy();

  ACSEL_LOG_INFO("trained model: " << options.clusters << " clusters from "
                                   << kernels.size() << " kernels");
  return TrainingResult{TrainedModel{std::move(cluster_models),
                                     std::move(tree)},
                        std::move(report)};
}

PredictorTraining train_predictor(
    std::span<const KernelCharacterization> kernels,
    const TrainerOptions& options, exec::Executor& executor) {
  // The clustering, classification tree, and diagnostics are shared by
  // every family; the per-cluster estimators differ.
  TrainingResult base = train(kernels, options, executor);
  if (options.predictor == PredictorKind::ClusterCart) {
    return PredictorTraining{make_predictor(std::move(base.model)),
                             std::move(base.report)};
  }

  const hw::ConfigSpace space;
  std::vector<std::vector<std::size_t>> members(options.clusters);
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    members[base.report.clustering.assignment[i]].push_back(i);
  }
  std::vector<std::optional<GpPredictor::Trio>> slots(
      options.clusters);
  {
    ACSEL_OBS_SPAN("train.gp_fits", "trainer");
    exec::TaskGroup group{executor};
    for (std::size_t c = 0; c < options.clusters; ++c) {
      group.spawn([&, c] {
        ACSEL_OBS_SPAN("train.gp", "trainer");
        slots[c].emplace(fit_cluster_gp(kernels, members[c], space, options));
      });
    }
    group.wait();
  }
  std::vector<GpPredictor::Trio> surrogates;
  surrogates.reserve(options.clusters);
  for (std::size_t c = 0; c < options.clusters; ++c) {
    surrogates.push_back(std::move(*slots[c]));
  }
  ACSEL_LOG_INFO("trained GP surrogate: " << options.clusters
                                          << " clusters from "
                                          << kernels.size() << " kernels");
  return PredictorTraining{
      std::make_shared<const GpPredictor>(std::move(surrogates),
                                          stats::Cart{base.model.tree()}),
      std::move(base.report)};
}

}  // namespace acsel::core
