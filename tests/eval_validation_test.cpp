// Tests for the prediction-accuracy assessment and the microbenchmark
// training suite.
#include <gtest/gtest.h>

#include "core/trainer.h"
#include "eval/characterize.h"
#include "eval/oracle.h"
#include "eval/validation.h"
#include "hw/config_space.h"
#include "soc/machine.h"
#include "util/error.h"
#include "workloads/microbench.h"
#include "workloads/suite.h"

namespace acsel::eval {
namespace {

/// A prediction that copies the oracle exactly.
core::Prediction perfect_prediction(const Oracle& oracle) {
  core::Prediction prediction;
  for (std::size_t i = 0; i < oracle.power_w.size(); ++i) {
    core::Estimate e;
    e.power_w = oracle.power_w[i];
    e.performance = oracle.performance[i];
    prediction.per_config.push_back(e);
  }
  prediction.frontier = oracle.frontier;
  return prediction;
}

TEST(Validation, PerfectPredictionScoresPerfectly) {
  soc::Machine machine{soc::MachineSpec{}, 1};
  const auto suite = workloads::Suite::standard();
  const Oracle oracle =
      build_oracle(machine, suite.instance("LULESH-Small/CalcQForElems"));
  const auto accuracy =
      assess_prediction(perfect_prediction(oracle), oracle);
  EXPECT_NEAR(accuracy.power_mape, 0.0, 1e-9);
  EXPECT_NEAR(accuracy.perf_mape, 0.0, 1e-9);
  // tau-a counts tied pairs (quantized GPU performance levels produce
  // exact ties) as neither concordant nor discordant, so even a perfect
  // prediction sits marginally below 1.
  EXPECT_GT(accuracy.power_rank_tau, 0.99);
  EXPECT_GT(accuracy.perf_rank_tau, 0.99);
  EXPECT_TRUE(accuracy.best_device_match);
  EXPECT_DOUBLE_EQ(accuracy.top_choice_quality, 1.0);
}

TEST(Validation, ScaledPowerShowsUpInMape) {
  soc::Machine machine{soc::MachineSpec{}, 2};
  const auto suite = workloads::Suite::standard();
  const Oracle oracle =
      build_oracle(machine, suite.instance("LU-Medium/lud"));
  auto prediction = perfect_prediction(oracle);
  for (auto& estimate : prediction.per_config) {
    estimate.power_w *= 1.10;  // uniform +10% power error
  }
  const auto accuracy = assess_prediction(prediction, oracle);
  EXPECT_NEAR(accuracy.power_mape, 10.0, 1e-6);
  EXPECT_GT(accuracy.power_rank_tau, 0.99);  // order unchanged
}

TEST(Validation, WrongTopChoicePenalized) {
  soc::Machine machine{soc::MachineSpec{}, 3};
  const auto suite = workloads::Suite::standard();
  const Oracle oracle =
      build_oracle(machine, suite.instance("LU-Medium/lud"));
  auto prediction = perfect_prediction(oracle);
  // Pretend the lowest-power config is the best performer.
  const std::size_t lowest = oracle.frontier.lowest_power().config_index;
  std::vector<double> power(oracle.power_w.size());
  std::vector<double> perf(oracle.performance.size());
  for (std::size_t i = 0; i < power.size(); ++i) {
    power[i] = prediction.per_config[i].power_w;
    perf[i] = prediction.per_config[i].performance;
  }
  perf[lowest] = 1e9;
  prediction.per_config[lowest].performance = 1e9;
  prediction.frontier = pareto::ParetoFrontier::build(power, perf);
  const auto accuracy = assess_prediction(prediction, oracle);
  EXPECT_LT(accuracy.top_choice_quality, 0.2);
  EXPECT_FALSE(accuracy.best_device_match);  // LU's true best is the GPU
}

TEST(Validation, SummaryAveragesFields) {
  PredictionAccuracy a;
  a.power_mape = 10.0;
  a.best_device_match = true;
  a.top_choice_quality = 1.0;
  PredictionAccuracy b;
  b.power_mape = 30.0;
  b.best_device_match = false;
  b.top_choice_quality = 0.5;
  const auto summary = summarize_accuracy({a, b});
  EXPECT_EQ(summary.kernels, 2u);
  EXPECT_DOUBLE_EQ(summary.power_mape, 20.0);
  EXPECT_DOUBLE_EQ(summary.best_device_match_rate, 0.5);
  EXPECT_DOUBLE_EQ(summary.top_choice_quality, 0.75);
}

TEST(Validation, EmptySummaryIsZero) {
  const auto summary = summarize_accuracy({});
  EXPECT_EQ(summary.kernels, 0u);
  EXPECT_DOUBLE_EQ(summary.power_mape, 0.0);
}

TEST(Validation, SizeMismatchRejected) {
  soc::Machine machine{soc::MachineSpec{}, 4};
  const auto suite = workloads::Suite::standard();
  const Oracle oracle =
      build_oracle(machine, suite.instance("LU-Medium/lud"));
  core::Prediction truncated = perfect_prediction(oracle);
  truncated.per_config.pop_back();
  EXPECT_THROW(assess_prediction(truncated, oracle), Error);
}

// ----------------------------------------------------------- microbench --

TEST(Microbench, GridSizeAndValidity) {
  const auto bench = workloads::microbenchmark_suite(3);
  EXPECT_EQ(bench.kernels.size(), 27u);
  EXPECT_EQ(bench.name, "Micro");
  for (const auto& kernel : bench.kernels) {
    EXPECT_NO_THROW(kernel.traits.validate()) << kernel.name;
  }
  EXPECT_THROW(workloads::microbenchmark_suite(1), Error);
  EXPECT_THROW(workloads::microbenchmark_suite(9), Error);
}

TEST(Microbench, CoversBothDeviceAffinities) {
  // The grid must contain clearly GPU-friendly and clearly CPU-friendly
  // kernels, or it cannot teach the model device selection.
  soc::Machine machine{soc::MachineSpec{}, 5};
  const workloads::Suite micro{{workloads::microbenchmark_suite(3)}};
  const hw::ConfigSpace space;
  std::size_t gpu_best = 0;
  for (const auto& instance : micro.instances()) {
    const Oracle oracle = build_oracle(machine, instance);
    if (space.at(oracle.frontier.best_performance().config_index).device ==
        hw::Device::Gpu) {
      ++gpu_best;
    }
  }
  EXPECT_GE(gpu_best, 5u);
  EXPECT_LE(gpu_best, micro.size() - 5);
}

TEST(Microbench, ModelTrainedOnMicrobenchmarksPredictsApps) {
  // The §III-B claim: microbenchmarks can form the training set. Train on
  // the synthetic grid, validate prediction accuracy on real app kernels.
  soc::Machine machine{soc::MachineSpec{}, 6};
  const workloads::Suite micro{{workloads::microbenchmark_suite(3)}};
  const auto training = characterize(machine, micro);
  const auto model = core::train(training).model;

  const auto apps = workloads::Suite::standard();
  std::vector<PredictionAccuracy> assessments;
  for (const auto& id :
       {"LULESH-Large/CalcFBHourglassForce", "CoMD-LJ/ComputeForce",
        "SMC-Default/ChemistryRates", "LU-Large/lud"}) {
    const auto& instance = apps.instance(id);
    const auto characterization =
        characterize_instance(machine, instance);
    const Oracle oracle = build_oracle(machine, instance);
    assessments.push_back(assess_prediction(
        model.predict(characterization.samples), oracle));
  }
  const auto summary = summarize_accuracy(assessments);
  EXPECT_LT(summary.power_mape, 30.0);
  EXPECT_GT(summary.perf_rank_tau, 0.4);
  EXPECT_GT(summary.top_choice_quality, 0.5);
}

}  // namespace
}  // namespace acsel::eval
