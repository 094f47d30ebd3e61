// Tests for two-application co-scheduling (soc truth + core optimizer)
// and the energy-budget scheduler goal.
#include <gtest/gtest.h>

#include "core/coscheduler.h"
#include "core/scheduler.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "hw/config_space.h"
#include "soc/coschedule.h"
#include "soc/machine.h"
#include "soc/power_model.h"
#include "util/error.h"
#include "workloads/suite.h"

namespace acsel {
namespace {

using hw::ConfigSpace;
using hw::Configuration;
using hw::Device;

const soc::MachineSpec kSpec{};

Configuration cpu_cfg(std::size_t pstate, int threads) {
  Configuration c;
  c.device = Device::Cpu;
  c.cpu_pstate = pstate;
  c.threads = threads;
  return c;
}

Configuration gpu_cfg(std::size_t gpu_pstate, std::size_t host_pstate) {
  Configuration c;
  c.device = Device::Gpu;
  c.gpu_pstate = gpu_pstate;
  c.cpu_pstate = host_pstate;
  return c;
}

soc::KernelCharacteristics cpu_friendly() {
  soc::KernelCharacteristics k;
  k.work_gflop = 0.6;
  k.bytes_per_flop = 0.4;
  k.parallel_fraction = 0.9;
  k.vector_fraction = 0.2;
  k.branch_divergence = 0.5;
  k.gpu_efficiency = 0.12;
  return k;
}

soc::KernelCharacteristics gpu_friendly() {
  soc::KernelCharacteristics k;
  k.work_gflop = 2.0;
  k.bytes_per_flop = 0.05;
  k.parallel_fraction = 0.995;
  k.vector_fraction = 0.15;
  k.gpu_efficiency = 0.8;
  return k;
}

soc::KernelCharacteristics streaming() {
  soc::KernelCharacteristics k;
  k.work_gflop = 0.4;
  k.bytes_per_flop = 2.4;
  k.parallel_fraction = 0.98;
  k.cache_locality = 0.25;
  return k;
}

// ------------------------------------------------------------ soc truth --

TEST(CoSchedule, ValidatesPlacement) {
  EXPECT_THROW(soc::evaluate_coschedule(kSpec, cpu_friendly(),
                                        gpu_cfg(2, 5),  // wrong device
                                        gpu_friendly(), gpu_cfg(2, 5)),
               Error);
  EXPECT_THROW(soc::evaluate_coschedule(kSpec, cpu_friendly(),
                                        cpu_cfg(3, 4),  // no free core
                                        gpu_friendly(), gpu_cfg(2, 5)),
               Error);
}

TEST(CoSchedule, CoRunIsNeverFasterThanSolo) {
  const auto cpu_solo =
      evaluate_steady_state(kSpec, cpu_friendly(), cpu_cfg(3, 3));
  const auto gpu_solo =
      evaluate_steady_state(kSpec, gpu_friendly(), gpu_cfg(2, 3));
  const auto co = soc::evaluate_coschedule(
      kSpec, cpu_friendly(), cpu_cfg(3, 3), gpu_friendly(), gpu_cfg(2, 3));
  EXPECT_GE(co.cpu_kernel_time_ms, cpu_solo.time_ms - 1e-9);
  EXPECT_GE(co.gpu_kernel_time_ms, gpu_solo.time_ms - 1e-9);
}

TEST(CoSchedule, ComputeBoundPairRunsUncontended) {
  // Two compute-bound kernels do not saturate the controller: co-run
  // latencies equal the solo ones.
  auto a = cpu_friendly();
  a.bytes_per_flop = 0.05;
  const auto b = gpu_friendly();
  const auto co =
      soc::evaluate_coschedule(kSpec, a, cpu_cfg(3, 3), b, gpu_cfg(2, 3));
  EXPECT_LT(co.bandwidth_demand, 1.0);
  const auto a_solo = evaluate_steady_state(kSpec, a, cpu_cfg(3, 3));
  const auto b_solo = evaluate_steady_state(kSpec, b, gpu_cfg(2, 3));
  EXPECT_NEAR(co.cpu_kernel_time_ms, a_solo.time_ms, 1e-9);
  EXPECT_NEAR(co.gpu_kernel_time_ms, b_solo.time_ms, 1e-9);
}

TEST(CoSchedule, TwoStreamingKernelsContend) {
  auto gpu_stream = streaming();
  gpu_stream.gpu_efficiency = 0.6;
  const auto co = soc::evaluate_coschedule(
      kSpec, streaming(), cpu_cfg(5, 3), gpu_stream, gpu_cfg(2, 5));
  EXPECT_GT(co.bandwidth_demand, 1.0);
  const auto cpu_solo =
      evaluate_steady_state(kSpec, streaming(), cpu_cfg(5, 3));
  EXPECT_GT(co.cpu_kernel_time_ms, cpu_solo.time_ms * 1.05);
}

TEST(CoSchedule, PowerBetweenMaxAndSumOfSolos) {
  const auto a = cpu_friendly();
  const auto b = gpu_friendly();
  const auto a_solo = evaluate_steady_state(kSpec, a, cpu_cfg(3, 3));
  const auto b_solo = evaluate_steady_state(kSpec, b, gpu_cfg(2, 3));
  const auto co =
      soc::evaluate_coschedule(kSpec, a, cpu_cfg(3, 3), b, gpu_cfg(2, 3));
  EXPECT_GT(co.total_power_w(),
            std::max(a_solo.total_power_w(), b_solo.total_power_w()));
  // The sum double-counts base power and idle devices.
  EXPECT_LT(co.total_power_w(),
            a_solo.total_power_w() + b_solo.total_power_w());
}

TEST(CoSchedule, SharedVoltagePlaneSetByFastestCu) {
  // Raising only the GPU kernel's host frequency raises the whole CPU
  // plane's voltage, so the CPU kernel's plane power rises too (§IV-A).
  const auto slow_host = soc::evaluate_coschedule(
      kSpec, cpu_friendly(), cpu_cfg(0, 3), gpu_friendly(), gpu_cfg(2, 0));
  const auto fast_host = soc::evaluate_coschedule(
      kSpec, cpu_friendly(), cpu_cfg(0, 3), gpu_friendly(), gpu_cfg(2, 5));
  EXPECT_GT(fast_host.cpu_power_w, slow_host.cpu_power_w * 1.2);
}

TEST(CoSchedule, ThroughputAddsBothKernels) {
  const auto co = soc::evaluate_coschedule(
      kSpec, cpu_friendly(), cpu_cfg(3, 3), gpu_friendly(), gpu_cfg(2, 3));
  EXPECT_NEAR(co.throughput(),
              1000.0 / co.cpu_kernel_time_ms +
                  1000.0 / co.gpu_kernel_time_ms,
              1e-9);
}

// -------------------------------------------------------- core optimizer --

class CoSelectTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    machine_ = new soc::Machine{soc::MachineSpec{}, 606};
    suite_ = new workloads::Suite{workloads::Suite::standard()};
    characterizations_ = new std::vector<core::KernelCharacterization>{
        eval::characterize(*machine_, *suite_)};
    model_ =
        new core::TrainedModel{core::train(*characterizations_).model};
  }
  static void TearDownTestSuite() {
    delete model_;
    delete characterizations_;
    delete suite_;
    delete machine_;
  }
  static soc::Machine* machine_;
  static workloads::Suite* suite_;
  static std::vector<core::KernelCharacterization>* characterizations_;
  static core::TrainedModel* model_;

  core::Prediction predict(const std::string& id) {
    for (const auto& c : *characterizations_) {
      if (c.instance_id == id) {
        return model_->predict(c.samples);
      }
    }
    throw Error{"no characterization: " + id};
  }

  core::CoSchedulerOptions options() {
    core::CoSchedulerOptions o;
    o.idle_power_w = soc::idle_power(machine_->spec()).total();
    return o;
  }
};

soc::Machine* CoSelectTest::machine_ = nullptr;
workloads::Suite* CoSelectTest::suite_ = nullptr;
std::vector<core::KernelCharacterization>* CoSelectTest::characterizations_ =
    nullptr;
core::TrainedModel* CoSelectTest::model_ = nullptr;

TEST_F(CoSelectTest, PlacesGpuFriendlyKernelOnTheGpu) {
  const auto lu = predict("LU-Large/lud");            // GPU-dominant
  const auto halo = predict("CoMD-LJ/HaloExchange");  // GPU-hostile
  const auto choice = core::co_select(lu, halo, 45.0, options());
  EXPECT_TRUE(choice.feasible);
  // LU is the first kernel: it must land on the GPU (first_on_cpu false).
  EXPECT_FALSE(choice.first_on_cpu);
  const ConfigSpace space;
  EXPECT_EQ(space.at(choice.cpu_config_index).device, Device::Cpu);
  EXPECT_EQ(space.at(choice.gpu_config_index).device, Device::Gpu);
  EXPECT_LE(choice.predicted_power_w, 45.0);
}

TEST_F(CoSelectTest, CpuKernelLeavesACoreForTheDriver) {
  const auto a = predict("SMC-Default/ChemistryRates");
  const auto b = predict("LULESH-Large/CalcFBHourglassForce");
  const auto choice = core::co_select(a, b, 50.0, options());
  const ConfigSpace space;
  EXPECT_LE(space.at(choice.cpu_config_index).threads, 3);
}

TEST_F(CoSelectTest, TightCapReportsInfeasible) {
  const auto a = predict("LU-Large/lud");
  const auto b = predict("SMC-Default/ChemistryRates");
  const auto choice = core::co_select(a, b, 12.0, options());
  EXPECT_FALSE(choice.feasible);
  EXPECT_GT(choice.predicted_power_w, 12.0);
}

TEST_F(CoSelectTest, HigherCapNeverLowersPredictedThroughput) {
  const auto a = predict("CoMD-EAM/ComputeForce");
  const auto b = predict("LULESH-Large/CalcKinematicsForElems");
  double prev = 0.0;
  for (const double cap : {25.0, 35.0, 50.0, 80.0}) {
    const auto choice = core::co_select(a, b, cap, options());
    if (choice.feasible) {
      EXPECT_GE(choice.predicted_throughput, prev - 1e-9) << cap;
      prev = choice.predicted_throughput;
    }
  }
  EXPECT_GT(prev, 0.0);
}

TEST_F(CoSelectTest, PredictedPowerTracksCoScheduleTruth) {
  const auto lu = predict("LU-Large/lud");
  const auto halo = predict("CoMD-LJ/HaloExchange");
  const auto choice = core::co_select(lu, halo, 45.0, options());
  const ConfigSpace space;
  const auto& cpu_kernel = suite_->instance("CoMD-LJ/HaloExchange").traits;
  const auto& gpu_kernel = suite_->instance("LU-Large/lud").traits;
  const auto truth = soc::evaluate_coschedule(
      machine_->spec(), cpu_kernel, space.at(choice.cpu_config_index),
      gpu_kernel, space.at(choice.gpu_config_index));
  EXPECT_NEAR(choice.predicted_power_w / truth.total_power_w(), 1.0, 0.35);
}

TEST_F(CoSelectTest, ValidatesInputs) {
  const auto a = predict("LU-Small/lud");
  EXPECT_THROW(core::co_select(a, a, 0.0, options()), Error);
  core::CoSchedulerOptions bad = options();
  bad.max_cpu_threads = hw::kCpuCores;
  EXPECT_THROW(core::co_select(a, a, 30.0, bad), Error);
}

// ------------------------------------------------------- energy budget --

core::Prediction synthetic_prediction() {
  core::Prediction prediction;
  // (power, perf): energies 10, 7.5, 8.33 J.
  const double power[] = {10.0, 15.0, 25.0};
  const double perf[] = {1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 3; ++i) {
    core::Estimate e;
    e.power_w = power[i];
    e.performance = perf[i];
    prediction.per_config.push_back(e);
  }
  prediction.frontier = pareto::ParetoFrontier::build(
      std::vector<double>{power, power + 3},
      std::vector<double>{perf, perf + 3});
  return prediction;
}

TEST(EnergyBudget, PicksFastestWithinBudget) {
  const auto prediction = synthetic_prediction();
  const core::Scheduler scheduler{prediction};
  // 9 J: configs 1 (7.5 J) and 2 (8.33 J) fit; config 2 is faster.
  const auto nine = scheduler.select_under_energy(9.0);
  EXPECT_TRUE(nine.predicted_feasible);
  EXPECT_EQ(nine.config_index, 2u);
  // 8 J: only config 1 fits.
  const auto eight = scheduler.select_under_energy(8.0);
  EXPECT_EQ(eight.config_index, 1u);
}

TEST(EnergyBudget, InfeasibleBudgetFallsBackToMinEnergy) {
  const auto prediction = synthetic_prediction();
  const core::Scheduler scheduler{prediction};
  const auto choice = scheduler.select_under_energy(5.0);
  EXPECT_FALSE(choice.predicted_feasible);
  EXPECT_EQ(choice.config_index, 1u);  // the 7.5 J minimum-energy point
  EXPECT_THROW(scheduler.select_under_energy(0.0), Error);
}

}  // namespace
}  // namespace acsel
