// Tests for the online runtime: sample-iteration lifecycle, steady-state
// scheduling, dynamic cap/goal changes, per-context kernel identity, and
// the Chrome trace it records.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "core/runtime.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "hw/config_space.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "soc/machine.h"
#include "util/error.h"
#include "workloads/suite.h"

namespace acsel::core {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    machine_ = new soc::Machine{soc::MachineSpec{}, 4242};
    suite_ = new workloads::Suite{workloads::Suite::standard()};
    // Train once, without LU, so LU is genuinely unseen for the runtime.
    std::vector<KernelCharacterization> training;
    for (const auto& instance : suite_->instances()) {
      if (instance.benchmark != "LU") {
        training.push_back(
            eval::characterize_instance(*machine_, instance));
      }
    }
    model_ = make_predictor(train(training).model);
  }
  static void TearDownTestSuite() {
    model_.reset();
    delete suite_;
    delete machine_;
  }

  static soc::Machine* machine_;
  static workloads::Suite* suite_;
  static PredictorPtr model_;

  OnlineRuntime make_runtime(double cap_w = 30.0) {
    OnlineRuntime::Options options;
    options.power_cap_w = cap_w;
    return OnlineRuntime{*machine_, model_, options};
  }
};

soc::Machine* RuntimeTest::machine_ = nullptr;
workloads::Suite* RuntimeTest::suite_ = nullptr;
PredictorPtr RuntimeTest::model_;

TEST_F(RuntimeTest, FirstTwoInvocationsAreSampleRuns) {
  auto runtime = make_runtime();
  const auto& lu = suite_->instance("LU-Large/lud");
  const KernelKey key{"lud", "main", 20};
  const hw::ConfigSpace space;

  EXPECT_EQ(runtime.phase(key), OnlineRuntime::Phase::Unseen);
  const auto& first = runtime.invoke(key, lu);
  EXPECT_EQ(first.config, space.cpu_sample());
  EXPECT_EQ(runtime.phase(key), OnlineRuntime::Phase::SampledCpu);
  const auto& second = runtime.invoke(key, lu);
  EXPECT_EQ(second.config, space.gpu_sample());
  EXPECT_EQ(runtime.phase(key), OnlineRuntime::Phase::Scheduled);
}

#ifndef ACSEL_OBS_NO_TRACING
TEST_F(RuntimeTest, ChromeTraceNamesTheOnlineStages) {
  // One kernel past its two sample runs leaves a loadable Chrome trace
  // naming each online step, with the machine's power counter alongside.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.enable();
  auto runtime = make_runtime();
  for (int i = 0; i < 3; ++i) {
    runtime.invoke(KernelKey{"lud", "main", 20},
                   suite_->instance("LU-Large/lud"));
  }
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.clear();

  std::set<std::string> names;
  const obs::JsonValue doc = obs::JsonValue::parse(out.str());
  for (const obs::JsonValue& event : doc.at("traceEvents").items()) {
    names.insert(event.at("name").as_string());
  }
  for (const char* required :
       {"sample_cpu", "classify", "predict", "select", "machine.power_w"}) {
    EXPECT_TRUE(names.contains(required)) << "missing " << required;
  }
}
#endif

TEST_F(RuntimeTest, SteadyStateUsesTheScheduledConfig) {
  auto runtime = make_runtime();
  const auto& lu = suite_->instance("LU-Large/lud");
  const KernelKey key{"lud", "main", 20};
  runtime.invoke(key, lu);
  runtime.invoke(key, lu);
  const auto scheduled = runtime.scheduled_config(key);
  ASSERT_TRUE(scheduled.has_value());
  for (int i = 0; i < 3; ++i) {
    const auto& record = runtime.invoke(key, lu);
    EXPECT_EQ(record.config, *scheduled);
  }
  ASSERT_NE(runtime.prediction(key), nullptr);
  EXPECT_LT(runtime.prediction(key)->cluster, model_->cluster_count());
}

TEST_F(RuntimeTest, CapChangeReselectsWithoutResampling) {
  auto runtime = make_runtime(45.0);
  const auto& lu = suite_->instance("LU-Large/lud");
  const KernelKey key{"lud", "main", 20};
  runtime.invoke(key, lu);
  runtime.invoke(key, lu);
  const auto generous = runtime.scheduled_config(key);
  ASSERT_TRUE(generous.has_value());

  const std::size_t runs_before = runtime.profiler().size();
  runtime.set_power_cap(14.0);  // only low-power CPU configs fit
  EXPECT_EQ(runtime.profiler().size(), runs_before)
      << "re-selection must not run anything";
  const auto tight = runtime.scheduled_config(key);
  ASSERT_TRUE(tight.has_value());
  EXPECT_NE(*generous, *tight);
  EXPECT_EQ(tight->device, hw::Device::Cpu);
}

TEST_F(RuntimeTest, GoalChangeReselects) {
  auto runtime = make_runtime(1e9);  // uncapped
  const auto& k = suite_->instance("SMC-Default/ChemistryRates");
  const KernelKey key{"ChemistryRates", "", 24};
  runtime.invoke(key, k);
  runtime.invoke(key, k);
  const auto perf_cfg = runtime.scheduled_config(key);
  runtime.set_goal(SchedulingGoal::MinEnergy);
  const auto energy_cfg = runtime.scheduled_config(key);
  ASSERT_TRUE(perf_cfg.has_value() && energy_cfg.has_value());
  // Energy-optimal is cheaper (or equal) in predicted power.
  const auto* prediction = runtime.prediction(key);
  ASSERT_NE(prediction, nullptr);
  const hw::ConfigSpace space;
  const auto index_of = [&](const hw::Configuration& c) {
    return *space.index_of(c);
  };
  EXPECT_LE(prediction->per_config[index_of(*energy_cfg)].power_w,
            prediction->per_config[index_of(*perf_cfg)].power_w + 1e-9);
}

TEST_F(RuntimeTest, DistinctContextsTrackedSeparately) {
  auto runtime = make_runtime();
  const auto& k = suite_->instance("CoMD-LJ/ComputeForce");
  const KernelKey inner{"force", "inner_loop", 22};
  const KernelKey outer{"force", "startup", 22};
  runtime.invoke(inner, k);
  EXPECT_EQ(runtime.phase(inner), OnlineRuntime::Phase::SampledCpu);
  EXPECT_EQ(runtime.phase(outer), OnlineRuntime::Phase::Unseen);
  runtime.invoke(outer, k);
  runtime.invoke(outer, k);
  EXPECT_EQ(runtime.phase(outer), OnlineRuntime::Phase::Scheduled);
  EXPECT_EQ(runtime.phase(inner), OnlineRuntime::Phase::SampledCpu);
  EXPECT_EQ(runtime.tracked_kernels(), 2u);
}

TEST_F(RuntimeTest, DistinctSizeBucketsTrackedSeparately) {
  auto runtime = make_runtime();
  const auto& small = suite_->instance("LU-Small/lud");
  const auto& large = suite_->instance("LU-Large/lud");
  const KernelKey small_key{"lud", "", bucket_for(1u << 20)};
  const KernelKey large_key{"lud", "", bucket_for(1u << 26)};
  EXPECT_NE(small_key, large_key);
  runtime.invoke(small_key, small);
  runtime.invoke(small_key, small);
  runtime.invoke(large_key, large);
  EXPECT_EQ(runtime.phase(small_key), OnlineRuntime::Phase::Scheduled);
  EXPECT_EQ(runtime.phase(large_key), OnlineRuntime::Phase::SampledCpu);
}

TEST_F(RuntimeTest, BucketForIsLog2) {
  EXPECT_EQ(bucket_for(1), 0u);
  EXPECT_EQ(bucket_for(2), 1u);
  EXPECT_EQ(bucket_for(3), 1u);
  EXPECT_EQ(bucket_for(1024), 10u);
  EXPECT_EQ(bucket_for((1u << 20) + 5), 20u);
}

TEST_F(RuntimeTest, KeyStringIsReadable) {
  const KernelKey key{"force", "inner", 22};
  EXPECT_EQ(key.str(), "force@inner#22");
  const KernelKey bare{"force", "", 0};
  EXPECT_EQ(bare.str(), "force#0");
}

TEST_F(RuntimeTest, RejectsNonPositiveCap) {
  auto runtime = make_runtime();
  EXPECT_THROW(runtime.set_power_cap(0.0), Error);
}

TEST_F(RuntimeTest, BehaviourChangeTriggersResampling) {
  // §VI: the runtime should notice when "the same kernel" starts running
  // with a very different input and re-sample it.
  OnlineRuntime::Options options;
  options.power_cap_w = 30.0;
  options.detect_behaviour_change = true;
  OnlineRuntime runtime{*machine_, model_, options};

  const auto& small = suite_->instance("LU-Small/lud");
  const auto& large = suite_->instance("LU-Large/lud");
  const KernelKey key{"lud", "main", 0};  // size not visible to the runtime

  runtime.invoke(key, small);
  runtime.invoke(key, small);
  runtime.invoke(key, small);  // scheduled, matches its prediction
  EXPECT_EQ(runtime.phase(key), OnlineRuntime::Phase::Scheduled);
  EXPECT_EQ(runtime.behaviour_changes_detected(), 0u);

  // The input silently grows 15x: measured times blow past the profile.
  for (int i = 0; i < 4 && runtime.behaviour_changes_detected() == 0;
       ++i) {
    runtime.invoke(key, large);
  }
  EXPECT_EQ(runtime.behaviour_changes_detected(), 1u);
  EXPECT_EQ(runtime.phase(key), OnlineRuntime::Phase::Unseen);
  // The next two invocations re-sample and re-schedule for the new input.
  runtime.invoke(key, large);
  runtime.invoke(key, large);
  EXPECT_EQ(runtime.phase(key), OnlineRuntime::Phase::Scheduled);
}

TEST_F(RuntimeTest, NoFalseBehaviourChangeUnderNoise) {
  OnlineRuntime::Options options;
  options.power_cap_w = 30.0;
  options.detect_behaviour_change = true;
  OnlineRuntime runtime{*machine_, model_, options};
  const auto& kernel = suite_->instance("SMC-Default/DiffusionFluxY");
  const KernelKey key{"DiffusionFluxY", "", 0};
  for (int i = 0; i < 20; ++i) {
    runtime.invoke(key, kernel);
  }
  EXPECT_EQ(runtime.behaviour_changes_detected(), 0u);
  EXPECT_EQ(runtime.phase(key), OnlineRuntime::Phase::Scheduled);
}

}  // namespace
}  // namespace acsel::core
