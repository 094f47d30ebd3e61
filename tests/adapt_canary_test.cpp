// End-to-end tests of the adapt loop against the simulated SoC: a
// mid-run workload shift (the soc.kernel_shift fault) makes the offline
// model stale, drift fires, a background retrain produces a candidate,
// the canary gates it, and promotion recovers selection quality — all
// deterministic under a fixed seed. Also covers the serve integration:
// wire feedback, shadow evaluation on served requests, stats scrapes,
// and the guarantee that serving never blocks on a retrain.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adapt/canary.h"
#include "adapt/controller.h"
#include "core/runtime.h"
#include "core/scheduler.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "serve/codec.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "soc/machine.h"
#include "workloads/suite.h"

namespace acsel {
namespace {

constexpr double kCapW = 20.0;
constexpr double kShiftMagnitude = 2.5;

/// Characterizes the first `count` suite instances on clones of
/// `machine`. With the shift armed every run behaves as the shifted
/// kernel, so the result is ground truth for the post-shift world.
std::vector<core::KernelCharacterization> characterize_some(
    const soc::Machine& machine, const workloads::Suite& suite,
    std::size_t count, bool shifted) {
  if (shifted) {
    fault::Injector::global().arm("soc.kernel_shift",
                                  {1.0, 1, kShiftMagnitude});
  }
  std::vector<core::KernelCharacterization> result;
  for (std::size_t i = 0; i < count && i < suite.size(); ++i) {
    soc::Machine clone = machine.clone(i);
    result.push_back(
        eval::characterize_instance(clone, suite.instances()[i]));
  }
  fault::Injector::global().disarm_all();
  return result;
}

/// A wire stats scrape of `server`, its rows indexed by name (at() on an
/// absent row throws, failing the test).
std::map<std::string, obs::MetricSnapshot> scrape_rows(serve::Server& server) {
  std::vector<std::uint8_t> frame;
  serve::encode_stats_request(serve::StatsRequest{}, frame);
  const serve::Decoded decoded = serve::decode_frame(server.serve_frame(frame));
  EXPECT_EQ(decoded.status, serve::DecodeStatus::Ok);
  std::map<std::string, obs::MetricSnapshot> rows;
  for (const obs::MetricSnapshot& row : decoded.stats_response.metrics) {
    rows.emplace(row.name, row);
  }
  return rows;
}

class AdaptCanaryTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    const soc::Machine machine{soc::MachineSpec{}, 4242};
    const auto suite = workloads::Suite::standard();
    clean_ = new std::vector<core::KernelCharacterization>{
        characterize_some(machine, suite, 12, false)};
    shifted_ = new std::vector<core::KernelCharacterization>{
        characterize_some(machine, suite, 12, true)};
    clean_model_ = core::make_predictor(core::train(*clean_).model);
    shifted_model_ = core::make_predictor(core::train(*shifted_).model);
  }
  static void TearDownTestSuite() {
    shifted_model_.reset();
    clean_model_.reset();
    delete shifted_;
    delete clean_;
  }
  void TearDown() override { fault::Injector::global().disarm_all(); }

  /// One serving-loop observation mid-shift: the model predicts and
  /// selects from the kernel's *retained* (pre-shift) profile, but the
  /// measurement comes back from the world `truth` describes. Before the
  /// shift `profile` and `truth` are the same characterization.
  static adapt::Feedback feedback_for(
      const core::Predictor& model,
      const core::KernelCharacterization& profile,
      const core::KernelCharacterization& truth) {
    const core::Prediction prediction = model.predict(profile.samples);
    const core::Scheduler::Choice choice =
        core::Scheduler{prediction}.select_goal(
            core::SchedulingGoal::MaxPerformance, kCapW);
    adapt::Feedback feedback;
    feedback.samples = profile.samples;
    feedback.predicted_power_w = choice.predicted_power_w;
    feedback.predicted_performance = choice.predicted_performance;
    feedback.measured_power_w = truth.powers()[choice.config_index];
    feedback.measured_performance = truth.performances()[choice.config_index];
    feedback.cap_w = kCapW;
    feedback.label = truth;
    return feedback;
  }

  /// Mean capped selection error of `model` over `truths`.
  static double mean_error(
      const core::Predictor& model,
      const std::vector<core::KernelCharacterization>& truths) {
    double sum = 0.0;
    for (const auto& truth : truths) {
      sum += adapt::selection_quality(model, truth, kCapW,
                                      core::SchedulingGoal::MaxPerformance, {})
                 .error;
    }
    return sum / static_cast<double>(truths.size());
  }

  static std::vector<core::KernelCharacterization>* clean_;
  static std::vector<core::KernelCharacterization>* shifted_;
  static core::PredictorPtr clean_model_;
  static core::PredictorPtr shifted_model_;
};

std::vector<core::KernelCharacterization>* AdaptCanaryTest::clean_ = nullptr;
std::vector<core::KernelCharacterization>* AdaptCanaryTest::shifted_ = nullptr;
core::PredictorPtr AdaptCanaryTest::clean_model_;
core::PredictorPtr AdaptCanaryTest::shifted_model_;

TEST_F(AdaptCanaryTest, TheShiftActuallyDegradesTheCleanModel) {
  // Sanity anchor for everything below: the clean model selects well in
  // the clean world and markedly worse in the shifted one.
  const double clean_on_clean = mean_error(*clean_model_, *clean_);
  const double clean_on_shifted = mean_error(*clean_model_, *shifted_);
  const double shifted_on_shifted = mean_error(*shifted_model_, *shifted_);
  EXPECT_GT(clean_on_shifted, clean_on_clean);
  EXPECT_LT(shifted_on_shifted, clean_on_shifted);
}

TEST_F(AdaptCanaryTest, CanaryRejectsCorruptAcceptsGoodCandidate) {
  obs::Registry metrics;
  serve::ModelRegistry registry;
  registry.publish(clean_model_);

  adapt::AdaptOptions options;
  options.metrics = &metrics;
  options.drift.threshold = 1e9;  // keep the loop's own retrains out
  options.canary.shadow_fraction = 1.0;
  options.canary.min_evals = 12;
  adapt::AdaptController controller{registry, exec::inline_executor(), *clean_,
                                    options};

  // A corrupt candidate (default model: predict throws) is rejected on
  // the very first scored observation, whatever its numbers elsewhere.
  controller.begin_canary(std::make_shared<const core::TrainedModel>());
  controller.observe(
      feedback_for(*clean_model_, clean_->front(), shifted_->front()));
  adapt::AdaptStats stats = controller.adapt_stats();
  EXPECT_FALSE(stats.canary_active);
  EXPECT_EQ(stats.canary_rejected, 1u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(registry.current().version, 1u);

  // A candidate retrained on the shifted world beats the stale incumbent
  // by margin on shifted traffic and is promoted.
  controller.begin_canary(shifted_model_);
  for (std::size_t i = 0; i < shifted_->size(); ++i) {
    controller.observe(
        feedback_for(*clean_model_, (*clean_)[i], (*shifted_)[i]));
  }
  stats = controller.adapt_stats();
  EXPECT_FALSE(stats.canary_active);
  EXPECT_EQ(stats.canary_accepted, 1u);
  EXPECT_EQ(stats.promotions, 1u);
  EXPECT_EQ(stats.canary_evals, 13u);  // 1 corrupt-round eval + 12 here
  EXPECT_EQ(registry.current().version, 2u);
}

/// The full loop under an injected workload shift, small enough windows
/// to converge quickly. Returns the final adapt stats plus the promoted
/// model's serialization — the determinism test compares two runs.
struct LoopOutcome {
  adapt::AdaptStats stats;
  std::vector<std::uint64_t> versions;
  std::string final_model;
  double recovered_error = 1.0;
  int rounds_to_promotion = -1;
};

LoopOutcome run_shift_loop(
    const std::vector<core::KernelCharacterization>& clean,
    const std::vector<core::KernelCharacterization>& shifted,
    const core::PredictorPtr& clean_model, exec::Executor& executor) {
  obs::Registry metrics;
  serve::ModelRegistry registry{{.retain_limit = 4}};
  registry.publish(clean_model);

  adapt::AdaptOptions options;
  options.metrics = &metrics;
  // CUSUM rather than Page-Hinkley: after a rejected canary resets the
  // detectors, the still-unexplained bias must be able to re-fire them
  // (PH would absorb a bias present from the first post-reset sample),
  // so every reset buys the loop another retrain with a fuller
  // reservoir. The delta absorbs the incumbent's calibration error on
  // its own training distribution.
  options.drift.method = adapt::DriftDetector::Method::Cusum;
  options.drift.threshold = 2.0;
  options.drift.delta = 0.02;
  options.drift.grace_samples = 8;
  options.canary.shadow_fraction = 1.0;
  options.canary.min_evals = 8;
  options.canary.error_margin = 0.02;
  options.promoter.probation_observations = 12;
  adapt::AdaptController controller{registry, executor, clean, options};

  // Clean phase: the incumbent predicts its own training distribution;
  // residuals are calibration noise and the loop stays quiet.
  for (int round = 0; round < 4; ++round) {
    for (const auto& truth : clean) {
      controller.observe(AdaptCanaryTest::feedback_for(
          *registry.current().model, truth, truth));
    }
  }
  const adapt::AdaptStats quiet = controller.adapt_stats();
  EXPECT_EQ(quiet.drift_events, 0u);
  EXPECT_EQ(quiet.retrains, 0u);

  // Shift: every observation now comes from the shifted world, predicted
  // by whatever model is current at that moment (as a serving loop
  // would). Drift -> retrain -> canary -> promote.
  LoopOutcome outcome;
  for (int round = 0; round < 40; ++round) {
    for (std::size_t i = 0; i < shifted.size(); ++i) {
      const serve::VersionedModel current = registry.current();
      // The serving side still predicts from its *retained* pre-shift
      // profile; only the measurements (and the labels a
      // re-characterization would yield) come from the shifted world.
      controller.observe(AdaptCanaryTest::feedback_for(*current.model,
                                                       clean[i], shifted[i]));
      // Synchronization point: a scheduled retrain completes before the
      // next observation, so the decision sequence is identical whether
      // the executor is the serial inline one or a thread pool.
      controller.wait_for_retrain();
    }
    if (controller.adapt_stats().promotions > 0 &&
        outcome.rounds_to_promotion < 0) {
      outcome.rounds_to_promotion = round + 1;
    }
    if (outcome.rounds_to_promotion > 0 && round >= outcome.rounds_to_promotion + 1) {
      break;  // a couple of post-promotion rounds cover probation
    }
  }
  outcome.stats = controller.adapt_stats();
  outcome.versions = registry.versions();
  outcome.final_model = registry.current().model->serialize();
  outcome.recovered_error =
      AdaptCanaryTest::mean_error(*registry.current().model, shifted);
  return outcome;
}

TEST_F(AdaptCanaryTest, EndToEndDriftRetrainCanaryPromote) {
  const LoopOutcome outcome =
      run_shift_loop(*clean_, *shifted_, clean_model_,
                     exec::inline_executor());
  EXPECT_GE(outcome.stats.drift_events, 1u);
  EXPECT_GE(outcome.stats.retrains, 1u);
  EXPECT_GE(outcome.stats.canary_accepted, 1u);
  EXPECT_GE(outcome.stats.promotions, 1u);
  EXPECT_EQ(outcome.stats.rollbacks, 0u);
  EXPECT_GT(outcome.rounds_to_promotion, 0);
  ASSERT_GE(outcome.versions.size(), 2u);

  // Recovery: the promoted model's selection error in the shifted world
  // is within 10% (plus a small absolute allowance for retraining from
  // reservoir-skewed data) of the pre-shift baseline.
  const double baseline = mean_error(*clean_model_, *clean_);
  EXPECT_LE(outcome.recovered_error, 1.1 * baseline + 0.05)
      << "baseline " << baseline << ", recovered " << outcome.recovered_error;
  // And far better than not adapting at all.
  EXPECT_LT(outcome.recovered_error, mean_error(*clean_model_, *shifted_));
}

TEST_F(AdaptCanaryTest, LoopIsDeterministicUnderAFixedSeed) {
  const LoopOutcome first =
      run_shift_loop(*clean_, *shifted_, clean_model_,
                     exec::inline_executor());
  exec::ThreadPool pool{2};
  const LoopOutcome second =
      run_shift_loop(*clean_, *shifted_, clean_model_, pool);
  // Identical decision sequence and identical promoted model, serial or
  // pooled: every decision is a pure function of the observation stream.
  EXPECT_EQ(first.stats, second.stats);
  EXPECT_EQ(first.versions, second.versions);
  EXPECT_EQ(first.rounds_to_promotion, second.rounds_to_promotion);
  EXPECT_EQ(first.final_model, second.final_model);
}

TEST_F(AdaptCanaryTest, ServingIsNotBlockedByABackgroundRetrain) {
  serve::ModelRegistry registry;
  registry.publish(clean_model_);
  serve::ServerOptions server_options;
  server_options.workers = 2;
  serve::Server server{registry, server_options};

  // Enough seed data to make the retrain take real wall-clock time, so
  // the serving-while-retraining window below is reliably observable.
  std::vector<core::KernelCharacterization> seeds;
  for (int copy = 0; copy < 5; ++copy) {
    for (const auto& truth : *clean_) {
      seeds.push_back(truth);
      seeds.back().instance_id += "+copy" + std::to_string(copy);
    }
  }

  exec::ThreadPool pool{2};
  adapt::AdaptOptions options;
  // The controller's adapt.* rows land in the registry the server's
  // stats scrape reads.
  options.metrics = &server.stats_registry();
  // CUSUM: the wire feedback is shifted from the first sample, a
  // sustained bias Page-Hinkley would absorb into its running mean.
  options.drift.method = adapt::DriftDetector::Method::Cusum;
  options.drift.threshold = 2.0;
  options.drift.delta = 0.01;
  options.drift.grace_samples = 5;
  options.canary.shadow_fraction = 1.0;
  adapt::AdaptController controller{registry, pool, seeds, options};
  server.set_adapt_sink(&controller);

  const auto wire_feedback = [&](const core::KernelCharacterization& truth,
                                 std::uint64_t id) {
    const adapt::Feedback observation =
        feedback_for(*clean_model_, clean_->front(), truth);
    serve::FeedbackRequest request;
    request.request_id = id;
    request.cap_w = observation.cap_w;
    request.predicted_power_w = observation.predicted_power_w;
    request.predicted_performance = observation.predicted_performance;
    request.measured_power_w = observation.measured_power_w;
    request.measured_performance = observation.measured_performance;
    request.samples = observation.samples;
    std::vector<std::uint8_t> frame;
    serve::encode_feedback_request(request, frame);
    const serve::Decoded decoded = serve::decode_frame(server.serve_frame(frame));
    EXPECT_EQ(decoded.status, serve::DecodeStatus::Ok);
    EXPECT_EQ(decoded.feedback_response.status, serve::ResponseStatus::Ok);
  };

  // Shifted feedback for one kernel, repeated: one cluster's CUSUM
  // accumulates the bias until drift fires and a retrain is scheduled on
  // the pool.
  std::uint64_t id = 1;
  for (int i = 0; i < 200 && !controller.retrain_inflight(); ++i) {
    wire_feedback(shifted_->front(), id++);
  }
  ASSERT_TRUE(controller.retrain_inflight())
      << "drift never fired over the wire feedback stream";

  // Serving stays up and fast while the retrain grinds in the background.
  serve::SelectRequest request;
  request.cap_w = kCapW;
  std::size_t served_during_retrain = 0;
  std::chrono::nanoseconds worst{0};
  while (controller.retrain_inflight() && served_during_retrain < 10000) {
    request.request_id = 100000 + served_during_retrain;
    request.samples =
        (*clean_)[served_during_retrain % clean_->size()].samples;
    const auto start = std::chrono::steady_clock::now();
    const serve::SelectResponse response = server.select(request);
    worst = std::max(worst, std::chrono::steady_clock::now() - start);
    ASSERT_EQ(response.status, serve::ResponseStatus::Ok);
    ++served_during_retrain;
  }
  EXPECT_GT(served_during_retrain, 0u);
  // Generous bound (TSan headroom): a blocked server would exceed it by
  // orders of magnitude, a healthy one stays far under.
  EXPECT_LT(worst, std::chrono::seconds{5});

  controller.wait_for_retrain();
  const adapt::AdaptStats stats = controller.adapt_stats();
  EXPECT_GE(stats.drift_events, 1u);
  EXPECT_EQ(stats.retrains, 1u);
  EXPECT_EQ(stats.retrain_failures, 0u);
  EXPECT_GT(stats.observations, 0u);
  EXPECT_GT(server.metrics_snapshot().feedback, 0u);

  // The wire stats scrape reports the same adapt state as registry rows.
  const std::map<std::string, obs::MetricSnapshot> rows = scrape_rows(server);
  EXPECT_EQ(rows.at("adapt.retrains").count, stats.retrains);
  EXPECT_EQ(rows.at("adapt.observations").count, stats.observations);
  EXPECT_EQ(rows.at("adapt.retrain_inflight").value, 0.0);
  EXPECT_EQ(rows.at("adapt.reservoir_size").value,
            static_cast<double>(stats.reservoir_size));
  server.set_adapt_sink(nullptr);
}

TEST_F(AdaptCanaryTest, FeedbackWithoutASinkIsUnsupported) {
  serve::ModelRegistry registry;
  registry.publish(clean_model_);
  serve::Server server{registry, {}};
  serve::FeedbackRequest request;
  request.request_id = 3;
  request.predicted_power_w = 10.0;
  request.predicted_performance = 1.0;
  request.measured_power_w = 11.0;
  request.measured_performance = 0.9;
  std::vector<std::uint8_t> frame;
  serve::encode_feedback_request(request, frame);
  const serve::Decoded decoded = serve::decode_frame(server.serve_frame(frame));
  ASSERT_EQ(decoded.status, serve::DecodeStatus::Ok);
  EXPECT_EQ(decoded.feedback_response.status,
            serve::ResponseStatus::Unsupported);
  // The stats scrape carries no adapt.* rows.
  for (const auto& [name, row] : scrape_rows(server)) {
    EXPECT_NE(name.rfind("adapt.", 0), 0u) << name;
  }
}

TEST_F(AdaptCanaryTest, ServedRequestsFeedTheShadowCanary) {
  serve::ModelRegistry registry;
  registry.publish(clean_model_);
  serve::Server server{registry, {}};

  adapt::AdaptOptions options;
  options.metrics = &server.stats_registry();
  options.drift.threshold = 1e9;
  options.canary.shadow_fraction = 1.0;
  adapt::AdaptController controller{registry, exec::inline_executor(), *clean_,
                                    options};
  server.set_adapt_sink(&controller);

  controller.begin_canary(shifted_model_);
  serve::SelectRequest request;
  request.request_id = 1;
  request.cap_w = kCapW;
  request.samples = clean_->front().samples;
  ASSERT_EQ(server.select(request).status, serve::ResponseStatus::Ok);
  const adapt::AdaptStats stats = controller.adapt_stats();
  EXPECT_EQ(stats.shadow_evals, 1u);
  EXPECT_TRUE(stats.canary_active);
  EXPECT_EQ(server.metrics_snapshot().shadowed, 1u);
  const std::map<std::string, obs::MetricSnapshot> rows = scrape_rows(server);
  EXPECT_EQ(rows.at("adapt.shadow_evals").count, 1u);
  EXPECT_EQ(rows.at("adapt.canary_active").value, 1.0);
  server.set_adapt_sink(nullptr);
}

TEST_F(AdaptCanaryTest, AdoptModelRepredictsTrackedKernels) {
  soc::Machine machine{soc::MachineSpec{}, 4242};
  const auto suite = workloads::Suite::standard();
  std::vector<core::PredictionFeedback> feedbacks;
  core::OnlineRuntime::Options options;
  options.power_cap_w = kCapW;
  options.on_feedback = [&](const core::PredictionFeedback& feedback) {
    feedbacks.push_back(feedback);
  };
  core::OnlineRuntime runtime{machine, clean_model_, options};
  const auto& instance = suite.instances().front();
  const core::KernelKey key{instance.kernel, "main", 10};
  for (int i = 0; i < 6; ++i) {
    runtime.invoke(key, instance);
  }
  ASSERT_EQ(runtime.phase(key), core::OnlineRuntime::Phase::Scheduled);
  // Steady-state invocations (after the two samples) emitted feedback
  // with the prediction the configuration was selected on.
  ASSERT_GE(feedbacks.size(), 3u);
  EXPECT_EQ(feedbacks.front().key, key);
  EXPECT_GT(feedbacks.front().predicted_power_w, 0.0);
  EXPECT_GT(feedbacks.front().measured_power_w, 0.0);
  EXPECT_DOUBLE_EQ(feedbacks.front().cap_w, kCapW);

  // Hot-swap to the shifted model: the tracked kernel is re-predicted
  // from its retained samples without re-sampling, and keeps serving.
  EXPECT_EQ(runtime.adopt_model(shifted_model_), 1u);
  EXPECT_EQ(runtime.phase(key), core::OnlineRuntime::Phase::Scheduled);
  ASSERT_TRUE(runtime.scheduled_config(key).has_value());
  const std::size_t before = feedbacks.size();
  runtime.invoke(key, instance);
  EXPECT_EQ(feedbacks.size(), before + 1);  // feedback keeps flowing
}

}  // namespace
}  // namespace acsel
