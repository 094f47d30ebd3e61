// Unit tests for the adapt building blocks: drift-detector edge cases
// (constant streams, NaN rejection, grace periods, exact threshold
// boundaries, reset), reservoir determinism, registry retention, the
// promoter's probation window, and the controller's input guards. The
// end-to-end drift -> retrain -> canary -> promote loop lives in
// adapt_canary_test.cpp.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "adapt/canary.h"
#include "adapt/controller.h"
#include "adapt/drift.h"
#include "adapt/promoter.h"
#include "adapt/reservoir.h"
#include "core/model.h"
#include "core/predictor.h"
#include "hw/config_space.h"
#include "pareto/frontier.h"
#include "profile/record.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "util/error.h"

namespace acsel {
namespace {

// ---- DriftDetector -----------------------------------------------------

TEST(DriftTest, PageHinkleyAbsorbsAConstantBias) {
  adapt::DriftDetector detector{{.method = adapt::DriftDetector::Method::PageHinkley,
                                 .threshold = 1.0,
                                 .delta = 0.0,
                                 .grace_samples = 0}};
  // A constant residual stream means the model is *consistently* wrong —
  // Page-Hinkley treats that as the norm and never fires.
  for (int i = 0; i < 500; ++i) {
    detector.feed(0.75);
  }
  EXPECT_FALSE(detector.fired());
  EXPECT_NEAR(detector.score(), 0.0, 1e-12);
  EXPECT_EQ(detector.samples(), 500u);
}

TEST(DriftTest, CusumFiresOnASustainedBias) {
  adapt::DriftDetector detector{{.method = adapt::DriftDetector::Method::Cusum,
                                 .threshold = 5.0,
                                 .delta = 0.005,
                                 .grace_samples = 0}};
  // CUSUM references zero, so the same constant bias accumulates.
  int fired_at = -1;
  for (int i = 0; i < 100; ++i) {
    if (detector.feed(0.5)) {
      fired_at = i;
      break;
    }
  }
  // 0.495 per sample crosses 5.0 on the 11th sample.
  EXPECT_EQ(fired_at, 10);
}

TEST(DriftTest, PageHinkleyFiresOnAChangePoint) {
  adapt::DriftDetector detector{{.method = adapt::DriftDetector::Method::PageHinkley,
                                 .threshold = 5.0,
                                 .delta = 0.005,
                                 .grace_samples = 30}};
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(detector.feed(0.0));
  }
  // Step shift: residuals jump to 1.0 and stay there.
  bool fired = false;
  for (int i = 0; i < 20 && !fired; ++i) {
    fired = detector.feed(1.0);
  }
  EXPECT_TRUE(fired);
  EXPECT_GT(detector.score(), 1.0);
}

TEST(DriftTest, DownwardShiftsFireTheOtherSide) {
  adapt::DriftDetector detector{{.method = adapt::DriftDetector::Method::PageHinkley,
                                 .threshold = 5.0,
                                 .delta = 0.005,
                                 .grace_samples = 0}};
  for (int i = 0; i < 50; ++i) {
    detector.feed(0.0);
  }
  bool fired = false;
  for (int i = 0; i < 20 && !fired; ++i) {
    fired = detector.feed(-1.0);
  }
  EXPECT_TRUE(fired);
}

TEST(DriftTest, GracePeriodSuppressesEarlyFirings) {
  adapt::DriftDetector detector{{.method = adapt::DriftDetector::Method::Cusum,
                                 .threshold = 1.0,
                                 .delta = 0.0,
                                 .grace_samples = 100}};
  // The statistic is far past the threshold after a handful of samples,
  // but the detector holds its fire until the grace period has passed.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(detector.feed(1.0)) << "sample " << i;
  }
  EXPECT_GT(detector.score(), 1.0);
  EXPECT_TRUE(detector.feed(1.0));  // sample 101: grace over
}

TEST(DriftTest, ThresholdBoundaryIsStrict) {
  adapt::DriftDetector detector{{.method = adapt::DriftDetector::Method::Cusum,
                                 .threshold = 10.0,
                                 .delta = 0.0,
                                 .grace_samples = 0}};
  // Ten unit residuals land the statistic exactly *at* the threshold:
  // firing requires strictly exceeding it.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(detector.feed(1.0)) << "sample " << i;
  }
  EXPECT_DOUBLE_EQ(detector.score(), 1.0);
  EXPECT_TRUE(detector.feed(1.0));  // 11.0 > 10.0
}

TEST(DriftTest, NonFiniteResidualsAreRejectedNotFolded) {
  adapt::DriftDetector detector{{.method = adapt::DriftDetector::Method::Cusum,
                                 .threshold = 5.0,
                                 .delta = 0.0,
                                 .grace_samples = 0}};
  detector.feed(1.0);
  const double score_before = detector.score();
  detector.feed(std::numeric_limits<double>::quiet_NaN());
  detector.feed(std::numeric_limits<double>::infinity());
  detector.feed(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(detector.rejected(), 3u);
  EXPECT_EQ(detector.samples(), 1u);  // garbage never counts as evidence
  EXPECT_DOUBLE_EQ(detector.score(), score_before);
  EXPECT_FALSE(detector.fired());
}

TEST(DriftTest, FiredStateIsStickyUntilReset) {
  adapt::DriftDetector detector{{.method = adapt::DriftDetector::Method::Cusum,
                                 .threshold = 1.0,
                                 .delta = 0.0,
                                 .grace_samples = 0}};
  detector.feed(2.0);
  ASSERT_TRUE(detector.fired());
  // Perfectly calibrated residuals afterwards do not un-fire it.
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(detector.feed(0.0));
  }
  detector.reset();
  EXPECT_FALSE(detector.fired());
  EXPECT_EQ(detector.samples(), 0u);
  EXPECT_EQ(detector.rejected(), 0u);
  EXPECT_DOUBLE_EQ(detector.score(), 0.0);
  // The reset detector accumulates fresh evidence from scratch.
  EXPECT_TRUE(detector.feed(2.0));
}

TEST(DriftTest, OptionsAreValidated) {
  EXPECT_THROW(adapt::DriftDetector({.threshold = 0.0}), Error);
  EXPECT_THROW(adapt::DriftDetector({.threshold = -1.0}), Error);
  EXPECT_THROW(adapt::DriftDetector({.threshold = std::nan("")}), Error);
  EXPECT_THROW(
      adapt::DriftDetector({.threshold = 1.0, .delta = -0.1}), Error);
}

// ---- SampleReservoir ---------------------------------------------------

core::KernelCharacterization labelled(int index) {
  core::KernelCharacterization sample;
  sample.instance_id = "kernel-" + std::to_string(index);
  return sample;
}

TEST(ReservoirTest, FillsToCapacityThenDisplacesUniformly) {
  adapt::SampleReservoir reservoir{{.capacity = 8, .seed = 42}};
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(reservoir.offer(labelled(i)));  // always stored while empty
  }
  EXPECT_EQ(reservoir.size(), 8u);
  std::uint64_t displaced = 0;
  for (int i = 8; i < 200; ++i) {
    displaced += reservoir.offer(labelled(i)) ? 1u : 0u;
  }
  EXPECT_EQ(reservoir.size(), 8u);  // bounded forever
  EXPECT_EQ(reservoir.seen(), 200u);
  // Algorithm R keeps offer n with probability capacity/(n+1): of 192
  // post-fill offers roughly 8 * ln(200/8) = 26 land. Any uniform
  // sampler lands well inside [5, 80].
  EXPECT_GT(displaced, 5u);
  EXPECT_LT(displaced, 80u);
  // Late offers are present: the reservoir is not a frozen prefix.
  bool any_late = false;
  for (const auto& item : reservoir.items()) {
    any_late = any_late || item.instance_id > "kernel-7";
  }
  EXPECT_TRUE(any_late);
}

TEST(ReservoirTest, SameSeedSameStreamSameContents) {
  adapt::SampleReservoir a{{.capacity = 4, .seed = 7}};
  adapt::SampleReservoir b{{.capacity = 4, .seed = 7}};
  for (int i = 0; i < 100; ++i) {
    a.offer(labelled(i));
    b.offer(labelled(i));
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.items()[i].instance_id, b.items()[i].instance_id) << i;
  }
}

TEST(ReservoirTest, DifferentSeedsDiverge) {
  adapt::SampleReservoir a{{.capacity = 4, .seed = 7}};
  adapt::SampleReservoir b{{.capacity = 4, .seed = 8}};
  for (int i = 0; i < 100; ++i) {
    a.offer(labelled(i));
    b.offer(labelled(i));
  }
  bool differs = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differs = differs || a.items()[i].instance_id != b.items()[i].instance_id;
  }
  EXPECT_TRUE(differs);
}

TEST(ReservoirTest, ClearRestartsTheStream) {
  adapt::SampleReservoir reservoir{{.capacity = 4, .seed = 7}};
  for (int i = 0; i < 50; ++i) {
    reservoir.offer(labelled(i));
  }
  reservoir.clear();
  EXPECT_EQ(reservoir.size(), 0u);
  EXPECT_EQ(reservoir.seen(), 0u);
  // Refilling replays the same decisions as a fresh reservoir.
  adapt::SampleReservoir fresh{{.capacity = 4, .seed = 7}};
  for (int i = 0; i < 50; ++i) {
    reservoir.offer(labelled(i));
    fresh.offer(labelled(i));
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(reservoir.items()[i].instance_id, fresh.items()[i].instance_id);
  }
}

// ---- ModelRegistry retention -------------------------------------------

TEST(RegistryRetentionTest, UnboundedByDefault) {
  serve::ModelRegistry registry;
  for (int i = 0; i < 10; ++i) {
    registry.publish(core::make_predictor(core::TrainedModel{}));
  }
  EXPECT_EQ(registry.version_count(), 10u);
  EXPECT_EQ(registry.pruned(), 0u);
}

TEST(RegistryRetentionTest, RetainLimitPrunesOldestVersions) {
  serve::ModelRegistry registry{{.retain_limit = 3}};
  for (int i = 0; i < 8; ++i) {
    registry.publish(core::make_predictor(core::TrainedModel{}));
  }
  EXPECT_EQ(registry.version_count(), 3u);
  EXPECT_EQ(registry.pruned(), 5u);
  EXPECT_EQ(registry.versions(), (std::vector<std::uint64_t>{6, 7, 8}));
  EXPECT_EQ(registry.current().version, 8u);
  // The pruned versions are really gone; the retained ones resolve.
  EXPECT_EQ(registry.get(1), nullptr);
  EXPECT_NE(registry.get(6), nullptr);
}

TEST(RegistryRetentionTest, RollbackTargetSurvivesPruning) {
  serve::ModelRegistry registry{{.retain_limit = 2}};
  for (int i = 0; i < 6; ++i) {
    registry.publish(core::make_predictor(core::TrainedModel{}));
  }
  EXPECT_EQ(registry.version_count(), 2u);
  // previous_of(current) was never pruned, so rollback still works.
  EXPECT_EQ(registry.previous_of(registry.current().version).version, 5u);
  EXPECT_EQ(registry.rollback(), 5u);
  EXPECT_EQ(registry.current().version, 5u);
}

TEST(RegistryRetentionTest, LimitsBelowTwoAreClampedToTwo) {
  serve::ModelRegistry registry{{.retain_limit = 1}};
  for (int i = 0; i < 5; ++i) {
    registry.publish(core::make_predictor(core::TrainedModel{}));
  }
  // A limit of 1 would prune the rollback target; it is treated as 2.
  EXPECT_EQ(registry.version_count(), 2u);
  EXPECT_NO_THROW(registry.rollback());
}

TEST(RegistryRetentionTest, RolledBackCurrentIsNeverPruned) {
  serve::ModelRegistry registry{{.retain_limit = 2}};
  registry.publish(core::make_predictor(core::TrainedModel{}));
  registry.publish(core::make_predictor(core::TrainedModel{}));
  registry.rollback();  // current is now the *older* of the two
  ASSERT_EQ(registry.current().version, 1u);
  // Publishing more versions prunes history, but never past current.
  registry.publish(core::make_predictor(core::TrainedModel{}));
  EXPECT_NE(registry.get(registry.current().version), nullptr);
  EXPECT_EQ(registry.current().version, 3u);
}

// ---- Promoter ----------------------------------------------------------

std::shared_ptr<const core::TrainedModel> dummy_model() {
  return std::make_shared<const core::TrainedModel>();
}

TEST(PromoterTest, CleanProbationKeepsThePromotedModel) {
  serve::ModelRegistry registry;
  registry.publish(core::make_predictor(core::TrainedModel{}));  // v1: the incumbent
  adapt::Promoter promoter{registry,
                           {.probation_observations = 4, .rollback_margin = 0.1}};
  EXPECT_EQ(promoter.promote(dummy_model(), 0.2), 2u);
  EXPECT_TRUE(promoter.in_probation());
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(promoter.observe_live_error(0.25));  // within margin
  }
  EXPECT_FALSE(promoter.in_probation());
  EXPECT_EQ(registry.current().version, 2u);
  EXPECT_EQ(promoter.promotions(), 1u);
  EXPECT_EQ(promoter.rollbacks(), 0u);
}

TEST(PromoterTest, BrokenPromiseRollsBack) {
  serve::ModelRegistry registry;
  registry.publish(core::make_predictor(core::TrainedModel{}));
  adapt::Promoter promoter{registry,
                           {.probation_observations = 4, .rollback_margin = 0.1}};
  promoter.promote(dummy_model(), 0.1);
  bool rolled_back = false;
  for (int i = 0; i < 4; ++i) {
    rolled_back = promoter.observe_live_error(0.5);  // far above the promise
  }
  EXPECT_TRUE(rolled_back);
  EXPECT_EQ(registry.current().version, 1u);
  EXPECT_EQ(promoter.rollbacks(), 1u);
  EXPECT_FALSE(promoter.in_probation());
}

TEST(PromoterTest, RollbackYieldsWhenCurrentMovedElsewhere) {
  serve::ModelRegistry registry;
  registry.publish(core::make_predictor(core::TrainedModel{}));
  adapt::Promoter promoter{registry, {.probation_observations = 2}};
  promoter.promote(dummy_model(), 0.0);
  // An operator publishes v3 mid-probation: the promoter must not yank
  // the registry out from under them.
  registry.publish(core::make_predictor(core::TrainedModel{}));
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(promoter.observe_live_error(1.0));
  }
  EXPECT_EQ(registry.current().version, 3u);
  EXPECT_EQ(promoter.rollbacks(), 0u);
}

TEST(PromoterTest, ColdStartPromotionHasNoRollbackTarget) {
  serve::ModelRegistry registry;  // empty: the promotion is version 1
  adapt::Promoter promoter{registry, {.probation_observations = 2}};
  promoter.promote(dummy_model(), 0.0);
  // Even a badly broken promise cannot roll back past the only model.
  for (int i = 0; i < 2; ++i) {
    EXPECT_FALSE(promoter.observe_live_error(1.0));
  }
  EXPECT_EQ(registry.current().version, 1u);
  EXPECT_EQ(promoter.rollbacks(), 0u);
}

TEST(PromoterTest, NonFiniteErrorsAreIgnored) {
  serve::ModelRegistry registry;
  registry.publish(core::make_predictor(core::TrainedModel{}));
  adapt::Promoter promoter{registry, {.probation_observations = 2}};
  promoter.promote(dummy_model(), 0.0);
  EXPECT_FALSE(promoter.observe_live_error(std::nan("")));
  EXPECT_TRUE(promoter.in_probation());  // the window did not advance
}

// ---- selection_quality / CanaryEvaluator (model-free paths) ------------

TEST(CanaryTest, CorruptModelScoresAsTotalLoss) {
  const core::KernelCharacterization truth;  // never consulted: predict throws
  const adapt::SelectionQuality quality = adapt::selection_quality(
      core::TrainedModel{}, truth, 30.0, core::SchedulingGoal::MaxPerformance,
      {});
  EXPECT_TRUE(quality.failed);
  EXPECT_TRUE(quality.violation);
  EXPECT_DOUBLE_EQ(quality.error, 1.0);
}

TEST(CanaryTest, PredictFailureIsAHardReject) {
  adapt::CanaryOptions options;
  options.shadow_fraction = 1.0;  // score every offer
  options.min_evals = 4;
  auto corrupt = dummy_model();
  adapt::CanaryEvaluator canary{corrupt, dummy_model(), options};
  // The very first scored offer observes a predict() throw and rejects —
  // long before min_evals would allow an accept.
  canary.offer_labelled(core::KernelCharacterization{}, 30.0,
                        core::SchedulingGoal::MaxPerformance, {});
  ASSERT_TRUE(canary.decided());
  EXPECT_FALSE(canary.verdict().accepted);
  EXPECT_EQ(canary.verdict().reason, "candidate failed to predict");
  EXPECT_EQ(canary.verdict().candidate_failures, 1u);
}

TEST(CanaryTest, InsufficientEvidenceRejectsAtMaxObservations) {
  adapt::CanaryOptions options;
  options.shadow_fraction = 1e-12;  // effectively never scores
  options.min_evals = 4;
  options.max_observations = 16;
  adapt::CanaryEvaluator canary{dummy_model(), dummy_model(), options};
  for (int i = 0; i < 16; ++i) {
    ASSERT_FALSE(canary.decided()) << "offer " << i;
    canary.offer_labelled(core::KernelCharacterization{}, std::nullopt,
                          core::SchedulingGoal::MaxPerformance, {});
  }
  ASSERT_TRUE(canary.decided());
  EXPECT_FALSE(canary.verdict().accepted);
  EXPECT_EQ(canary.verdict().reason,
            "insufficient evidence before max_observations");
}

TEST(CanaryTest, OptionsAreValidated) {
  adapt::CanaryOptions bad_fraction;
  bad_fraction.shadow_fraction = 0.0;
  EXPECT_THROW(
      (adapt::CanaryEvaluator{dummy_model(), dummy_model(), bad_fraction}),
      Error);
  adapt::CanaryOptions bad_window;
  bad_window.min_evals = 64;
  bad_window.max_observations = 32;
  EXPECT_THROW(
      (adapt::CanaryEvaluator{dummy_model(), dummy_model(), bad_window}),
      Error);
  EXPECT_THROW((adapt::CanaryEvaluator{nullptr, dummy_model(), {}}), Error);
}

// ---- variance gate ------------------------------------------------------

/// A Predictor whose estimates are scripted: a (power, performance) ramp
/// with a tunable power bias and one power sigma — enough to steer both
/// the scheduler's choice and the canary's uncertainty accounting. A
/// positive bias makes the stub overestimate power and select a slower
/// configuration than the measured optimum (a real, nonzero error).
class StubPredictor final : public core::Predictor {
 public:
  StubPredictor(double power_sigma, double power_bias_w)
      : power_sigma_(power_sigma), power_bias_w_(power_bias_w) {}

  std::string_view kind() const override { return "stub"; }
  std::size_t cluster_count() const override { return 1; }
  const hw::ConfigSpace& config_space() const override { return space_; }
  std::size_t classify(const core::SamplePair&) const override { return 0; }

  core::Prediction predict(const core::SamplePair&) const override {
    core::Prediction prediction;
    const std::size_t n = space_.size();
    std::vector<double> power(n), perf(n);
    for (std::size_t i = 0; i < n; ++i) {
      power[i] = 10.0 + static_cast<double>(i) + power_bias_w_;
      perf[i] = 100.0 + static_cast<double>(i);
      prediction.per_config.push_back(
          {power[i], perf[i], power_sigma_, 0.0});
    }
    prediction.frontier = pareto::ParetoFrontier::build(power, perf);
    return prediction;
  }

  std::string serialize_body() const override { return ""; }

 private:
  double power_sigma_ = 0.0;
  double power_bias_w_ = 0.0;
  hw::ConfigSpace space_;
};

/// A truth whose measurements exactly match the stub's ramp: both models
/// select oracle-equal configurations, so acceptance hinges purely on the
/// margins under test.
core::KernelCharacterization ramp_truth() {
  core::KernelCharacterization truth;
  const hw::ConfigSpace space;
  for (std::size_t i = 0; i < space.size(); ++i) {
    profile::KernelRecord record;
    record.config = space.at(i);
    record.cpu_power_w = 10.0 + static_cast<double>(i);
    record.nbgpu_power_w = 0.0;
    record.time_ms = 1000.0 / (100.0 + static_cast<double>(i));
    truth.per_config.push_back(record);
  }
  return truth;
}

/// Drives one evaluator to a verdict against ramp_truth() under a 30 W
/// cap (the candidate is unbiased, the incumbent overestimates power by
/// 5 W, so the candidate beats it on selection error every round).
adapt::CanaryVerdict run_ramp_canary(double candidate_sigma,
                                     double incumbent_sigma,
                                     const adapt::CanaryOptions& options) {
  auto candidate =
      std::make_shared<const StubPredictor>(candidate_sigma, 0.0);
  auto incumbent =
      std::make_shared<const StubPredictor>(incumbent_sigma, 5.0);
  adapt::CanaryEvaluator canary{candidate, incumbent, options};
  const core::KernelCharacterization truth = ramp_truth();
  while (!canary.decided()) {
    canary.offer_labelled(truth, 30.0, core::SchedulingGoal::MaxPerformance,
                          {});
  }
  return canary.verdict();
}

TEST(CanaryTest, UncertainCandidateIsRejectedByTheVarianceGate) {
  // The candidate wins on error but states a far wider power sigma than
  // the incumbent — precisely the drift-risk shape the gate exists for.
  adapt::CanaryOptions options;
  options.shadow_fraction = 1.0;
  options.min_evals = 4;
  const adapt::CanaryVerdict verdict = run_ramp_canary(8.0, 0.5, options);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.reason, "too uncertain at selected configurations");
  EXPECT_LT(verdict.candidate_error, verdict.incumbent_error);
  EXPECT_DOUBLE_EQ(verdict.candidate_power_sigma, 8.0);
  EXPECT_DOUBLE_EQ(verdict.incumbent_power_sigma, 0.5);
}

TEST(CanaryTest, CandidateWithinTheUncertaintyMarginIsAccepted) {
  adapt::CanaryOptions options;
  options.shadow_fraction = 1.0;
  options.min_evals = 3;
  // 2.0 <= 1.0 * (1 + 1.0) + 0.25 under the default margins.
  const adapt::CanaryVerdict verdict = run_ramp_canary(2.0, 1.0, options);
  EXPECT_TRUE(verdict.accepted);
  EXPECT_EQ(verdict.reason, "beat incumbent by margin");
  EXPECT_DOUBLE_EQ(verdict.candidate_power_sigma, 2.0);
  EXPECT_DOUBLE_EQ(verdict.incumbent_power_sigma, 1.0);
}

TEST(CanaryTest, NegativeUncertaintyMarginDisablesTheGate) {
  adapt::CanaryOptions options;
  options.shadow_fraction = 1.0;
  options.min_evals = 3;
  options.uncertainty_margin = -1.0;  // gate off
  const adapt::CanaryVerdict verdict = run_ramp_canary(50.0, 0.1, options);
  EXPECT_TRUE(verdict.accepted);
  EXPECT_EQ(verdict.reason, "beat incumbent by margin");
}

TEST(CanaryTest, SelectionQualityReportsTheSelectedConfigSigma) {
  const StubPredictor stub{3.5, 0.0};
  const adapt::SelectionQuality quality = adapt::selection_quality(
      stub, ramp_truth(), 30.0, core::SchedulingGoal::MaxPerformance, {});
  EXPECT_FALSE(quality.failed);
  EXPECT_DOUBLE_EQ(quality.error, 0.0);
  EXPECT_DOUBLE_EQ(quality.selected_power_sigma, 3.5);
}

// ---- AdaptController input guards --------------------------------------

TEST(AdaptControllerTest, ObservationsWithoutAModelAreCountedOnly) {
  obs::Registry metrics;
  serve::ModelRegistry registry;  // nothing published
  adapt::AdaptOptions options;
  options.metrics = &metrics;
  adapt::AdaptController controller{registry, exec::inline_executor(), {},
                                    options};
  adapt::Feedback feedback;
  feedback.predicted_power_w = 10.0;
  feedback.predicted_performance = 1.0;
  feedback.measured_power_w = 20.0;
  feedback.measured_performance = 0.5;
  controller.observe(feedback);
  const adapt::AdaptStats stats = controller.adapt_stats();
  EXPECT_EQ(stats.observations, 1u);
  EXPECT_EQ(stats.rejected_residuals, 0u);
  EXPECT_EQ(stats.drift_events, 0u);
  EXPECT_EQ(stats.reservoir_size, 0u);
}

TEST(AdaptControllerTest, NonFiniteFeedbackIsRejected) {
  obs::Registry metrics;
  serve::ModelRegistry registry;
  adapt::AdaptOptions options;
  options.metrics = &metrics;
  adapt::AdaptController controller{registry, exec::inline_executor(), {},
                                    options};
  adapt::Feedback feedback;
  feedback.predicted_power_w = std::nan("");
  feedback.measured_power_w = 10.0;
  controller.observe(feedback);
  feedback.predicted_power_w = 10.0;
  feedback.measured_performance = std::numeric_limits<double>::infinity();
  controller.observe(feedback);
  const adapt::AdaptStats stats = controller.adapt_stats();
  EXPECT_EQ(stats.observations, 2u);
  EXPECT_EQ(stats.rejected_residuals, 2u);
  EXPECT_EQ(metrics.counter("adapt.rejected_residuals").value(), 2u);
}

TEST(AdaptControllerTest, BeginCanaryRequiresAnIncumbent) {
  obs::Registry metrics;
  serve::ModelRegistry registry;
  adapt::AdaptOptions options;
  options.metrics = &metrics;
  adapt::AdaptController controller{registry, exec::inline_executor(), {},
                                    options};
  EXPECT_THROW(controller.begin_canary(nullptr), Error);
  EXPECT_THROW(controller.begin_canary(dummy_model()), Error);  // no incumbent
  registry.publish(core::make_predictor(core::TrainedModel{}));
  controller.begin_canary(dummy_model());
  EXPECT_TRUE(controller.canary_active());
  EXPECT_THROW(controller.begin_canary(dummy_model()), Error);  // one at a time
}

}  // namespace
}  // namespace acsel
