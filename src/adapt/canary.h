// Shadow/canary evaluation: the gate between "a retrain produced a
// candidate model" and "that model serves traffic". The candidate
// shadow-predicts a configurable fraction of live labelled requests
// alongside the incumbent; both are scored against the measured truth
// (selection error and cap-violation rate), and only a candidate that
// beats the incumbent by margin is accepted. A candidate whose predict()
// throws even once is rejected outright — a corrupted model must never
// reach the registry, however good its numbers elsewhere look.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/characterization.h"
#include "core/predictor.h"
#include "core/scheduler.h"

namespace acsel::adapt {

/// How one model's selection fared against one kernel's measured truth.
struct SelectionQuality {
  /// Relative performance loss vs. the best measured cap-feasible
  /// configuration: 0 is oracle-equal, 1 is total loss.
  double error = 0.0;
  /// Whether the selected configuration's *measured* power exceeded the
  /// cap while some configuration could have met it.
  bool violation = false;
  /// Whether the model failed outright (predict threw).
  bool failed = false;
  /// Predicted power sigma of the selected configuration — the model's
  /// own stated uncertainty at the operating point it chose (0 on
  /// failure, and for predictors that report no variance).
  double selected_power_sigma = 0.0;
};

/// Scores one model's goal-directed selection for `truth`: predict from
/// the kernel's sample pair, select under `cap_w`, then judge the chosen
/// configuration by the kernel's measured per-configuration arrays.
SelectionQuality selection_quality(const core::Predictor& model,
                                   const core::KernelCharacterization& truth,
                                   std::optional<double> cap_w,
                                   core::SchedulingGoal goal,
                                   const core::SchedulerOptions& scheduler);

struct CanaryOptions {
  /// Fraction of labelled live requests the canary scores (deterministic
  /// per-observation coin from `seed`, not modulo arithmetic, so any
  /// request pattern is sampled uniformly).
  double shadow_fraction = 0.5;
  /// Scored labelled observations required before a verdict.
  std::size_t min_evals = 12;
  /// Required relative improvement: candidate error must undercut the
  /// incumbent's by at least this fraction of the incumbent's error.
  double error_margin = 0.05;
  /// Candidate cap-violation rate may exceed the incumbent's by at most
  /// this much.
  double violation_margin = 0.0;
  /// Weight of a cap violation folded into the error comparison: each
  /// side's score is error + violation_penalty * violation_rate. 0 (the
  /// default) keeps the legacy behavior — violations only veto, never
  /// count as improvement. Cross-architecture transfer needs this > 0: a
  /// mis-deployed model can score error 0 by blowing the cap on every
  /// request, and no honest candidate beats error 0.
  double violation_penalty = 0.0;
  /// Observations (scored or skipped) after which an undecided canary is
  /// rejected for insufficient evidence rather than held open forever.
  std::size_t max_observations = 512;
  /// Variance gate: a candidate whose mean selected-config power sigma
  /// exceeds the incumbent's by more than this *relative* margin (plus
  /// 0.25 W of absolute headroom, so a near-zero-sigma incumbent doesn't
  /// make the gate impossibly tight) is rejected even
  /// when its error beats the incumbent — a model that is accurate on the
  /// canary window but far less certain is a drift risk. Negative
  /// disables the gate.
  double uncertainty_margin = 1.0;
  std::uint64_t seed = 0xca9a11e5ull;
};

struct CanaryVerdict {
  bool decided = false;
  bool accepted = false;
  std::size_t evals = 0;
  double candidate_error = 0.0;
  double incumbent_error = 0.0;
  double candidate_violation_rate = 0.0;
  double incumbent_violation_rate = 0.0;
  std::size_t candidate_failures = 0;
  /// Mean predicted power sigma at the selected configuration.
  double candidate_power_sigma = 0.0;
  double incumbent_power_sigma = 0.0;
  std::string reason;
};

/// One candidate's trial. Not thread-safe — the controller serializes
/// access under its own lock.
class CanaryEvaluator {
 public:
  CanaryEvaluator(core::PredictorPtr candidate, core::PredictorPtr incumbent,
                  const CanaryOptions& options = {});

  /// Offers one labelled live observation. Scores it with probability
  /// shadow_fraction (both models, same truth); may decide the verdict.
  /// Returns whether the observation was scored.
  bool offer_labelled(const core::KernelCharacterization& truth,
                      std::optional<double> cap_w, core::SchedulingGoal goal,
                      const core::SchedulerOptions& scheduler);

  /// Offers one unlabelled live request: the candidate shadow-predicts
  /// only (failure detection — no truth to score against). Returns
  /// whether the candidate was exercised.
  bool offer_shadow(const core::SamplePair& samples);

  bool decided() const { return verdict_.decided; }
  const CanaryVerdict& verdict() const { return verdict_; }
  const core::PredictorPtr& candidate() const { return candidate_; }

 private:
  void decide_if_ready();
  void decide(bool accepted, std::string reason);

  core::PredictorPtr candidate_;
  core::PredictorPtr incumbent_;
  CanaryOptions options_;
  CanaryVerdict verdict_;
  std::uint64_t labelled_offers_ = 0;
  std::uint64_t shadow_offers_ = 0;
  double candidate_error_sum_ = 0.0;
  double incumbent_error_sum_ = 0.0;
  std::size_t candidate_violations_ = 0;
  std::size_t incumbent_violations_ = 0;
  double candidate_sigma_sum_ = 0.0;
  double incumbent_sigma_sum_ = 0.0;
};

}  // namespace acsel::adapt
