#include "adapt/canary.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace acsel::adapt {

namespace {

/// Absolute sigma headroom of the canary's variance gate, W.
constexpr double kUncertaintyFloorW = 0.25;

}  // namespace

SelectionQuality selection_quality(const core::Predictor& model,
                                   const core::KernelCharacterization& truth,
                                   std::optional<double> cap_w,
                                   core::SchedulingGoal goal,
                                   const core::SchedulerOptions& scheduler) {
  SelectionQuality quality;
  core::Scheduler::Choice choice;
  try {
    const core::Prediction prediction = model.predict(truth.samples);
    choice = core::Scheduler{prediction, scheduler}.select_goal(goal, cap_w);
    quality.selected_power_sigma =
        prediction.per_config[choice.config_index].power_sigma;
  } catch (const std::exception&) {
    // A model that cannot even predict scores as total loss: worst error,
    // a violation, and the failure flag the canary hard-rejects on.
    quality.error = 1.0;
    quality.violation = true;
    quality.failed = true;
    return quality;
  }

  const std::vector<double> powers = truth.powers();
  const std::vector<double> performances = truth.performances();
  ACSEL_CHECK_MSG(choice.config_index < performances.size(),
                  "selected configuration outside the measured space");

  // Oracle: the best measured performance among cap-feasible
  // configurations. When the cap is measured-infeasible everywhere the
  // unconstrained best is the fairest yardstick — no model could do
  // better, and neither is penalized for physics.
  double best = 0.0;
  bool any_feasible = false;
  for (std::size_t i = 0; i < performances.size(); ++i) {
    if (!cap_w.has_value() || powers[i] <= *cap_w) {
      best = std::max(best, performances[i]);
      any_feasible = true;
    }
  }
  if (!any_feasible) {
    for (const double perf : performances) best = std::max(best, perf);
  }

  const double achieved = performances[choice.config_index];
  if (best > 0.0) {
    quality.error = std::max(0.0, 1.0 - achieved / best);
  }
  quality.violation = cap_w.has_value() && any_feasible &&
                      powers[choice.config_index] > *cap_w;
  return quality;
}

CanaryEvaluator::CanaryEvaluator(core::PredictorPtr candidate,
                                 core::PredictorPtr incumbent,
                                 const CanaryOptions& options)
    : candidate_(std::move(candidate)),
      incumbent_(std::move(incumbent)),
      options_(options) {
  ACSEL_CHECK_MSG(candidate_ != nullptr && incumbent_ != nullptr,
                  "canary needs both a candidate and an incumbent");
  ACSEL_CHECK_MSG(
      options.shadow_fraction > 0.0 && options.shadow_fraction <= 1.0,
      "canary shadow_fraction must be in (0, 1]");
  ACSEL_CHECK_MSG(options.min_evals > 0, "canary min_evals must be > 0");
  ACSEL_CHECK_MSG(options.max_observations >= options.min_evals,
                  "canary max_observations must cover min_evals");
}

bool CanaryEvaluator::offer_labelled(const core::KernelCharacterization& truth,
                                     std::optional<double> cap_w,
                                     core::SchedulingGoal goal,
                                     const core::SchedulerOptions& scheduler) {
  if (verdict_.decided) return false;
  const std::uint64_t n = labelled_offers_++;
  // Deterministic per-offer coin: stream 2n of the seed family (shadow
  // offers use the odd streams), a pure function of (seed, offer index).
  Rng rng{Rng::mix_seeds(options_.seed, 2 * n)};
  const bool scored = rng.uniform() < options_.shadow_fraction;
  if (scored) {
    const SelectionQuality candidate =
        selection_quality(*candidate_, truth, cap_w, goal, scheduler);
    const SelectionQuality incumbent =
        selection_quality(*incumbent_, truth, cap_w, goal, scheduler);
    ++verdict_.evals;
    candidate_error_sum_ += candidate.error;
    incumbent_error_sum_ += incumbent.error;
    if (candidate.violation) ++candidate_violations_;
    if (incumbent.violation) ++incumbent_violations_;
    if (candidate.failed) ++verdict_.candidate_failures;
    candidate_sigma_sum_ += candidate.selected_power_sigma;
    incumbent_sigma_sum_ += incumbent.selected_power_sigma;
  }
  decide_if_ready();
  return scored;
}

bool CanaryEvaluator::offer_shadow(const core::SamplePair& samples) {
  if (verdict_.decided) return false;
  const std::uint64_t n = shadow_offers_++;
  Rng rng{Rng::mix_seeds(options_.seed, 2 * n + 1)};
  const bool exercised = rng.uniform() < options_.shadow_fraction;
  if (exercised) {
    try {
      (void)candidate_->predict(samples);
    } catch (const std::exception&) {
      ++verdict_.candidate_failures;
    }
  }
  decide_if_ready();
  return exercised;
}

void CanaryEvaluator::decide_if_ready() {
  if (verdict_.decided) return;
  if (verdict_.candidate_failures > 0) {
    decide(false, "candidate failed to predict");
    return;
  }
  if (verdict_.evals >= options_.min_evals) {
    const double evals = static_cast<double>(verdict_.evals);
    const double cand_err = candidate_error_sum_ / evals;
    const double inc_err = incumbent_error_sum_ / evals;
    const double cand_viol = static_cast<double>(candidate_violations_) / evals;
    const double inc_viol = static_cast<double>(incumbent_violations_) / evals;
    verdict_.candidate_error = cand_err;
    verdict_.incumbent_error = inc_err;
    verdict_.candidate_violation_rate = cand_viol;
    verdict_.incumbent_violation_rate = inc_viol;
    const double cand_sigma = candidate_sigma_sum_ / evals;
    const double inc_sigma = incumbent_sigma_sum_ / evals;
    verdict_.candidate_power_sigma = cand_sigma;
    verdict_.incumbent_power_sigma = inc_sigma;
    // Violations fold into the comparison at violation_penalty weight —
    // under a cap, a selection that breaks it is not a free lunch even
    // when its measured performance tops the feasible oracle's.
    const double cand_score =
        cand_err + options_.violation_penalty * cand_viol;
    const double inc_score = inc_err + options_.violation_penalty * inc_viol;
    const double improvement = inc_score - cand_score;
    const bool better = improvement > 0.0 &&
                        improvement >= options_.error_margin * inc_score &&
                        cand_viol <= inc_viol + options_.violation_margin;
    const bool certain_enough =
        options_.uncertainty_margin < 0.0 ||
        cand_sigma <= inc_sigma * (1.0 + options_.uncertainty_margin) +
                          kUncertaintyFloorW;
    const bool accepted = better && certain_enough;
    decide(accepted, accepted ? "beat incumbent by margin"
                     : !better ? "did not beat incumbent by margin"
                               : "too uncertain at selected configurations");
    return;
  }
  if (labelled_offers_ + shadow_offers_ >= options_.max_observations) {
    decide(false, "insufficient evidence before max_observations");
  }
}

void CanaryEvaluator::decide(bool accepted, std::string reason) {
  verdict_.decided = true;
  verdict_.accepted = accepted;
  verdict_.reason = std::move(reason);
  if (verdict_.evals > 0 && verdict_.candidate_error == 0.0 &&
      verdict_.incumbent_error == 0.0 && verdict_.candidate_failures > 0) {
    // A failure-triggered early decision never computed the means; fill
    // them for the verdict's observers.
    const double evals = static_cast<double>(verdict_.evals);
    verdict_.candidate_error = candidate_error_sum_ / evals;
    verdict_.incumbent_error = incumbent_error_sum_ / evals;
    verdict_.candidate_violation_rate =
        static_cast<double>(candidate_violations_) / evals;
    verdict_.incumbent_violation_rate =
        static_cast<double>(incumbent_violations_) / evals;
  }
}

}  // namespace acsel::adapt
