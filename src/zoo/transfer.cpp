#include "zoo/transfer.h"

#include <algorithm>
#include <cmath>

#include "adapt/canary.h"
#include "core/model.h"
#include "eval/characterize.h"
#include "util/error.h"
#include "workloads/suite.h"
#include "zoo/fingerprint.h"

namespace acsel::zoo {

namespace {

/// Power cap as a quantile of each *serving* archetype's per-config power
/// range — a fixed wattage would be trivially infeasible on the HPC node
/// and trivially slack on the edge class.
constexpr double kCapQuantile = 0.6;
/// Adapt rounds before giving up on recovery (each round feeds every
/// kernel's feedback once).
constexpr int kMaxRounds = 30;

/// The adapt tuning of the transfer loop, mirroring bench/adapt_loop: a
/// CUSUM detector so a rejected canary can re-fire on the still-biased
/// residuals, full shadowing, and a cluster budget sized for the
/// reservoir of serve-machine observations.
adapt::AdaptOptions transfer_adapt_options(const TransferOptions& transfer) {
  adapt::AdaptOptions options;
  options.drift.method = adapt::DriftDetector::Method::Cusum;
  options.drift.threshold = 2.0;
  options.drift.delta = 0.02;
  options.drift.grace_samples = 8;
  options.canary.shadow_fraction = 1.0;
  options.canary.min_evals = 8;
  options.canary.error_margin = 0.02;
  // Without the penalty a cap-blowing incumbent posts error 0 and no
  // honest candidate can ever beat it (see CanaryOptions).
  options.canary.violation_penalty = transfer.violation_penalty;
  // With violations priced into the score, the separate hard violation
  // gate double-counts: an over-conservative incumbent (0 violations,
  // huge performance loss) would veto every honest candidate whose
  // violation rate matches the serve machine's own matched model.
  options.canary.violation_margin = 1.0;
  // The variance gate compares against the incumbent's *stated* sigma —
  // on a foreign architecture the mis-deployed incumbent is confidently
  // wrong (its tiny sigma describes the machine it was trained on), so
  // an honest candidate that reports the serve machine's real spread
  // would be rejected for truthfulness. Off for cross-machine transfer.
  options.canary.uncertainty_margin = -1.0;
  options.promoter.probation_observations = 12;
  options.trainer.clusters = 8;
  options.goal = transfer.goal;
  return options;
}

adapt::Feedback feedback_for(const core::Predictor& model,
                             const core::KernelCharacterization& truth,
                             double cap_w, core::SchedulingGoal goal) {
  // The serving fiction of a cross-architecture deployment: samples are
  // measured on the *serving* machine (they are all the online stage
  // ever has), predictions come from whatever model is current, and the
  // measured outcome is the serving machine's truth at the chosen config.
  const core::Prediction prediction = model.predict(truth.samples);
  const core::Scheduler::Choice choice =
      core::Scheduler{prediction}.select_goal(goal, cap_w);
  adapt::Feedback feedback;
  feedback.samples = truth.samples;
  feedback.predicted_power_w = choice.predicted_power_w;
  feedback.predicted_performance = choice.predicted_performance;
  feedback.measured_power_w = truth.powers()[choice.config_index];
  feedback.measured_performance = truth.performances()[choice.config_index];
  feedback.cap_w = cap_w;
  feedback.label = truth;
  return feedback;
}

}  // namespace

TransferEval::TransferEval(TransferOptions options)
    : options_(options), cache_(kArchetypeCount) {
  ACSEL_CHECK_MSG(options_.kernels >= 2, "transfer needs >= 2 kernels");
}

double TransferEval::mean_error(const core::Predictor& model,
                                const ArchData& serve,
                                double* violation_rate) const {
  double error_sum = 0.0;
  std::size_t violations = 0;
  for (const core::KernelCharacterization& truth : serve.truths) {
    const adapt::SelectionQuality quality = adapt::selection_quality(
        model, truth, serve.cap_w, options_.goal, {});
    error_sum += quality.error;
    violations += quality.violation ? 1 : 0;
  }
  const double n = static_cast<double>(serve.truths.size());
  if (violation_rate != nullptr) {
    *violation_rate = static_cast<double>(violations) / n;
  }
  return error_sum / n;
}

const ArchData& TransferEval::data(Archetype archetype) {
  std::optional<ArchData>& slot = cache_[static_cast<std::size_t>(archetype)];
  if (slot.has_value()) {
    return *slot;
  }
  const ArchetypeCatalog catalog{options_.seed};
  const soc::Machine machine = catalog.make_machine(archetype);
  const auto suite = workloads::Suite::standard();

  ArchData data;
  data.archetype = archetype;
  data.fingerprint = fingerprint_of(catalog.spec(archetype));
  for (std::size_t i = 0; i < options_.kernels && i < suite.size(); ++i) {
    soc::Machine clone = machine.clone(i);
    data.truths.push_back(
        eval::characterize_instance(clone, suite.instances()[i]));
  }

  // The cap sits at a quantile of this machine's measured per-config
  // power distribution, so every archetype gets a comparably *hard*
  // constraint in its own wattage regime.
  std::vector<double> powers;
  for (const core::KernelCharacterization& truth : data.truths) {
    const std::vector<double> p = truth.powers();
    powers.insert(powers.end(), p.begin(), p.end());
  }
  std::sort(powers.begin(), powers.end());
  data.cap_w = powers[static_cast<std::size_t>(
      kCapQuantile * static_cast<double>(powers.size() - 1))];

  data.model = core::make_predictor(core::train(data.truths).model);
  data.matched_error =
      mean_error(*data.model, data, &data.matched_violation_rate);
  data.matched_score = data.matched_error +
                       options_.violation_penalty *
                           data.matched_violation_rate;
  slot = std::move(data);
  return *slot;
}

TransferResult TransferEval::run(Archetype train_arch, Archetype serve_arch) {
  const ArchData& trained = data(train_arch);
  const ArchData& serving = data(serve_arch);

  const auto score = [this](double error, double violation_rate) {
    return error + options_.violation_penalty * violation_rate;
  };
  TransferResult result;
  result.train_arch = train_arch;
  result.serve_arch = serve_arch;
  result.matched_error = serving.matched_error;
  result.matched_score = serving.matched_score;
  result.mismatched_error = mean_error(*trained.model, serving,
                                       &result.mismatched_violation_rate);
  result.mismatched_score =
      score(result.mismatched_error, result.mismatched_violation_rate);
  if (train_arch == serve_arch) {
    result.recovered_error = result.mismatched_error;
    result.recovered_violation_rate = result.mismatched_violation_rate;
    result.recovered_score = result.mismatched_score;
    return result;
  }

  // The adaptation leg: a registry seeded with A's model (keyed by A's
  // fingerprint — this *is* the mis-deployment), fed B's live feedback.
  // Seed data is empty on purpose: in a workload shift the old truths
  // still describe the machine, but here they are labels from a foreign
  // architecture — mixing them into the retrain set teaches the
  // candidate A's power curves all over again. The reservoir of live B
  // observations is the only honest training data the serving box has.
  exec::Executor& executor = options_.executor != nullptr
                                 ? *options_.executor
                                 : exec::inline_executor();
  serve::ModelRegistry registry{{.retain_limit = 4}};
  registry.publish(trained.model, trained.fingerprint);
  adapt::AdaptController controller{registry, executor, {},
                                    transfer_adapt_options(options_)};

  std::uint64_t promotions_seen = 0;
  int last_promotion_round = 0;
  for (int round = 0; round < kMaxRounds; ++round) {
    for (const core::KernelCharacterization& truth : serving.truths) {
      controller.observe(feedback_for(*registry.current().model, truth,
                                      serving.cap_w, options_.goal));
      controller.wait_for_retrain();
    }
    const adapt::AdaptStats progress = controller.adapt_stats();
    if (progress.promotions > promotions_seen) {
      promotions_seen = progress.promotions;
      last_promotion_round = round;
      if (result.rounds_to_promotion < 0) {
        result.rounds_to_promotion = round + 1;
      }
    }
    if (promotions_seen > 0 && round >= last_promotion_round + 3 &&
        !controller.canary_active()) {
      break;  // post-promotion rounds covered probation; the loop is quiet
    }
  }
  result.adapt = controller.adapt_stats();
  result.recovered_error = mean_error(*registry.current().model, serving,
                                      &result.recovered_violation_rate);
  result.recovered_score =
      score(result.recovered_error, result.recovered_violation_rate);
  return result;
}

std::vector<TransferResult> TransferEval::run_matrix(
    std::span<const Archetype> archetypes) {
  std::vector<TransferResult> results;
  results.reserve(archetypes.size() * archetypes.size());
  for (const Archetype train_arch : archetypes) {
    for (const Archetype serve_arch : archetypes) {
      results.push_back(run(train_arch, serve_arch));
    }
  }
  return results;
}

}  // namespace acsel::zoo
