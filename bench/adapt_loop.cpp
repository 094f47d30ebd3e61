// Adaptation bench: drives the full continual-learning loop under an
// injected mid-run workload shift, emits BENCH_adapt.json, and exits
// non-zero unless the loop closes — drift fires, a background retrain
// produces a candidate, the canary accepts it, and the promoted model
// recovers selection quality in the shifted world (within 1.1x + 0.05 of
// the pre-shift baseline, below the stale error, with no rollback).
//
// The serving side keeps predicting from its *retained* pre-shift
// profiles while measurements come back from the shifted world — that
// stale-profile-vs-fresh-measurement mismatch is the residual stream
// the drift detectors watch. Reported: rounds to promotion, canary
// accept/reject counts, and the headline — recovered selection error vs
// the pre-shift baseline.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "adapt/canary.h"
#include "adapt/controller.h"
#include "bench_common.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "serve/registry.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace acsel;

constexpr double kCapW = 20.0;
constexpr double kShiftMagnitude = 2.5;
constexpr std::size_t kKernels = 12;

std::vector<core::KernelCharacterization> characterize_some(
    const soc::Machine& machine, const workloads::Suite& suite,
    bool shifted) {
  if (shifted) {
    fault::Injector::global().arm("soc.kernel_shift",
                                  {1.0, 1, kShiftMagnitude});
  }
  std::vector<core::KernelCharacterization> result;
  for (std::size_t i = 0; i < kKernels && i < suite.size(); ++i) {
    soc::Machine clone = machine.clone(i);
    result.push_back(
        eval::characterize_instance(clone, suite.instances()[i]));
  }
  fault::Injector::global().disarm_all();
  return result;
}

adapt::Feedback feedback_for(const core::Predictor& model,
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

double mean_error(const core::Predictor& model,
                  const std::vector<core::KernelCharacterization>& truths) {
  double sum = 0.0;
  for (const auto& truth : truths) {
    sum += adapt::selection_quality(model, truth, kCapW,
                                    core::SchedulingGoal::MaxPerformance, {})
               .error;
  }
  return sum / static_cast<double>(truths.size());
}

}  // namespace

int main() {
  bench::print_header("adapt_loop: drift -> retrain -> canary -> promote",
                      "online adaptation (no paper counterpart)");

  const soc::Machine machine = bench::make_machine();
  const auto suite = workloads::Suite::standard();
  const auto clean = characterize_some(machine, suite, false);
  const auto shifted = characterize_some(machine, suite, true);
  const core::PredictorPtr clean_model =
      core::make_predictor(core::train(clean).model);

  const double baseline = mean_error(*clean_model, clean);
  const double stale = mean_error(*clean_model, shifted);
  // Oracle: a model retrained offline on full shifted characterizations —
  // the floor the online loop can hope to recover to.
  const double oracle = mean_error(core::train(shifted).model, shifted);

  obs::Registry metrics;
  serve::ModelRegistry registry{{.retain_limit = 4}};
  registry.publish(clean_model);

  adapt::AdaptOptions options;
  options.metrics = &metrics;
  // CUSUM so a rejected canary's detector reset can re-fire on the
  // still-unexplained bias; the delta absorbs calibration noise on the
  // incumbent's own training distribution.
  options.drift.method = adapt::DriftDetector::Method::Cusum;
  options.drift.threshold = 2.0;
  options.drift.delta = 0.02;
  options.drift.grace_samples = 8;
  options.canary.shadow_fraction = 1.0;
  options.canary.min_evals = 8;
  options.canary.error_margin = 0.02;
  options.promoter.probation_observations = 12;
  // Retrains see clean seed kernels *and* their shifted doppelgangers —
  // nearly twice the behavioural variety of the offline set — so give
  // the retrain a correspondingly wider cluster budget.
  options.trainer.clusters = 8;
  adapt::AdaptController controller{registry, bench::bench_executor(), clean,
                                    options};

  // Clean phase: residuals are calibration noise; the loop must stay
  // quiet (any retrain here would be a false positive).
  for (int round = 0; round < 4; ++round) {
    for (const auto& truth : clean) {
      controller.observe(feedback_for(*registry.current().model, truth,
                                      truth));
      controller.wait_for_retrain();
    }
  }
  const std::uint64_t false_positives = controller.adapt_stats().retrains;

  // Shift: stale profiles, shifted measurements, whatever model is
  // current at each moment — exactly a serving loop mid-shift. The loop
  // is allowed to keep improving past its first promotion: an early
  // candidate retrained from a thin reservoir may still leave enough
  // residual for drift to re-fire, and each later retrain sees a fuller
  // reservoir. Stop once promotions go quiet for a few rounds.
  int rounds_to_promotion = -1;
  int last_promotion_round = 0;
  std::uint64_t promotions_seen = 0;
  constexpr int kMaxRounds = 40;
  for (int round = 0; round < kMaxRounds; ++round) {
    for (std::size_t i = 0; i < shifted.size(); ++i) {
      controller.observe(feedback_for(*registry.current().model, clean[i],
                                      shifted[i]));
      controller.wait_for_retrain();
    }
    const adapt::AdaptStats progress = controller.adapt_stats();
    if (progress.promotions > promotions_seen) {
      promotions_seen = progress.promotions;
      last_promotion_round = round;
      if (rounds_to_promotion < 0) {
        rounds_to_promotion = round + 1;
      }
    }
    if (promotions_seen > 0 && round >= last_promotion_round + 3 &&
        !controller.canary_active()) {
      break;  // post-promotion rounds cover probation; the loop is quiet
    }
  }

  const adapt::AdaptStats stats = controller.adapt_stats();
  const double recovered_error = mean_error(*registry.current().model,
                                            shifted);
  bench::Gate gate;
  const double recovery_bound = 1.1 * baseline + 0.05;
  bool recovered =
      gate.check(stats.promotions > 0, "promotions", stats.promotions, "> 0");
  recovered &=
      gate.check(stats.rollbacks == 0, "rollbacks", stats.rollbacks, "== 0");
  recovered &= gate.check(
      recovered_error <= recovery_bound, "recovered error", recovered_error,
      "<= 1.1 x baseline + 0.05 = " + format_double(recovery_bound, 6));
  gate.check(recovered_error < stale, "recovered error", recovered_error,
             "< stale " + format_double(stale, 6));
  gate.check(stats.canary_accepted >= 1, "canary_accepted",
             stats.canary_accepted, ">= 1");

  TextTable table;
  table.set_header({"metric", "value"});
  table.add_row({"baseline error (clean model, clean world)",
                 format_double(baseline, 4)});
  table.add_row({"stale error (clean model, shifted world)",
                 format_double(stale, 4)});
  table.add_row({"oracle error (offline retrain, shifted world)",
                 format_double(oracle, 4)});
  table.add_row({"recovered error (promoted model, shifted world)",
                 format_double(recovered_error, 4)});
  table.add_row({"clean-phase retrains (false positives)",
                 std::to_string(false_positives)});
  table.add_row({"drift events", std::to_string(stats.drift_events)});
  table.add_row({"retrains", std::to_string(stats.retrains)});
  table.add_row({"canary accepted / rejected",
                 std::to_string(stats.canary_accepted) + " / " +
                     std::to_string(stats.canary_rejected)});
  table.add_row({"promotions", std::to_string(stats.promotions)});
  table.add_row({"rollbacks", std::to_string(stats.rollbacks)});
  table.add_row({"rounds to promotion",
                 std::to_string(rounds_to_promotion)});
  table.print(std::cout, "adaptation under a mid-run workload shift");

  std::cout << "\nHeadline: " << (recovered ? "recovered" : "NOT recovered")
            << " — error " << format_double(recovered_error, 4)
            << " vs baseline " << format_double(baseline, 4) << " (stale "
            << format_double(stale, 4) << "), promotion after "
            << rounds_to_promotion << " rounds.\n";

  std::ofstream json{"BENCH_adapt.json"};
  json << "{\n  \"bench\": \"adapt_loop\",\n  \"seed\": " << bench::kBenchSeed
       << ",\n  \"shift_magnitude\": " << format_double(kShiftMagnitude, 2)
       << ",\n  \"cap_w\": " << format_double(kCapW, 2)
       << ",\n  \"errors\": {\"baseline\": " << format_double(baseline, 6)
       << ", \"stale\": " << format_double(stale, 6)
       << ", \"oracle\": " << format_double(oracle, 6)
       << ", \"recovered\": " << format_double(recovered_error, 6)
       << "},\n  \"loop\": {\"false_positive_retrains\": " << false_positives
       << ", \"drift_events\": " << stats.drift_events
       << ", \"retrains\": " << stats.retrains
       << ", \"retrain_failures\": " << stats.retrain_failures
       << ", \"canary_evals\": " << stats.canary_evals
       << ", \"canary_rejected\": " << stats.canary_rejected
       << ", \"promotions\": " << stats.promotions
       << ", \"rollbacks\": " << stats.rollbacks
       << ", \"reservoir_size\": " << stats.reservoir_size
       << "},\n  \"headline\": {\"recovered\": "
       << (recovered ? "true" : "false")
       << ", \"iterations_to_recover\": " << rounds_to_promotion
       << ", \"canary_accepted\": " << stats.canary_accepted << "}\n}\n";
  std::cout << "Wrote BENCH_adapt.json\n";
  return gate.exit_code();
}
