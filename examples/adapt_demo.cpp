// The adapt loop, narrated: an offline model serves a stream of
// observations; mid-stream the workload shifts (kernels do more work
// with worse locality), the stale model's residuals trip the drift
// detectors, a background retrain produces a candidate, the canary
// gates it against the incumbent on live traffic, and promotion closes
// the loop. Run with --log-level=info to also see the subsystem's own
// narration.
//
// Flags: --log-level=LEVEL  debug|info|warn|off (default: warn here)
//        --threads=N        retrain parallelism (default: inline)
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "adapt/canary.h"
#include "adapt/controller.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/suite.h"

namespace {

using namespace acsel;

constexpr double kCapW = 20.0;
constexpr double kShiftMagnitude = 2.5;
constexpr std::size_t kKernels = 12;

std::vector<core::KernelCharacterization> characterize_world(
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

int main(int argc, char** argv) {
  using namespace acsel;
  set_log_level(LogLevel::Warn);
  init_log_level_from_env();
  exec::init_threads_from_env();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (consume_log_level_flag(arg) || exec::consume_threads_flag(arg)) {
      continue;
    }
    std::cerr << "usage: adapt_demo [--log-level=LEVEL] [--threads=N]\n";
    return 2;
  }

  std::cout << "== Offline: train a model on the pre-shift world\n";
  const soc::Machine machine{soc::MachineSpec{}, 4242};
  const auto suite = workloads::Suite::standard();
  const auto clean = characterize_world(machine, suite, false);
  const auto shifted = characterize_world(machine, suite, true);
  const core::PredictorPtr offline =
      core::make_predictor(core::train(clean).model);
  std::cout << "   selection error, clean world:   "
            << format_double(mean_error(*offline, clean), 4) << '\n'
            << "   selection error, shifted world: "
            << format_double(mean_error(*offline, shifted), 4)
            << "  <- what staying stale would cost\n\n";

  obs::Registry metrics;
  serve::ModelRegistry registry{{.retain_limit = 4}};
  registry.publish(offline);

  exec::ThreadPool pool{exec::default_threads() == 1 ? 0
                                                     : exec::default_threads()};
  adapt::AdaptOptions options;
  options.metrics = &metrics;
  options.drift.method = adapt::DriftDetector::Method::Cusum;
  options.drift.threshold = 2.0;
  options.drift.delta = 0.02;
  options.drift.grace_samples = 8;
  options.canary.min_evals = 8;
  options.canary.error_margin = 0.02;
  options.promoter.probation_observations = 12;
  options.trainer.clusters = 8;
  adapt::AdaptController controller{registry, pool, clean, options};

  std::cout << "== Serving the pre-shift world: residuals are calibration "
               "noise, the loop stays quiet\n";
  for (int round = 0; round < 4; ++round) {
    for (const auto& truth : clean) {
      controller.observe(
          feedback_for(*registry.current().model, truth, truth));
      controller.wait_for_retrain();
    }
  }
  std::cout << "   drift events: " << controller.adapt_stats().drift_events
            << ", retrains: " << controller.adapt_stats().retrains << "\n\n";

  std::cout << "== The workload shifts (" << format_double(kShiftMagnitude, 2)
            << "x work, worse locality); serving still predicts from the "
               "stale profiles\n";
  adapt::AdaptStats last;
  for (int round = 1; round <= 40; ++round) {
    for (std::size_t i = 0; i < shifted.size(); ++i) {
      controller.observe(feedback_for(*registry.current().model, clean[i],
                                      shifted[i]));
      controller.wait_for_retrain();
    }
    const adapt::AdaptStats now = controller.adapt_stats();
    if (now.drift_events > last.drift_events) {
      std::cout << "   round " << round << ": drift fired ("
                << now.drift_events - last.drift_events
                << " detector(s)) -> background retrain over reservoir + "
                   "seed data\n";
    }
    if (now.canary_rejected > last.canary_rejected) {
      std::cout << "   round " << round
                << ": canary REJECTED the candidate (did not beat the "
                   "incumbent by margin) — detectors reset, loop retries\n";
    }
    if (now.promotions > last.promotions) {
      std::cout << "   round " << round
                << ": canary accepted -> promoted model version "
                << registry.current().version << " (probation begins)\n";
    }
    last = now;
    if (now.promotions > 0 && round >= 3 && !controller.canary_active() &&
        !controller.retrain_inflight()) {
      break;
    }
  }

  const double recovered = mean_error(*registry.current().model, shifted);
  std::cout << '\n';
  TextTable table;
  table.set_header({"metric", "value"});
  table.add_row({"observations", std::to_string(last.observations)});
  table.add_row({"drift events", std::to_string(last.drift_events)});
  table.add_row({"retrains", std::to_string(last.retrains)});
  table.add_row({"canary accepted / rejected",
                 std::to_string(last.canary_accepted) + " / " +
                     std::to_string(last.canary_rejected)});
  table.add_row({"promotions", std::to_string(last.promotions)});
  table.add_row({"rollbacks", std::to_string(last.rollbacks)});
  table.add_row({"reservoir size", std::to_string(last.reservoir_size)});
  table.add_row({"recovered selection error", format_double(recovered, 4)});
  table.print(std::cout, "adapt loop summary");
  std::cout << "\nThe promoted model selects in the shifted world at "
            << format_double(recovered, 4) << " error vs "
            << format_double(mean_error(*offline, shifted), 4)
            << " for the stale offline model.\n";
  return last.promotions > 0 ? 0 : 1;
}
