// The OnlineRuntime in an application-shaped setting: a multi-physics
// mini-app whose timestep calls several kernels — including the same
// kernel from two call sites with different input sizes (§VI: the runtime
// "could use call stacks to differentiate between invocations of the same
// kernel from distinct points in the application"). Mid-run, the cluster
// power manager halves the node budget, and later the operator switches
// the objective to energy efficiency.
//
// Observability flags:
//   --trace=PATH     enable the span tracer and write a Chrome trace-event
//                    JSON file (load in chrome://tracing or Perfetto)
//   --metrics=PATH   write the global metric registry as CSV
//   --log-level=...  debug|info|warn|off (also: ACSEL_LOG_LEVEL env)
//   --threads=N      offline-training parallelism (also: ACSEL_THREADS
//                    env; default: hardware concurrency)
//
// Robustness flags:
//   --guardrails     enable the runtime's graceful-degradation guardrails
//                    (implausible-sample rejection, cap-violation fallback)
//                    and the SMU sensor guard on the machine
//   --adapt          wire the runtime's feedback stream into an
//                    adapt::AdaptController: a workload shift is injected
//                    mid-run, drift fires, a background retrain's canary-
//                    gated candidate is adopted by the runtime on
//                    promotion (extends the run to cover the loop)
//   ACSEL_FAULTS     comma-separated fault presets to arm (e.g.
//                    "smu_noise,frame_corrupt") — chaos-test the run
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "adapt/controller.h"
#include "core/runtime.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/registry.h"
#include "util/csv.h"
#include "util/error.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/suite.h"

int main(int argc, char** argv) {
  using namespace acsel;
  init_log_level_from_env();
  exec::init_threads_from_env();
  fault::init_from_env();
  std::string trace_path;
  std::string metrics_path;
  bool guardrails = false;
  bool adapt_loop = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (consume_log_level_flag(arg) || exec::consume_threads_flag(arg)) {
      continue;
    }
    if (arg.starts_with("--trace=")) {
      trace_path = arg.substr(8);
    } else if (arg.starts_with("--metrics=")) {
      metrics_path = arg.substr(10);
    } else if (arg == "--guardrails") {
      guardrails = true;
    } else if (arg == "--adapt") {
      adapt_loop = true;
    } else {
      std::cerr << "usage: online_runtime_app [--trace=PATH]"
                   " [--metrics=PATH] [--log-level=LEVEL] [--threads=N]"
                   " [--guardrails] [--adapt]\n";
      return 2;
    }
  }
  if (!trace_path.empty()) {
    obs::Tracer::global().enable();
  }
  soc::MachineSpec spec;
  spec.sensor_guard = guardrails;
  soc::Machine machine{spec};
  const auto suite = workloads::Suite::standard();

  // Offline model (trained on everything; this example is about the
  // runtime mechanics, not cross-validation).
  const auto training = [&] {
    exec::ThreadPool pool{exec::default_threads()};
    return eval::characterize(machine, suite, {}, pool);
  }();
  const core::PredictorPtr offline_model =
      core::make_predictor(core::train(training).model);

  // --adapt: the runtime's feedback stream drives an AdaptController;
  // retrains run on a small pool so serving (the timestep loop) never
  // pauses. Labels for the reservoir/canary come from characterizing the
  // called instances under the current world — what a telemetry-rich
  // deployment gets from its profiling sweeps.
  serve::ModelRegistry registry;
  exec::ThreadPool adapt_pool{adapt_loop ? 2u : 0u};
  std::optional<adapt::AdaptController> controller;
  std::map<std::string, core::KernelCharacterization> labels;
  int world_epoch = 0;
  const auto label_for =
      [&](const std::string& instance_id) -> core::KernelCharacterization {
    const std::string cache_key =
        instance_id + "#" + std::to_string(world_epoch);
    auto it = labels.find(cache_key);
    if (it == labels.end()) {
      soc::Machine clone = machine.clone(1000 + labels.size());
      it = labels
               .emplace(cache_key, eval::characterize_instance(
                                       clone, suite.instance(instance_id)))
               .first;
    }
    return it->second;
  };
  std::map<core::KernelKey, const workloads::WorkloadInstance*> impl_of;
  if (adapt_loop) {
    registry.publish(offline_model);
    adapt::AdaptOptions adapt_options;
    // CUSUM so the sustained post-shift bias can re-fire detectors after
    // a rejected canary resets them; the delta absorbs calibration noise.
    adapt_options.drift.method = adapt::DriftDetector::Method::Cusum;
    adapt_options.drift.threshold = 2.0;
    adapt_options.drift.delta = 0.02;
    adapt_options.drift.grace_samples = 8;
    adapt_options.canary.min_evals = 8;
    adapt_options.canary.error_margin = 0.02;
    adapt_options.promoter.probation_observations = 12;
    // Retrains see the seed kernels and their shifted variants; widen
    // the cluster budget accordingly.
    adapt_options.trainer.clusters = 8;
    // The run switches to min-energy before the shift lands; judge
    // candidates under the goal they will serve.
    adapt_options.goal = core::SchedulingGoal::MinEnergy;
    controller.emplace(registry, adapt_pool, training, adapt_options);
  }

  core::OnlineRuntime::Options options;
  options.power_cap_w = 32.0;
  options.guardrails.enabled = guardrails;
  if (adapt_loop) {
    options.on_feedback = [&](const core::PredictionFeedback& feedback) {
      const auto impl = impl_of.find(feedback.key);
      if (impl == impl_of.end()) {
        return;
      }
      adapt::Feedback observation;
      observation.samples = feedback.samples;
      observation.predicted_power_w = feedback.predicted_power_w;
      observation.predicted_performance = feedback.predicted_performance;
      observation.measured_power_w = feedback.measured_power_w;
      observation.measured_performance = feedback.measured_performance;
      observation.cap_w = feedback.cap_w;
      observation.label = label_for(impl->second->id());
      controller->observe(observation);
    };
  }
  core::OnlineRuntime runtime{machine, offline_model, options};

  // The "application": per timestep, a force kernel called from two call
  // sites with different input sizes, plus a chemistry kernel.
  struct Call {
    core::KernelKey key;
    const workloads::WorkloadInstance* impl;
  };
  const std::vector<Call> timestep{
      {{"ComputeForce", "bonded_pass", core::bucket_for(1u << 22)},
       &suite.instance("CoMD-LJ/ComputeForce")},
      {{"ComputeForce", "halo_pass", core::bucket_for(1u << 18)},
       &suite.instance("CoMD-EAM/ComputeForce")},
      {{"ChemistryRates", "react", core::bucket_for(1u << 24)},
       &suite.instance("SMC-Default/ChemistryRates")},
  };
  for (const Call& call : timestep) {
    impl_of[call.key] = call.impl;
  }

  TextTable table;
  table.set_header({"Step", "Kernel", "Configuration", "Power (W)",
                    "Time (ms)", "Phase"});
  const auto phase_name = [&](const core::KernelKey& key) {
    switch (runtime.phase(key)) {
      case core::OnlineRuntime::Phase::Unseen:
        return "unseen";
      case core::OnlineRuntime::Phase::SampledCpu:
        return "sampling";
      case core::OnlineRuntime::Phase::Scheduled:
        return "scheduled";
    }
    return "?";
  };

  for (int step = 0; step < 6; ++step) {
    if (step == 3) {
      runtime.set_power_cap(18.0);  // the cluster manager cuts the budget
      std::cout << ">>> power budget cut to 18 W (re-selection from "
                   "retained frontiers, no sampling)\n";
    }
    if (step == 5) {
      runtime.set_goal(core::SchedulingGoal::MinEnergy);
      std::cout << ">>> objective switched to min-energy\n";
    }
    for (const Call& call : timestep) {
      const auto& record = runtime.invoke(call.key, *call.impl);
      table.add_row({
          std::to_string(step),
          call.key.str(),
          record.config.to_string(),
          format_double(record.total_power_w(), 3),
          format_double(record.time_ms, 4),
          phase_name(call.key),
      });
    }
  }
  table.print(std::cout);

  if (adapt_loop) {
    std::cout << "\n>>> adapt: service continues; a workload shift lands at "
                 "step 10\n";
    adapt::AdaptStats before = controller->adapt_stats();
    std::uint64_t adoptions = 0;
    const auto narrated_step = [&](int step) {
      for (const Call& call : timestep) {
        runtime.invoke(call.key, *call.impl);
      }
      const adapt::AdaptStats now = controller->adapt_stats();
      if (now.drift_events > before.drift_events) {
        std::cout << ">>> step " << step
                  << ": drift detected -> background retrain scheduled "
                     "(serving continues)\n";
      }
      if (now.canary_rejected > before.canary_rejected) {
        std::cout << ">>> step " << step
                  << ": canary rejected a candidate (did not beat the "
                     "incumbent by margin); detectors reset, loop retries\n";
      }
      if (now.promotions > before.promotions) {
        const std::size_t repredicted =
            runtime.adopt_model(registry.current().model);
        ++adoptions;
        std::cout << ">>> step " << step
                  << ": canary accepted -> runtime adopted model v"
                  << registry.current().version << " (" << repredicted
                  << " kernels re-predicted, no re-sampling)\n";
      }
      before = now;
    };
    // Serving free-runs while retrains grind on the pool; the loop keeps
    // stepping as long as a retrain or canary is still in motion, so a
    // slow retrain delays the story but never stalls it.
    int step = 6;
    for (; step < 400; ++step) {
      if (step == 10) {
        ++world_epoch;  // labels must come from the new world
        fault::Injector::global().arm("soc.kernel_shift", {1.0, 1000000, 2.5});
        std::cout << ">>> workload shift: every kernel now does 2.5x the "
                     "work with worse locality\n";
      }
      narrated_step(step);
      const bool in_motion =
          controller->retrain_inflight() || controller->canary_active();
      if (adoptions > 0 && !in_motion) {
        break;
      }
      if (step >= 60 && !in_motion && adoptions == 0) {
        // Nothing left in flight and still no promotion: wait out any
        // stragglers and give the canary a few final observations.
        controller->wait_for_retrain();
      }
    }
    controller->wait_for_retrain();
    fault::Injector::global().disarm_all();
    const adapt::AdaptStats stats = controller->adapt_stats();
    std::cout << "Adapt: " << stats.observations << " observations, "
              << stats.drift_events << " drift events, " << stats.retrains
              << " retrains, canary " << stats.canary_accepted << " accepted / "
              << stats.canary_rejected << " rejected, " << stats.promotions
              << " promotions, " << stats.rollbacks << " rollbacks\n";
  }

  std::cout << "\nTracked kernel identities: " << runtime.tracked_kernels()
            << " (the two ComputeForce call sites are separate).\n"
            << "Total profiled records: " << runtime.profiler().size()
            << '\n';
  if (guardrails) {
    std::cout << "Guardrails: " << runtime.guard_rejected_samples()
              << " samples rejected, " << runtime.guard_cap_violations()
              << " cap violations, " << runtime.guard_fallbacks()
              << " fallbacks, " << runtime.guard_resamples()
              << " re-samples\n";
  }

  if (!trace_path.empty()) {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.disable();
    std::ofstream out{trace_path, std::ios::binary};
    ACSEL_CHECK_MSG(out.good(), "cannot open for write: " + trace_path);
    tracer.write_chrome_trace(out);
    ACSEL_CHECK_MSG(out.good(), "failed writing trace: " + trace_path);
    std::cout << "Trace: " << trace_path << " ("
              << tracer.collected().size() << " events, "
              << tracer.dropped() << " dropped)\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream out{metrics_path, std::ios::binary};
    ACSEL_CHECK_MSG(out.good(), "cannot open for write: " + metrics_path);
    CsvWriter writer{out};
    writer.header(obs::registry_csv_header());
    obs::write_registry_csv(writer, obs::Registry::global().snapshot());
    ACSEL_CHECK_MSG(out.good(), "failed writing metrics: " + metrics_path);
    std::cout << "Metrics: " << metrics_path << '\n';
  }
  return 0;
}
