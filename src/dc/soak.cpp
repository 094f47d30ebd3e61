#include "dc/soak.h"

#include <algorithm>
#include <utility>

#include "adapt/drift.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "exec/parallel_for.h"
#include "fault/fault.h"
#include "serve/registry.h"
#include "util/error.h"
#include "util/log.h"
#include "workloads/suite.h"

namespace acsel::dc {

namespace {

/// Benchmark held out of training and served (the unseen workload).
constexpr char kHeldOut[] = "LU";
/// soc.kernel_shift magnitude the shifted truth is characterized under.
constexpr double kShiftMagnitude = 1.6;

}  // namespace

const char* to_string(ScenarioEvent::Kind kind) {
  switch (kind) {
    case ScenarioEvent::Kind::FailShard:
      return "fail-shard";
    case ScenarioEvent::Kind::ReviveAll:
      return "revive-all";
    case ScenarioEvent::Kind::BurstOn:
      return "burst-on";
    case ScenarioEvent::Kind::BurstOff:
      return "burst-off";
    case ScenarioEvent::Kind::BudgetCut:
      return "budget-cut";
    case ScenarioEvent::Kind::BudgetRestore:
      return "budget-restore";
    case ScenarioEvent::Kind::KernelShift:
      return "kernel-shift";
  }
  return "?";
}

World make_world(const WorldOptions& options) {
  soc::Machine machine{soc::MachineSpec{}, options.machine_seed};
  const auto suite = workloads::Suite::standard();
  World world;

  // Offline training set: every instance of the non-held-out
  // benchmarks, each on its own deterministic machine clone.
  std::size_t trained = 0;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark == kHeldOut || trained >= options.max_training) {
      continue;
    }
    soc::Machine clone = machine.clone(trained);
    world.training.push_back(eval::characterize_instance(clone, instance));
    ++trained;
  }
  ACSEL_CHECK_MSG(!world.training.empty(),
                  "dc: no training instances outside the held-out benchmark");
  world.model = core::make_predictor(core::train(world.training).model);

  // Ground truth for the served (held-out) instances, before and after
  // the workload shift. The shifted sweep reuses the soc.kernel_shift
  // fault site; the site is re-disarmed afterwards, so arm any scenario
  // shift preset after building the world.
  fault::Injector& injector = fault::Injector::global();
  std::size_t bases = 0;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark != kHeldOut || bases >= options.max_bases) {
      continue;
    }
    soc::Machine clean_clone = machine.clone(100'000 + bases);
    world.clean_truth.push_back(
        eval::characterize_instance(clean_clone, instance));
    injector.arm("soc.kernel_shift", {1.0, 1, kShiftMagnitude});
    soc::Machine shifted_clone = machine.clone(100'000 + bases);
    world.shifted_truth.push_back(
        eval::characterize_instance(shifted_clone, instance));
    injector.disarm("soc.kernel_shift");
    ++bases;
  }
  ACSEL_CHECK_MSG(bases > 0, "dc: held-out benchmark has no instances");

  // The kernel pool: variants of the served instances, widened into
  // distinct identities so the consistent-hash ring has keys to spread
  // (a variant is a new kernel cluster to the router; measurements are
  // the base instance's).
  world.pool.reserve(options.kernels);
  world.truth_of.reserve(options.kernels);
  for (std::size_t k = 0; k < options.kernels; ++k) {
    const std::size_t base = k % bases;
    core::SamplePair variant = world.clean_truth[base].samples;
    variant.cpu.input += "-v" + std::to_string(k);
    variant.gpu.input += "-v" + std::to_string(k);
    world.pool.push_back(std::move(variant));
    world.truth_of.push_back(base);
  }
  return world;
}

adapt::AdaptOptions soak_adapt_defaults() {
  adapt::AdaptOptions options;
  options.drift.method = adapt::DriftDetector::Method::Cusum;
  options.drift.threshold = 2.0;
  options.drift.delta = 0.02;
  options.drift.grace_samples = 8;
  options.canary.shadow_fraction = 1.0;
  options.canary.min_evals = 8;
  options.canary.error_margin = 0.02;
  options.promoter.probation_observations = 12;
  options.trainer.clusters = 8;
  return options;
}

namespace {

serve::SelectRequest make_request(const Arrival& arrival,
                                  const World& world) {
  serve::SelectRequest request;
  request.request_id = arrival.request_id;
  request.samples = world.pool[arrival.kernel];
  request.goal = arrival.goal;
  request.cap_w = arrival.cap_w;
  request.priority = arrival.priority;
  return request;
}

}  // namespace

SoakDriver::SoakDriver(const SoakOptions& options, const World& world)
    : options_(options), world_(world) {
  ACSEL_CHECK_MSG(options_.ticks >= 1, "dc: soak needs >= 1 tick");
  ACSEL_CHECK_MSG(options_.traffic.kernels <= world.pool.size(),
                  "dc: traffic kernels exceed the world's pool");
  ACSEL_CHECK_MSG(world.model != nullptr, "dc: world has no model");
}

SoakReport SoakDriver::run() {
  SoakOptions opts = options_;
  // The timeline reads the windowed p99/cap-exceedance gauges, which
  // only the SLO tick path maintains.
  opts.fleet.slo.enabled = true;
  if (opts.executor != nullptr && opts.fleet.executor == nullptr) {
    opts.fleet.executor = opts.executor;
  }
  fleet::Fleet fleet{opts.fleet};
  serve::ModelRegistry trainer_registry;
  trainer_registry.publish(world_.model);
  exec::Executor& executor =
      opts.executor != nullptr ? *opts.executor : exec::inline_executor();
  adapt::AdaptController controller{trainer_registry, executor,
                                    world_.training, opts.adapt};
  fleet.publish(world_.model);
  TrafficGenerator traffic{opts.traffic};

  SoakReport report;
  report.timeline.reserve(opts.ticks);
  const double base_budget = fleet.budget().base_budget_w();

  bool shifted = false;
  std::int64_t shift_tick = -1;
  std::uint64_t promotions_seen = 0;
  std::uint64_t measurements = 0;
  fleet::FleetStats prev = fleet.stats();

  for (std::uint64_t t = 0; t < opts.ticks; ++t) {
    for (const ScenarioEvent& event : opts.script) {
      if (event.tick != t) {
        continue;
      }
      ACSEL_LOG_INFO("dc: tick " << t << " scenario event "
                                 << to_string(event.kind));
      switch (event.kind) {
        case ScenarioEvent::Kind::FailShard: {
          const auto shard = static_cast<std::uint32_t>(event.value);
          for (std::uint32_t r = 0; r < opts.fleet.replicas; ++r) {
            fleet.fail_node(fleet::NodeId{shard, r});
          }
          break;
        }
        case ScenarioEvent::Kind::ReviveAll:
          for (std::uint32_t s = 0; s < opts.fleet.shards; ++s) {
            for (std::uint32_t r = 0; r < opts.fleet.replicas; ++r) {
              fleet.revive_node(fleet::NodeId{s, r});
            }
          }
          break;
        case ScenarioEvent::Kind::BurstOn:
          traffic.force_burst(true);
          break;
        case ScenarioEvent::Kind::BurstOff:
          traffic.force_burst(false);
          break;
        case ScenarioEvent::Kind::BudgetCut:
          fleet.set_emergency_budget(std::max(event.value, 0.05) *
                                     base_budget);
          break;
        case ScenarioEvent::Kind::BudgetRestore:
          fleet.clear_emergency_budget();
          break;
        case ScenarioEvent::Kind::KernelShift:
          shifted = true;
          shift_tick = static_cast<std::int64_t>(t);
          break;
      }
    }

    const std::vector<Arrival> arrivals = traffic.tick();
    std::vector<serve::SelectResponse> responses(arrivals.size());
    const auto serve_one = [&](std::size_t i) {
      responses[i] = fleet.select(make_request(arrivals[i], world_));
    };
    if (opts.executor != nullptr && arrivals.size() > 1) {
      exec::parallel_for(*opts.executor, arrivals.size(), serve_one);
    } else {
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        serve_one(i);
      }
    }

    // Measured feedback: every measure_every-th request id that came
    // back Ok is "run" against ground truth and fed to the adapt loop
    // (a deterministic sample whatever the fan-out interleaving was).
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const serve::SelectResponse& response = responses[i];
      if (response.status != serve::ResponseStatus::Ok ||
          response.model_version == 0 || opts.measure_every == 0 ||
          arrivals[i].request_id % opts.measure_every != 0) {
        continue;
      }
      const core::KernelCharacterization& truth =
          (shifted ? world_.shifted_truth
                   : world_.clean_truth)[world_.truth_of[arrivals[i].kernel]];
      adapt::Feedback feedback;
      feedback.samples = world_.pool[arrivals[i].kernel];
      feedback.predicted_power_w = response.predicted_power_w;
      feedback.predicted_performance = response.predicted_performance;
      feedback.measured_power_w = truth.powers()[response.config_index];
      feedback.measured_performance =
          truth.performances()[response.config_index];
      feedback.cap_w = arrivals[i].cap_w;
      if (opts.label_every > 0 && ++measurements % opts.label_every == 0) {
        feedback.label = truth;
      }
      controller.observe(feedback);
    }

    // Await any retrain the feedback kicked off, then re-publish a
    // promotion fleet-wide — the adaptation lag the report measures.
    controller.wait_for_retrain();
    const adapt::AdaptStats adapt_stats = controller.adapt_stats();
    if (adapt_stats.promotions > promotions_seen) {
      promotions_seen = adapt_stats.promotions;
      fleet.publish(trainer_registry.current().model);
      if (shift_tick >= 0 && report.adaptation_lag_ticks < 0) {
        report.adaptation_lag_ticks =
            static_cast<std::int64_t>(t) - shift_tick;
      }
      ACSEL_LOG_INFO("dc: tick " << t
                                 << " promoted retrain published fleet-wide");
    }

    fleet.tick();

    const fleet::FleetStats now = fleet.stats();
    TickSample sample;
    sample.tick = t;
    sample.offered = arrivals.size();
    sample.bursting = traffic.bursting();
    for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
      sample.routed[p] = now.routed_by_priority[p] - prev.routed_by_priority[p];
      sample.delivered[p] =
          now.delivered_by_priority[p] - prev.delivered_by_priority[p];
      sample.shed[p] = now.shed_by_priority[p] - prev.shed_by_priority[p];
    }
    sample.brownout_stage = now.brownout_stage;
    sample.budget_w = now.global_budget_w;
    for (const obs::MetricSnapshot& row : fleet.stats_registry().snapshot()) {
      if (row.name == "fleet.window_p99_us") {
        sample.window_p99_us = row.value;
      } else if (row.name == "fleet.window_cap_exceedance") {
        sample.cap_exceedance = row.value;
      }
    }
    report.timeline.push_back(sample);
    report.offered += arrivals.size();
    prev = now;
  }

  report.fleet = fleet.stats();
  report.client = fleet.client_totals();
  report.adapt = controller.adapt_stats();
  report.promotions = promotions_seen;
  report.lost =
      report.fleet.routed - report.fleet.delivered - report.fleet.shed;
  report.sim_seconds =
      static_cast<double>(opts.ticks) * traffic.options().tick_seconds;
  for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
    report.delivered_qps[p] =
        static_cast<double>(report.fleet.delivered_by_priority[p]) /
        report.sim_seconds;
    report.delivered_fraction[p] =
        report.fleet.routed_by_priority[p] > 0
            ? static_cast<double>(report.fleet.delivered_by_priority[p]) /
                  static_cast<double>(report.fleet.routed_by_priority[p])
            : 1.0;
  }
  report.p99_us = fleet.latency_snapshot().p99_us;
  report.brownout_events = report.fleet.brownout_events;
  for (const TickSample& sample : report.timeline) {
    if (sample.brownout_stage > 0) {
      report.brownout_seen = true;
      report.last_brownout_tick = sample.tick;
      report.brownout_depth =
          std::max(report.brownout_depth, sample.brownout_stage);
      if (sample.budget_w >= base_budget * 0.999) {
        // Budget already restored but stages still unwinding: the
        // staged-recovery tail.
        ++report.recovery_ticks;
      }
    }
  }
  if (!report.brownout_seen) {
    report.last_brownout_tick = opts.ticks;
  }
  for (const TickSample& sample : report.timeline) {
    if ((!report.brownout_seen || sample.tick > report.last_brownout_tick) &&
        sample.cap_exceedance > 0.0) {
      ++report.cap_exceedance_ticks_after_recovery;
    }
  }
  return report;
}

}  // namespace acsel::dc
