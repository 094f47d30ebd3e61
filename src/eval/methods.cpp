#include "eval/methods.h"

#include <array>

#include "core/scheduler.h"
#include "hw/config_space.h"
#include "soc/freq_limiter.h"
#include "util/error.h"

namespace acsel::eval {

const char* to_string(Method method) {
  switch (method) {
    case Method::Model:
      return "Model";
    case Method::ModelFL:
      return "Model+FL";
    case Method::CpuFL:
      return "CPU+FL";
    case Method::GpuFL:
      return "GPU+FL";
    case Method::PackCap:
      return "Pack&Cap";
  }
  return "?";
}

std::vector<Method> all_methods() {
  return {Method::Model, Method::ModelFL, Method::CpuFL, Method::GpuFL};
}

namespace {

hw::Configuration cpu_fl_start() {
  hw::Configuration c;
  c.device = hw::Device::Cpu;
  c.cpu_pstate = hw::kCpuMaxPState;
  c.threads = hw::kCpuCores;
  c.gpu_pstate = 0;
  c.mapping = hw::CoreMapping::Compact;
  return c;
}

hw::Configuration gpu_fl_start() {
  hw::Configuration c;
  c.device = hw::Device::Gpu;
  c.cpu_pstate = 0;
  c.threads = 1;
  c.gpu_pstate = hw::kGpuMaxPState;
  c.mapping = hw::CoreMapping::Compact;
  return c;
}

/// Runs warm iterations with a persistent limiter (the configuration
/// carries over between invocations as it would for an iterating kernel),
/// then measures one final invocation.
soc::ExecutionResult run_settled(soc::Machine& machine,
                                 const workloads::WorkloadInstance& instance,
                                 hw::Configuration start,
                                 soc::FrequencyLimiter& limiter,
                                 int warm_iterations) {
  hw::Configuration config = start;
  for (int i = 0; i < warm_iterations; ++i) {
    config = machine.run(instance.traits, config, &limiter).final_config;
  }
  return machine.run(instance.traits, config, &limiter);
}

}  // namespace

MethodOutcome run_method(soc::Machine& machine,
                         const workloads::WorkloadInstance& instance,
                         Method method, double cap_w,
                         const core::Prediction* prediction,
                         const MethodOptions& options) {
  ACSEL_CHECK(cap_w > 0.0);
  ACSEL_CHECK(options.warm_iterations >= 0);

  soc::ExecutionResult result;
  switch (method) {
    case Method::Model: {
      ACSEL_CHECK_MSG(prediction != nullptr, "Model needs a prediction");
      core::SchedulerOptions scheduler_options;
      scheduler_options.policy = options.policy;
      const core::Scheduler scheduler{*prediction, scheduler_options};
      const auto choice = scheduler.select(cap_w);
      const hw::ConfigSpace space;
      // The model fixes the configuration after the sample iterations;
      // no runtime correction (§IV-C).
      result = machine.run(instance.traits, space.at(choice.config_index));
      break;
    }
    case Method::ModelFL: {
      ACSEL_CHECK_MSG(prediction != nullptr, "Model+FL needs a prediction");
      core::SchedulerOptions scheduler_options;
      scheduler_options.policy = options.policy;
      const core::Scheduler scheduler{*prediction, scheduler_options};
      const auto choice = scheduler.select(cap_w);
      const hw::ConfigSpace space;
      const hw::Configuration chosen = space.at(choice.config_index);
      soc::LimiterOptions limiter_options;
      limiter_options.cap_w = cap_w;
      limiter_options.controlled = chosen.device;
      limiter_options.manage_host_cpu = chosen.device == hw::Device::Gpu;
      // The limiter may throttle below the model's choice but never climb
      // above it: the model already decided faster is not worth the power.
      limiter_options.max_cpu_pstate = chosen.cpu_pstate;
      limiter_options.max_gpu_pstate = chosen.gpu_pstate;
      soc::FrequencyLimiter limiter{limiter_options};
      result = run_settled(machine, instance, chosen, limiter,
                           options.warm_iterations);
      break;
    }
    case Method::CpuFL: {
      soc::LimiterOptions limiter_options;
      limiter_options.cap_w = cap_w;
      limiter_options.controlled = hw::Device::Cpu;
      soc::FrequencyLimiter limiter{limiter_options};
      result = run_settled(machine, instance, cpu_fl_start(), limiter,
                           options.warm_iterations);
      break;
    }
    case Method::GpuFL: {
      soc::LimiterOptions limiter_options;
      limiter_options.cap_w = cap_w;
      limiter_options.controlled = hw::Device::Gpu;
      limiter_options.manage_host_cpu = true;
      soc::FrequencyLimiter limiter{limiter_options};
      result = run_settled(machine, instance, gpu_fl_start(), limiter,
                           options.warm_iterations);
      break;
    }
    case Method::PackCap: {
      // DVFS + thread packing between iterations: when over the cap,
      // step frequency down first, then pack threads; with headroom,
      // unwind in the reverse order, never past learned ceilings.
      hw::Configuration config = cpu_fl_start();
      // Highest P-state known workable per thread count, and the lowest
      // thread count observed violating even at the frequency floor.
      std::array<std::size_t, hw::kCpuCores + 1> pstate_ceiling;
      pstate_ceiling.fill(hw::kCpuMaxPState);
      int infeasible_threads = hw::kCpuCores + 1;
      const double margin_w = 1.0;
      // One adjustment per iteration: walking from the full configuration
      // down to a packed low-frequency one can take ~10 steps, so run to
      // convergence (two unchanged iterations) within a bounded budget.
      const int max_iterations = options.warm_iterations + 15;
      int stable = 0;
      for (int i = 0; i < max_iterations && stable < 2; ++i) {
        const hw::Configuration before = config;
        result = machine.run(instance.traits, config);
        const double measured = result.avg_power_w();
        const auto threads = static_cast<std::size_t>(config.threads);
        if (measured > cap_w) {
          if (config.cpu_pstate > 0) {
            pstate_ceiling[threads] =
                std::min(pstate_ceiling[threads], config.cpu_pstate - 1);
            config.cpu_pstate -= 1;
          } else if (config.threads > 1) {
            infeasible_threads =
                std::min(infeasible_threads, config.threads);
            config.threads -= 1;
            config.cpu_pstate = std::min(
                pstate_ceiling[static_cast<std::size_t>(config.threads)],
                hw::kCpuMaxPState);
          }
        } else if (measured < cap_w - margin_w) {
          if (config.cpu_pstate < pstate_ceiling[threads]) {
            config.cpu_pstate += 1;
          } else if (config.threads + 1 < infeasible_threads &&
                     config.threads < hw::kCpuCores) {
            config.threads += 1;
            config.cpu_pstate = 0;  // re-approach the cap from below
          }
        }
        config.mapping = hw::CoreMapping::Compact;
        config.validate();
        stable = config == before ? stable + 1 : 0;
      }
      break;
    }
  }

  MethodOutcome outcome;
  outcome.final_config = result.final_config;
  outcome.measured_power_w = result.avg_power_w();
  outcome.measured_performance = result.performance();
  outcome.under_limit =
      outcome.measured_power_w <= cap_w * (1.0 + options.cap_tolerance);
  return outcome;
}

}  // namespace acsel::eval
