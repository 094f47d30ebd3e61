#include "soc/power_model.h"

#include <algorithm>

#include "util/error.h"

namespace acsel::soc {

namespace {

double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

/// Activity factor: stalled cycles still toggle clocks and queues, so
/// activity never drops below the floor.
double activity_factor(const MachineSpec& spec, double utilization) {
  return spec.activity_floor + (1.0 - spec.activity_floor) *
                                   clamp01(utilization);
}

}  // namespace

PowerBreakdown evaluate_power_at(const MachineSpec& spec,
                                 const KernelCharacteristics& kernel,
                                 const hw::Configuration& config,
                                 const ActivityInputs& activity,
                                 const CpuOperatingPoint& cpu,
                                 double leakage_factor) {
  config.validate();
  kernel.validate();
  ACSEL_CHECK(cpu.freq_ghz > 0.0 && cpu.voltage > 0.0);
  ACSEL_CHECK(leakage_factor > 0.0);
  PowerBreakdown power;

  const double v_cpu = cpu.voltage;
  const double f_cpu = cpu.freq_ghz;
  const double v_gpu = config.gpu_voltage();
  const double f_gpu_ghz = config.gpu_freq_mhz() / 1000.0;

  // --- CPU plane: leakage set by the plane voltage + per-core dynamic. ---
  power.cpu_w = spec.cpu_leak_w_per_v2 * v_cpu * v_cpu * leakage_factor;
  if (config.device == hw::Device::Cpu) {
    const double act = activity_factor(spec, activity.compute_utilization);
    const double vector_gain =
        1.0 + spec.cpu_vector_power_gain * kernel.vector_fraction;
    double thread_weight = static_cast<double>(config.threads);
    if (spec.asymmetric.enabled) {
      // LITTLE cores switch less capacitance per cycle; weight them by the
      // same split the perf model uses so both planes stay consistent.
      const int little = asymmetric_little_threads(config);
      thread_weight = static_cast<double>(config.threads - little) +
                      spec.asymmetric.little_power_scale *
                          static_cast<double>(little);
    }
    power.cpu_w += thread_weight * spec.cpu_core_dyn_w * f_cpu * v_cpu *
                   v_cpu * act * vector_gain;
  } else {
    // Host/driver thread: one core, mostly waiting on the GPU, with bursts
    // of launch work. Model it as one low-activity core.
    const double act = activity_factor(spec, 0.15);
    power.cpu_w += spec.cpu_core_dyn_w * f_cpu * v_cpu * v_cpu * act;
  }

  // --- NB + GPU plane. ---
  power.nbgpu_w = spec.base_power_w;
  power.nbgpu_w += spec.nb_w_per_gbs * activity.dram_gbs;
  power.nbgpu_w +=
      spec.gpu_leak_w_per_v2 * v_gpu * v_gpu * leakage_factor;
  if (config.device == hw::Device::Gpu) {
    const double act = activity_factor(spec, activity.gpu_utilization);
    power.nbgpu_w += spec.gpu_dyn_w * f_gpu_ghz * v_gpu * v_gpu * act;
  } else {
    // Parked GPU at the minimum P-state: clock-gated but not power-gated.
    power.nbgpu_w +=
        0.05 * spec.gpu_dyn_w * f_gpu_ghz * v_gpu * v_gpu;
  }

  return power;
}

PowerBreakdown idle_power(const MachineSpec& spec) {
  const double v_cpu = hw::cpu_pstates()[0].voltage;
  const double v_gpu = hw::gpu_pstates()[0].voltage;
  const double f_gpu_ghz = hw::gpu_pstates()[0].freq_mhz / 1000.0;
  PowerBreakdown power;
  power.cpu_w = spec.cpu_leak_w_per_v2 * v_cpu * v_cpu;
  power.nbgpu_w = spec.base_power_w +
                  spec.gpu_leak_w_per_v2 * v_gpu * v_gpu +
                  0.05 * spec.gpu_dyn_w * f_gpu_ghz * v_gpu * v_gpu;
  return power;
}

}  // namespace acsel::soc
