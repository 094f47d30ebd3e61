// Two-plane power model of the simulated APU (paper §IV-A: the CPU cores
// share one power plane; the northbridge and GPU share the other).
//
// Per plane: leakage proportional to V^2 (the CPU plane's voltage is set by
// the fastest compute unit, since all CUs share the plane) plus dynamic
// C*V^2*f switching power scaled by an activity factor derived from the
// performance model's utilization. Memory-controller power tracks achieved
// DRAM bandwidth.
#pragma once

#include "hw/config.h"
#include "soc/kernel.h"
#include "soc/perf_model.h"

namespace acsel::soc {

/// Utilization inputs the power model needs from the performance model.
struct ActivityInputs {
  /// Busy (non-stalled) fraction of the active device's cycles, 0..1.
  double compute_utilization = 1.0;
  /// Achieved DRAM traffic, GB/s.
  double dram_gbs = 0.0;
  /// GPU busy fraction (0 when the kernel runs on the CPU).
  double gpu_utilization = 0.0;
};

struct PowerBreakdown {
  double cpu_w = 0.0;    ///< CPU-core plane
  double nbgpu_w = 0.0;  ///< northbridge + GPU plane
  double total() const { return cpu_w + nbgpu_w; }
};

/// Instantaneous power draw of `kernel` executing under `config` with the
/// given utilizations, at an explicit CPU operating point (boost support,
/// §VI; CpuOperatingPoint::of(config) is the nominal one) and a leakage
/// multiplier for the current die temperature. Pure function of its inputs; noise is added by the SMU sampling layer,
/// not here.
PowerBreakdown evaluate_power_at(const MachineSpec& spec,
                                 const KernelCharacteristics& kernel,
                                 const hw::Configuration& config,
                                 const ActivityInputs& activity,
                                 const CpuOperatingPoint& cpu,
                                 double leakage_factor);

/// Idle power of the machine (no kernel running, everything at minimum
/// P-states). Useful as a sanity floor in tests.
PowerBreakdown idle_power(const MachineSpec& spec);

}  // namespace acsel::soc
