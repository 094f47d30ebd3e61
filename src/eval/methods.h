// The power-limiting methods the paper compares (§V-A):
//
//  * CPU+FL — all cores enabled, GPU parked at minimum frequency; a
//    RAPL-style frequency limiter steps CPU P-states against the cap.
//  * GPU+FL — GPU at maximum frequency, host CPU at minimum; the limiter
//    steps GPU P-states, then spends remaining headroom raising the host
//    CPU frequency.
//  * Model — the paper's model selects the configuration from the
//    predicted frontier; no runtime correction.
//  * Model+FL — the model's configuration, with the frequency limiter as
//    a runtime safety net bounded above by the model's chosen P-states.
#pragma once

#include <string>
#include <vector>

#include "core/model.h"
#include "core/scheduler.h"
#include "soc/machine.h"
#include "workloads/workload.h"

namespace acsel::eval {

enum class Method {
  Model,
  ModelFL,
  CpuFL,
  GpuFL,
  /// Pack & Cap-style baseline (Cochran et al., §II-A): adaptive DVFS
  /// *and thread packing* under a power cap, CPU-only — a stronger
  /// baseline than CPU+FL, but still unable to select the device. Not
  /// part of the paper's Table III; compared in
  /// bench/baseline_pack_and_cap.
  PackCap,
};

const char* to_string(Method method);
/// The paper's four methods (PackCap is an extension and not included).
std::vector<Method> all_methods();

struct MethodOutcome {
  hw::Configuration final_config;
  double measured_power_w = 0.0;
  double measured_performance = 0.0;
  bool under_limit = false;
};

struct MethodOptions {
  /// Iterations run before the measured one, so persistent frequency
  /// limiters settle (the paper's kernels iterate; "after the second
  /// iteration of a kernel, its configuration is fixed" for the model,
  /// while FL keeps adjusting).
  int warm_iterations = 5;
  /// A run counts as under-limit when measured power <= cap * (1 + tol);
  /// the tolerance absorbs SMU estimation noise at the boundary.
  double cap_tolerance = 0.002;
  /// Scheduler selection policy for the model methods; the default point
  /// estimate matches the paper's system, upper_confidence(z) is the §VI
  /// variance-aware extension.
  core::SelectionPolicy policy;
};

/// Runs `method` on `instance` under `cap_w` and measures the outcome.
/// `prediction` is required for Model and Model+FL (it is the output of
/// Predictor::predict on the kernel's two sample runs) and ignored for
/// the frequency-limiting baselines.
MethodOutcome run_method(soc::Machine& machine,
                         const workloads::WorkloadInstance& instance,
                         Method method, double cap_w,
                         const core::Prediction* prediction,
                         const MethodOptions& options = {});

}  // namespace acsel::eval
