// The online runtime: the piece an application (or an OpenCL/OpenMP
// runtime) links against. Paper §III-D: "Our library is designed to
// provide a foundation for dynamic scheduling. A history of performance
// and power measurements is made accessible to the application or runtime,
// which facilitates online selections of device and configuration for a
// given kernel."
//
// Behaviour per kernel (§III-C): the first invocation runs at the CPU
// sample configuration, the second at the GPU sample configuration; the
// runtime then classifies the kernel, predicts its full frontier, selects
// a configuration for the current power budget and goal, and every later
// invocation runs there. A budget change re-selects from the *retained*
// predicted frontiers — no new sampling.
//
// Kernels are identified by KernelKey — name, call context and an
// input-size bucket — implementing the §VI future-work item: "Our system
// does not automatically differentiate between invocations of the same
// kernel with distinct data inputs or input sizes ... the runtime could
// use call stacks to differentiate between invocations of the same kernel
// from distinct points in the application."
#pragma once

#include <compare>
#include <utility>
#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "core/model.h"
#include "core/scheduler.h"
#include "profile/profiler.h"
#include "soc/machine.h"
#include "workloads/workload.h"

namespace acsel::core {

/// Identity of a kernel as the runtime tracks it.
struct KernelKey {
  std::string name;     ///< kernel symbol / OpenCL kernel name
  std::string context;  ///< call-site / call-stack digest (may be empty)
  std::size_t size_bucket = 0;  ///< input-size bucket (see bucket_for)

  friend auto operator<=>(const KernelKey&, const KernelKey&) = default;
  std::string str() const;
};

/// Log2 bucketing of an input size: invocations whose sizes land in the
/// same power-of-two bucket share a profile.
std::size_t bucket_for(std::size_t input_bytes);

/// One steady-state invocation's predicted-vs-measured pair, emitted to
/// Options::on_feedback — the residual stream the adapt subsystem's drift
/// detectors consume.
struct PredictionFeedback {
  KernelKey key;
  std::size_t cluster = 0;
  SamplePair samples;
  double predicted_power_w = 0.0;
  double predicted_performance = 0.0;
  double measured_power_w = 0.0;
  double measured_performance = 0.0;
  double cap_w = 0.0;
};

class OnlineRuntime {
 public:
  /// Graceful-degradation guardrails. The runtime's inputs — SMU-derived
  /// records — can go bad (stuck estimator, spikes, dropouts); with
  /// guardrails enabled the runtime refuses to commit implausible samples
  /// into a kernel's profile, and falls back to the known-safe (lowest
  /// predicted power) configuration when measured power keeps violating
  /// the cap, re-sampling after a capped exponential backoff. Disabled by
  /// default: clean-run behaviour is bitwise unchanged.
  struct Guardrails {
    bool enabled = false;
    /// A record with non-finite or non-positive time, non-finite or
    /// negative power, or total power above this bound is implausible and
    /// is never committed as a sample.
    double max_plausible_power_w = 1000.0;
    /// Measured power may exceed the cap by this relative tolerance
    /// (noise headroom) before an invocation counts as a violation.
    double cap_tolerance = 0.15;
    /// Consecutive violations before falling back to the safe config.
    int cap_patience = 3;
    /// Invocations spent at the safe configuration before the profile is
    /// discarded and the kernel re-sampled. Doubles on each repeated
    /// fallback of the same kernel (persistent fault), capped at
    /// backoff_max; resets after recovery_patience clean invocations.
    std::size_t backoff_initial = 4;
    std::size_t backoff_max = 64;
    int recovery_patience = 8;
  };

  struct Options {
    double power_cap_w = 1e9;  ///< effectively uncapped by default
    SchedulingGoal goal = SchedulingGoal::MaxPerformance;
    SchedulerOptions scheduler;
    /// Behaviour-change detection (§VI: differentiating "invocations of
    /// the same kernel with distinct data inputs or input sizes" when the
    /// size is not visible to the runtime). When a scheduled kernel's
    /// measured time deviates from its prediction by more than
    /// `phase_threshold` (relative) for `phase_patience` consecutive
    /// invocations, its profile is discarded and it is re-sampled.
    bool detect_behaviour_change = false;
    double phase_threshold = 0.5;
    int phase_patience = 2;
    Guardrails guardrails;
    /// Called after every plausible steady-state invocation with the
    /// prediction the configuration was chosen on and the measurement
    /// that came back. Invoked on the invoke() caller's thread; keep it
    /// cheap or hand off (adapt::AdaptController::observe is the
    /// intended consumer).
    std::function<void(const PredictionFeedback&)> on_feedback;
  };

  /// `machine` must outlive the runtime; the predictor is shared in (the
  /// registry/adapt layers hand the same immutable model to many users).
  OnlineRuntime(soc::Machine& machine, PredictorPtr model,
                const Options& options);
  OnlineRuntime(soc::Machine& machine, PredictorPtr model)
      : OnlineRuntime(machine, std::move(model), Options{}) {}

  /// Runs one invocation of the kernel identified by `key`, whose
  /// implementation/behaviour is `impl`. Handles the sample iterations
  /// and the steady-state configuration transparently.
  const profile::KernelRecord& invoke(
      const KernelKey& key, const workloads::WorkloadInstance& impl);

  /// Changes the node power budget; all known kernels re-select from
  /// their retained predicted frontiers (no re-sampling).
  void set_power_cap(double cap_w);
  double power_cap_w() const { return options_.power_cap_w; }

  /// Changes the scheduling goal (also a pure re-selection).
  void set_goal(SchedulingGoal goal);

  /// Hot-swaps the model (the adapt loop's promotion hand-off): every
  /// tracked kernel with a prediction is re-predicted from its retained
  /// samples and re-selected under the current cap and goal — no
  /// re-sampling, no pause. Kernels in guardrail fallback stay degraded
  /// (at the new model's safe configuration) until their backoff is
  /// served. Returns the number of kernels re-predicted.
  std::size_t adopt_model(PredictorPtr model);

  /// Lifecycle of a tracked kernel.
  enum class Phase { Unseen, SampledCpu, Scheduled };
  Phase phase(const KernelKey& key) const;

  /// The configuration a Scheduled kernel currently runs at.
  std::optional<hw::Configuration> scheduled_config(
      const KernelKey& key) const;

  /// The retained prediction of a Scheduled kernel.
  const Prediction* prediction(const KernelKey& key) const;

  std::size_t tracked_kernels() const { return kernels_.size(); }
  const profile::Profiler& profiler() const { return profiler_; }

  /// Times a kernel's profile was discarded by behaviour-change detection.
  std::size_t behaviour_changes_detected() const {
    return behaviour_changes_;
  }

  // -- guardrail introspection (all zero when guardrails are disabled) ----
  /// Whether a kernel is currently degraded to its safe configuration.
  bool in_fallback(const KernelKey& key) const;
  /// Sample records rejected as implausible (never committed).
  std::size_t guard_rejected_samples() const { return guard_rejected_; }
  /// Scheduled invocations whose measured power violated the cap.
  std::size_t guard_cap_violations() const { return guard_violations_; }
  /// Transitions into the safe-fallback configuration.
  std::size_t guard_fallbacks() const { return guard_fallbacks_; }
  /// Profiles discarded for re-sampling after a served backoff.
  std::size_t guard_resamples() const { return guard_resamples_; }

 private:
  struct Tracked {
    SamplePair samples;
    std::size_t runs = 0;
    std::optional<Prediction> prediction;
    std::optional<std::size_t> config_index;
    int deviant_streak = 0;
    // Guardrail state.
    int cap_violation_streak = 0;
    int clean_streak = 0;
    bool in_fallback = false;
    std::size_t backoff_left = 0;
    /// Current backoff length; survives the profile reset so a recurring
    /// fault backs off exponentially longer each round.
    std::size_t backoff_len = 0;
  };

  void reselect(Tracked& tracked);
  std::size_t safe_config_index(const Tracked& tracked) const;
  void enter_fallback(const KernelKey& key, Tracked& tracked);
  void observe_scheduled(const KernelKey& key, Tracked& tracked,
                         const profile::KernelRecord& record);
  bool plausible(const profile::KernelRecord& record) const;

  soc::Machine* machine_;
  PredictorPtr model_;
  Options options_;
  hw::ConfigSpace space_;
  profile::Profiler profiler_;
  std::map<KernelKey, Tracked> kernels_;
  std::size_t behaviour_changes_ = 0;
  std::size_t guard_rejected_ = 0;
  std::size_t guard_violations_ = 0;
  std::size_t guard_fallbacks_ = 0;
  std::size_t guard_resamples_ = 0;
};

}  // namespace acsel::core
