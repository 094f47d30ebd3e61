// The online scheduler (paper §III-C): walks a kernel's *predicted*
// Pareto frontier and selects the highest-performance configuration whose
// predicted power meets the cap. Because the whole predicted frontier is
// retained, the scheduler adapts to dynamic power constraints without
// re-running samples or re-examining all configurations.
#pragma once

#include <cstddef>
#include <optional>

#include "core/model.h"

namespace acsel::core {

/// What the scheduler optimizes. The paper focuses on maximizing
/// performance under a power cap, but notes the predicted values "could be
/// used to select configurations for energy efficiency, energy-delay
/// product, or any other scheduling goal" (§III-C) — these are those
/// goals.
enum class SchedulingGoal {
  MaxPerformance,  ///< highest predicted performance (under a cap, if any)
  MinEnergy,       ///< lowest predicted energy per invocation
  MinEnergyDelay,  ///< lowest predicted energy-delay product
};

const char* to_string(SchedulingGoal goal);

/// How selection treats predictive uncertainty near the power cap.
struct SelectionPolicy {
  enum class Kind {
    /// Paper behaviour: compare the predicted mean power against the cap.
    PointEstimate,
    /// Risk-averse (§VI variance-aware extension): pick the best
    /// performing configuration whose *upper-confidence* power
    /// mean + z * sigma stays under the cap. z is the one-sided
    /// confidence multiplier (1.64 ≈ 95%).
    UpperConfidence,
  };
  Kind kind = Kind::PointEstimate;
  /// Sigma multiplier; only read under UpperConfidence.
  double z = 1.0;

  static SelectionPolicy point_estimate() { return SelectionPolicy{}; }
  static SelectionPolicy upper_confidence(double z_score) {
    return SelectionPolicy{Kind::UpperConfidence, z_score};
  }
};

const char* to_string(SelectionPolicy::Kind kind);

struct SchedulerOptions {
  /// Uncertainty treatment of the power-cap comparison.
  SelectionPolicy policy;
};

/// The effective one-sided multiplier on predicted power sigma the
/// scheduler applies against the cap (0 under a pure point estimate).
double power_risk_z(const SchedulerOptions& options);

class Scheduler {
 public:
  /// The prediction must outlive the scheduler.
  explicit Scheduler(const Prediction& prediction,
                     const SchedulerOptions& options = {});

  struct Choice {
    std::size_t config_index = 0;
    double predicted_power_w = 0.0;
    double predicted_performance = 0.0;
    /// False when even the predicted lowest-power configuration violates
    /// the cap; the scheduler then falls back to that configuration.
    bool predicted_feasible = false;
  };

  /// Best predicted configuration under `cap_w`.
  Choice select(double cap_w) const;

  /// Unconstrained choice (highest predicted performance).
  Choice select_unconstrained() const;

  /// Goal-directed selection over the predicted frontier, optionally
  /// under a power cap. MaxPerformance with a cap is select();
  /// MinEnergy minimizes predicted power/performance (J per invocation);
  /// MinEnergyDelay minimizes power/performance^2. When a cap excludes
  /// every frontier point, falls back to the lowest-power configuration
  /// with predicted_feasible = false.
  Choice select_goal(SchedulingGoal goal,
                     std::optional<double> cap_w = std::nullopt) const;

  /// Energy-budget selection (the Springer et al. setting of §II-B:
  /// "given an energy budget ... minimize application completion time"):
  /// the highest-performance frontier point whose predicted energy per
  /// invocation (power / performance) fits the budget. Falls back to the
  /// predicted minimum-energy configuration with predicted_feasible =
  /// false when nothing fits.
  Choice select_under_energy(double max_joules_per_invocation) const;

  const Prediction& prediction() const { return *prediction_; }

 private:
  const Prediction* prediction_;
  SchedulerOptions options_;
};

}  // namespace acsel::core
