#include "core/scheduler.h"

#include "util/error.h"

namespace acsel::core {

double power_risk_z(const SchedulerOptions& options) {
  return options.policy.kind == SelectionPolicy::Kind::UpperConfidence
             ? options.policy.z
             : 0.0;
}

const char* to_string(SelectionPolicy::Kind kind) {
  switch (kind) {
    case SelectionPolicy::Kind::PointEstimate:
      return "point-estimate";
    case SelectionPolicy::Kind::UpperConfidence:
      return "upper-confidence";
  }
  return "?";
}

Scheduler::Scheduler(const Prediction& prediction,
                     const SchedulerOptions& options)
    : prediction_(&prediction), options_(options) {
  ACSEL_CHECK_MSG(!prediction.frontier.empty(),
                  "scheduler needs a non-empty predicted frontier");
  ACSEL_CHECK(power_risk_z(options) >= 0.0);
}

Scheduler::Choice Scheduler::select(double cap_w) const {
  ACSEL_CHECK(cap_w > 0.0);
  const auto& frontier = prediction_->frontier;

  // Walk the frontier from the high-performance end down; the first point
  // whose risk-adjusted power fits wins. Frontier points are sorted by
  // ascending power/performance.
  const double z = power_risk_z(options_);
  const auto& points = frontier.points();
  for (std::size_t i = points.size(); i-- > 0;) {
    const auto& point = points[i];
    const double sigma =
        prediction_->per_config[point.config_index].power_sigma;
    if (point.power_w + z * sigma <= cap_w) {
      return Choice{point.config_index, point.power_w, point.performance,
                    true};
    }
  }
  // Nothing fits even risk-adjusted: fall back to the predicted
  // lowest-power configuration and report infeasibility.
  const auto& fallback = frontier.lowest_power();
  return Choice{fallback.config_index, fallback.power_w,
                fallback.performance, false};
}

Scheduler::Choice Scheduler::select_unconstrained() const {
  const auto& best = prediction_->frontier.best_performance();
  return Choice{best.config_index, best.power_w, best.performance, true};
}

const char* to_string(SchedulingGoal goal) {
  switch (goal) {
    case SchedulingGoal::MaxPerformance:
      return "max-performance";
    case SchedulingGoal::MinEnergy:
      return "min-energy";
    case SchedulingGoal::MinEnergyDelay:
      return "min-edp";
  }
  return "?";
}

Scheduler::Choice Scheduler::select_goal(SchedulingGoal goal,
                                         std::optional<double> cap_w) const {
  if (goal == SchedulingGoal::MaxPerformance) {
    return cap_w.has_value() ? select(*cap_w) : select_unconstrained();
  }
  // Energy-style objectives: both are minimized on the frontier (any
  // dominated point has >= power and <= performance than some frontier
  // point, hence >= energy and >= EDP).
  const double z = power_risk_z(options_);
  const auto& points = prediction_->frontier.points();
  std::optional<Choice> best;
  double best_cost = 0.0;
  for (const auto& point : points) {
    if (cap_w.has_value()) {
      const double sigma =
          prediction_->per_config[point.config_index].power_sigma;
      if (point.power_w + z * sigma > *cap_w) {
        continue;
      }
    }
    const double cost =
        goal == SchedulingGoal::MinEnergy
            ? point.power_w / point.performance
            : point.power_w / (point.performance * point.performance);
    if (!best.has_value() || cost < best_cost) {
      best = Choice{point.config_index, point.power_w, point.performance,
                    true};
      best_cost = cost;
    }
  }
  if (best.has_value()) {
    return *best;
  }
  const auto& fallback = prediction_->frontier.lowest_power();
  return Choice{fallback.config_index, fallback.power_w,
                fallback.performance, false};
}

Scheduler::Choice Scheduler::select_under_energy(
    double max_joules_per_invocation) const {
  ACSEL_CHECK(max_joules_per_invocation > 0.0);
  // Energy is not monotone along the frontier, so scan every point:
  // highest performance among those fitting the budget wins.
  std::optional<Choice> best;
  for (const auto& point : prediction_->frontier.points()) {
    const double joules = point.power_w / point.performance;
    if (joules <= max_joules_per_invocation &&
        (!best.has_value() ||
         point.performance > best->predicted_performance)) {
      best = Choice{point.config_index, point.power_w, point.performance,
                    true};
    }
  }
  if (best.has_value()) {
    return *best;
  }
  // Nothing fits: return the minimum-energy point, flagged infeasible.
  const Choice min_energy = select_goal(SchedulingGoal::MinEnergy);
  return Choice{min_energy.config_index, min_energy.predicted_power_w,
                min_energy.predicted_performance, false};
}

}  // namespace acsel::core
