#include "pareto/frontier.h"

#include "util/error.h"

namespace acsel::pareto {

ParetoFrontier ParetoFrontier::build(std::span<const double> power_w,
                                     std::span<const double> performance) {
  ACSEL_CHECK_MSG(power_w.size() == performance.size() && !power_w.empty(),
                  "frontier needs equal-length non-empty inputs");
  const std::size_t n = power_w.size();
  for (std::size_t i = 0; i < n; ++i) {
    ACSEL_CHECK_MSG(power_w[i] > 0.0 && performance[i] > 0.0,
                    "frontier inputs must be positive");
  }

  // Insertion-sort the points by (power asc, performance desc, index
  // asc) in place: for a configuration space's few dozen points it beats
  // std::sort's partitioning. The order is strict and total, so the
  // sequence is the one any sort yields. A single sweep then keeps points
  // with strictly increasing performance, compacted to the front.
  const auto before = [](const FrontierPoint& a, const FrontierPoint& b) {
    if (a.power_w != b.power_w) {
      return a.power_w < b.power_w;
    }
    if (a.performance != b.performance) {
      return a.performance > b.performance;
    }
    return a.config_index < b.config_index;
  };
  ParetoFrontier frontier;
  std::vector<FrontierPoint>& points = frontier.points_;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const FrontierPoint point{i, power_w[i], performance[i]};
    points.push_back(point);
    std::size_t j = i;
    for (; j > 0 && before(point, points[j - 1]); --j) {
      points[j] = points[j - 1];
    }
    points[j] = point;
  }

  std::size_t kept = 0;
  double best_perf = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (points[i].performance > best_perf) {
      best_perf = points[i].performance;
      points[kept++] = points[i];
    }
  }
  // Callers keep frontiers (a runtime retains one per tracked kernel),
  // so drop the spare capacity rather than hold n points for each.
  points.resize(kept);
  points.shrink_to_fit();
  return frontier;
}

std::optional<FrontierPoint> ParetoFrontier::best_under(double cap_w) const {
  ACSEL_CHECK_MSG(!points_.empty(), "best_under on an empty frontier");
  // Points are sorted by ascending power and performance: the last point
  // at or under the cap is the best feasible one.
  std::optional<FrontierPoint> best;
  for (const FrontierPoint& point : points_) {
    if (point.power_w > cap_w) {
      break;
    }
    best = point;
  }
  return best;
}

const FrontierPoint& ParetoFrontier::lowest_power() const {
  ACSEL_CHECK_MSG(!points_.empty(), "lowest_power on an empty frontier");
  return points_.front();
}

const FrontierPoint& ParetoFrontier::best_performance() const {
  ACSEL_CHECK_MSG(!points_.empty(), "best_performance on an empty frontier");
  return points_.back();
}

std::optional<std::size_t> ParetoFrontier::position_of(
    std::size_t config_index) const {
  for (std::size_t pos = 0; pos < points_.size(); ++pos) {
    if (points_[pos].config_index == config_index) {
      return pos;
    }
  }
  return std::nullopt;
}

}  // namespace acsel::pareto
