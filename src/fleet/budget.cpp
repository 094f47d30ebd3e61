#include "fleet/budget.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"
#include "util/log.h"

namespace acsel::fleet {

namespace {

/// Additional draw of a fully loaded shard machine, W.
constexpr double kActivePowerW = 28.0;

/// Brownout thresholds on the pressure ratio (current budget / base
/// budget). Falling below a threshold escalates to at least that stage;
/// recovery steps down one stage per rebalance once the pressure is back
/// above it.
constexpr double kHedgePressure = 0.85;  ///< stage >= DropHedges below
constexpr double kShedPressure = 0.70;   ///< stage >= ShedLowPriority below
constexpr double kFloorPressure = 0.55;  ///< stage == ForceLowPower below
static_assert(kFloorPressure < kShedPressure &&
                  kShedPressure < kHedgePressure,
              "brownout thresholds must be ordered floor < shed < hedge");

}  // namespace

const char* to_string(BrownoutStage stage) {
  switch (stage) {
    case BrownoutStage::None:
      return "none";
    case BrownoutStage::DropHedges:
      return "drop-hedges";
    case BrownoutStage::ShedLowPriority:
      return "shed-low-priority";
    case BrownoutStage::ForceLowPower:
      return "force-low-power";
  }
  return "?";
}

BudgetBalancer::BudgetBalancer(std::size_t shards,
                               const BudgetOptions& options)
    : options_(options), shards_(shards),
      base_budget_w_(options.global_budget_w) {
  ACSEL_CHECK_MSG(shards >= 1, "budget balancer needs >= 1 shard");
  ACSEL_CHECK_MSG(options_.global_budget_w > 0.0,
                  "global power budget must be positive");
  for (ShardBudget& shard : shards_) {
    shard.cap_w = kNominalCapW;
    shard.latency_scale = 1.0;
  }
}

void BudgetBalancer::set_global_budget(double budget_w) {
  ACSEL_CHECK_MSG(std::isfinite(budget_w) && budget_w > 0.0,
                  "global power budget must be finite and positive");
  options_.global_budget_w = budget_w;
  base_budget_w_ = budget_w;
}

void BudgetBalancer::set_emergency_budget(double budget_w) {
  ACSEL_CHECK_MSG(std::isfinite(budget_w) && budget_w > 0.0,
                  "emergency power budget must be finite and positive");
  options_.global_budget_w = budget_w;
}

void BudgetBalancer::clear_emergency() {
  options_.global_budget_w = base_budget_w_;
}

BrownoutStage BudgetBalancer::target_stage() const {
  const double p = pressure();
  if (p < kFloorPressure) {
    return BrownoutStage::ForceLowPower;
  }
  if (p < kShedPressure) {
    return BrownoutStage::ShedLowPriority;
  }
  if (p < kHedgePressure) {
    return BrownoutStage::DropHedges;
  }
  return BrownoutStage::None;
}

double BudgetBalancer::latency_scale_at(double cap_w) const {
  // Service time vs power follows the frontier shape the paper reports:
  // steep gains just above the floor, diminishing returns toward the top
  // of the range. t(cap) = 1 + k / (cap - floor), normalized so
  // t(nominal) = 1.0 exactly.
  const double floor = cluster::kAllocationFloorW;
  const double k = 0.5 * (kNominalCapW - floor);
  const double clamped = std::max(cap_w, floor + 0.5);
  const double raw = 1.0 + k / (clamped - floor);
  const double at_nominal = 1.0 + k / (kNominalCapW - floor);
  return raw / at_nominal;
}

void BudgetBalancer::rebalance(const std::vector<std::uint64_t>& demand,
                               const std::vector<bool>& dead) {
  ACSEL_CHECK_MSG(demand.size() == shards_.size() &&
                      dead.size() == shards_.size(),
                  "rebalance: demand/dead size mismatch");
  std::uint64_t total = 0;
  for (const std::uint64_t n : demand) {
    total += n;
  }

  std::vector<cluster::NodeView> views(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const double share =
        total == 0 ? 1.0 / static_cast<double>(shards_.size())
                   : static_cast<double>(demand[s]) /
                         static_cast<double>(total);
    cluster::NodeView& view = views[s];
    // A dead shard draws idle power and gains nothing from budget; the
    // allocator naturally starves it toward the floor.
    view.recent_power_w =
        dead[s] ? options_.idle_power_w
                : options_.idle_power_w + share * kActivePowerW;
    view.min_cap_w = cluster::kAllocationFloorW;
    const double load = dead[s] ? 0.0 : share;
    view.predicted_latency_ms = [this, load](double budget_w) {
      // Marginal gain weights shards by how much load their latency
      // curve carries; a dead shard's flat curve attracts nothing.
      return latency_scale_at(budget_w) * (0.1 + load);
    };
  }

  // An emergency can slash the budget below the sum of per-shard floors;
  // the floor-respecting policies would then hand out more watts than
  // exist (every cap clamped up to the floor). In that regime the floors
  // are void — split the budget evenly so the caps stay non-negative and
  // sum to exactly what the facility has.
  const double floor_sum =
      cluster::kAllocationFloorW * static_cast<double>(shards_.size());
  std::vector<double> caps;
  if (options_.global_budget_w < floor_sum) {
    caps.assign(shards_.size(), options_.global_budget_w /
                                    static_cast<double>(shards_.size()));
  } else {
    caps = cluster::allocate(options_.policy, options_.global_budget_w,
                             views);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].cap_w = caps[s];
    shards_[s].recent_requests = demand[s];
    shards_[s].latency_scale = latency_scale_at(caps[s]);
  }
  ++rebalances_;

  // Brownout staging: escalation is immediate (the watts are already
  // gone), recovery unwinds one stage per rebalance so the un-shed wave
  // ramps instead of slamming back.
  const BrownoutStage target = target_stage();
  const auto level = [](BrownoutStage s) {
    return static_cast<std::uint8_t>(s);
  };
  BrownoutStage next = stage_;
  if (level(target) > level(stage_)) {
    next = target;
  } else if (level(target) < level(stage_)) {
    next = static_cast<BrownoutStage>(level(stage_) - 1);
  }
  if (next != stage_) {
    if (stage_ == BrownoutStage::None) {
      ++brownout_events_;
    }
    ACSEL_LOG_INFO("fleet: brownout " << to_string(stage_) << " -> "
                                      << to_string(next) << " (pressure "
                                      << pressure() << ")");
    stage_ = next;
  }

  ACSEL_LOG_DEBUG("fleet: rebalanced "
                  << options_.global_budget_w << " W across "
                  << shards_.size() << " shards (" << total
                  << " requests in window)");
}

}  // namespace acsel::fleet
