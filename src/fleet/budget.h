// Cluster-wide power reallocation across shard machines. The fleet
// treats the facility power budget as one global resource (Chen et al.'s
// heterogeneous cloud-edge framing) rather than a per-machine constant:
// every `rebalance_period` ticks the balancer rebuilds a
// cluster::NodeView per shard — demand from the shard's delivered
// requests since the last rebalance, latency curve from the shard's
// analytic power model — and runs the existing cluster::allocate
// policies (uniform / demand-proportional / marginal-gain water-filling)
// over them.
//
// The resulting caps feed back into serving: a shard starved of power
// serves slower (its latency scale rises along its power curve), which
// the hedging layer then routes around — the same coupling a real fleet
// sees between its power manager and its tail latency.
//
// The balancer is also the fleet's power-emergency authority. It tracks
// a base (contracted) budget and an emergency override; when the
// emergency budget drops the pressure ratio below the staged thresholds
// it escalates a brownout immediately — drop hedges, then shed
// low-priority traffic, then force every shard's cap to the floor so the
// scheduler's guardrail fallback selects lowest-power configurations —
// and when the budget returns it steps the stages back down one
// rebalance at a time, so recovery is gradual rather than a thundering
// un-shed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/power_manager.h"

namespace acsel::fleet {

/// Nominal per-shard cap used to normalize the latency scale: at this cap
/// a shard serves at 1.0x.
inline constexpr double kNominalCapW = 30.0;
static_assert(kNominalCapW > cluster::kAllocationFloorW,
              "nominal cap must exceed the allocation floor");

struct BudgetOptions {
  /// Facility budget split across shard machines, W.
  double global_budget_w = 240.0;
  cluster::AllocationPolicy policy =
      cluster::AllocationPolicy::DemandProportional;
  /// Idle draw of a shard machine, W (the demand floor).
  double idle_power_w = 12.0;
};

/// Staged degradation under a power emergency; each stage implies the
/// ones before it.
enum class BrownoutStage : std::uint8_t {
  None = 0,
  /// Hedged (duplicate) requests are suppressed — the cheapest watts.
  DropHedges = 1,
  /// Low-priority traffic is shed at the router before fan-out.
  ShedLowPriority = 2,
  /// Every request is capped at the shard's (floored) allocation, so the
  /// scheduler's guardrail fallback pins lowest-power configurations.
  ForceLowPower = 3,
};

const char* to_string(BrownoutStage stage);

/// One shard machine's view for allocation, plus the serving-side effect
/// of its current cap.
struct ShardBudget {
  double cap_w = 0.0;
  /// Requests delivered in the last demand window (the allocation signal).
  std::uint64_t recent_requests = 0;
  /// Simulated service-time multiplier implied by cap_w (1.0 at the
  /// nominal cap; rises as the cap drops toward the floor).
  double latency_scale = 1.0;
};

class BudgetBalancer {
 public:
  BudgetBalancer(std::size_t shards, const BudgetOptions& options);

  /// Reallocates the global budget from one demand window: `demand[s]`
  /// is the requests shard s delivered since the last rebalance (the
  /// caller owns the counters — the fleet keeps them on atomics so this
  /// stays a pure function of its inputs). Dead shards report zero
  /// demand and their budget flows to the survivors.
  void rebalance(const std::vector<std::uint64_t>& demand,
                 const std::vector<bool>& dead);

  /// The shard's current allocation (nominal cap before first rebalance).
  const ShardBudget& shard(std::uint32_t s) const { return shards_[s]; }
  std::size_t size() const { return shards_.size(); }
  std::uint64_t rebalances() const { return rebalances_; }
  double global_budget_w() const { return options_.global_budget_w; }
  /// The contracted budget emergencies recover to.
  double base_budget_w() const { return base_budget_w_; }
  /// current / base — 1.0 outside an emergency.
  double pressure() const {
    return options_.global_budget_w / base_budget_w_;
  }

  /// The facility operator's knob (a deliberate re-provisioning, not an
  /// emergency): sets both the current and the base budget, so the
  /// pressure ratio returns to 1.0. Applies at the next rebalance.
  void set_global_budget(double budget_w);

  /// A power emergency: the current budget is slashed but the base is
  /// untouched, so the pressure ratio drops and the next rebalance
  /// escalates the brownout stages.
  void set_emergency_budget(double budget_w);

  /// Ends the emergency: the current budget snaps back to the base; the
  /// brownout stages unwind one per rebalance.
  void clear_emergency();

  /// Current brownout stage (updated by rebalance).
  BrownoutStage stage() const { return stage_; }
  /// None -> non-None transitions so far.
  std::uint64_t brownout_events() const { return brownout_events_; }

  /// The analytic latency model: predicted service-time scale of a shard
  /// at `cap_w` (non-increasing in cap; 1.0 at nominal). Exposed so the
  /// demo can plot it.
  double latency_scale_at(double cap_w) const;

 private:
  /// The stage the current pressure ratio demands on its own.
  BrownoutStage target_stage() const;

  BudgetOptions options_;
  std::vector<ShardBudget> shards_;
  std::uint64_t rebalances_ = 0;
  double base_budget_w_ = 0.0;
  BrownoutStage stage_ = BrownoutStage::None;
  std::uint64_t brownout_events_ = 0;
};

}  // namespace acsel::fleet
