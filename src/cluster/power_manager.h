// Cluster-level power allocation: divides a global budget across nodes
// (paper §I: system-wide power policies filtered down the hierarchy;
// §II-B Isci et al. optimize a chip-level budget across cores — this is
// the node-level analogue the paper positions its model as enabling).
//
// Three policies:
//  * Uniform          — budget / n, the state of the practice;
//  * DemandProportional — proportional to each node's recent average
//                       power draw (nodes that used more get more);
//  * MarginalGain     — water-filling on the nodes' *predicted* latency
//                       curves: repeatedly move a power quantum from the
//                       node that loses the least to the node that gains
//                       the most, as told by the retained predicted Pareto
//                       frontiers. This is the allocation the paper's
//                       node-level model makes possible.
#pragma once

#include <functional>
#include <vector>

namespace acsel::cluster {

enum class AllocationPolicy { Uniform, DemandProportional, MarginalGain };

const char* to_string(AllocationPolicy policy);

/// What the manager knows about each node when (re)allocating.
struct NodeView {
  /// Recent average power draw, W (demand signal).
  double recent_power_w = 0.0;
  /// Lowest workable budget (predicted); allocations never go below it.
  double min_cap_w = 0.0;
  /// Predicted timestep latency as a function of budget, ms. Must be
  /// non-increasing in the budget.
  std::function<double(double)> predicted_latency_ms;
};

/// Floor for any node's allocation, W (keeps nodes bootable).
inline constexpr double kAllocationFloorW = 10.0;

/// Splits `budget_w` across the nodes according to `policy`. The returned
/// allocations sum to at most budget_w (within 1e-9) and respect the
/// per-node floor whenever budget_w >= n * kAllocationFloorW.
std::vector<double> allocate(AllocationPolicy policy, double budget_w,
                             const std::vector<NodeView>& nodes);

}  // namespace acsel::cluster
