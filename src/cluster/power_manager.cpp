#include "cluster/power_manager.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"

namespace acsel::cluster {

const char* to_string(AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::Uniform:
      return "uniform";
    case AllocationPolicy::DemandProportional:
      return "demand-proportional";
    case AllocationPolicy::MarginalGain:
      return "marginal-gain";
  }
  return "?";
}

namespace {

/// Power quantum moved per water-filling step, W. Configurations are
/// discrete, so the quantum must be coarse enough to cross frontier steps
/// (adjacent frontier points are typically 1-3 W apart).
constexpr double kQuantumW = 2.0;
/// Maximum water-filling iterations per reallocation.
constexpr std::size_t kMaxIterations = 200;

std::vector<double> uniform_split(double budget_w, std::size_t n) {
  return std::vector<double>(n, budget_w / static_cast<double>(n));
}

std::vector<double> demand_split(double budget_w,
                                 const std::vector<NodeView>& nodes) {
  const std::size_t n = nodes.size();
  double demand_total = 0.0;
  for (const NodeView& node : nodes) {
    demand_total += std::max(node.recent_power_w, 1e-6);
  }
  std::vector<double> caps(n);
  // Grant the floor first, then split the remainder by demand share.
  const double floor_total = kAllocationFloorW * static_cast<double>(n);
  const double spread = std::max(0.0, budget_w - floor_total);
  for (std::size_t i = 0; i < n; ++i) {
    const double share =
        std::max(nodes[i].recent_power_w, 1e-6) / demand_total;
    caps[i] = std::min(budget_w / static_cast<double>(n) + spread,
                       kAllocationFloorW + spread * share);
  }
  // Normalize any rounding drift back into the budget.
  const double total = std::accumulate(caps.begin(), caps.end(), 0.0);
  if (total > budget_w) {
    for (double& cap : caps) {
      cap *= budget_w / total;
    }
  }
  return caps;
}

std::vector<double> marginal_gain_split(double budget_w,
                                        const std::vector<NodeView>& nodes) {
  const std::size_t n = nodes.size();
  std::vector<double> caps = uniform_split(budget_w, n);
  // Keep everyone at least at their floor.
  for (double& cap : caps) {
    cap = std::max(cap, kAllocationFloorW);
  }

  // Global throughput objective: sum over nodes of 1/latency. Move a
  // quantum from the node whose throughput suffers least to the node
  // whose throughput gains most, until no move helps.
  const auto throughput = [&](std::size_t i, double cap) {
    const double latency = nodes[i].predicted_latency_ms(cap);
    ACSEL_CHECK_MSG(latency > 0.0, "predicted latency must be positive");
    return 1000.0 / latency;
  };

  // Frontier steps can sit several watts from the current operating
  // point, so moves of 1..kLookahead quanta are all considered — a purely
  // myopic single-quantum search stalls in front of performance cliffs.
  constexpr int kLookahead = 4;
  for (std::size_t iter = 0; iter < kMaxIterations; ++iter) {
    double best_gain = 0.0;
    std::size_t best_from = n;
    std::size_t best_to = n;
    double best_amount = 0.0;
    for (std::size_t from = 0; from < n; ++from) {
      const double floor = std::max(kAllocationFloorW, nodes[from].min_cap_w);
      for (int k = 1; k <= kLookahead; ++k) {
        const double amount = kQuantumW * k;
        if (caps[from] - amount < floor) {
          break;
        }
        const double loss = throughput(from, caps[from]) -
                            throughput(from, caps[from] - amount);
        for (std::size_t to = 0; to < n; ++to) {
          if (to == from) {
            continue;
          }
          const double gain = throughput(to, caps[to] + amount) -
                              throughput(to, caps[to]);
          if (gain - loss > best_gain + 1e-12) {
            best_gain = gain - loss;
            best_from = from;
            best_to = to;
            best_amount = amount;
          }
        }
      }
    }
    if (best_from == n) {
      break;  // converged: no beneficial move remains
    }
    caps[best_from] -= best_amount;
    caps[best_to] += best_amount;
  }
  return caps;
}

}  // namespace

std::vector<double> allocate(AllocationPolicy policy, double budget_w,
                             const std::vector<NodeView>& nodes) {
  ACSEL_CHECK_MSG(!nodes.empty(), "allocate: no nodes");
  ACSEL_CHECK_MSG(budget_w > 0.0, "allocate: non-positive budget");

  switch (policy) {
    case AllocationPolicy::Uniform:
      return uniform_split(budget_w, nodes.size());
    case AllocationPolicy::DemandProportional:
      return demand_split(budget_w, nodes);
    case AllocationPolicy::MarginalGain:
      for (const NodeView& node : nodes) {
        ACSEL_CHECK_MSG(static_cast<bool>(node.predicted_latency_ms),
                        "marginal-gain needs latency predictors");
      }
      return marginal_gain_split(budget_w, nodes);
  }
  throw Error{"unknown AllocationPolicy"};
}

}  // namespace acsel::cluster
