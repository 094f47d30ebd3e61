// The assembled power-constrained cluster: N nodes, one global budget, a
// reallocation policy, and a timestep loop. This is the multi-node setting
// the paper motivates ("the goal of exascale performance at 20 MW", §I)
// scaled down to something a unit test can run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/node.h"
#include "cluster/power_manager.h"

namespace acsel::cluster {

struct ClusterOptions {
  double global_budget_w = 100.0;
  AllocationPolicy policy = AllocationPolicy::Uniform;
};

struct TimestepReport {
  std::vector<NodeTelemetry> nodes;
  std::vector<double> caps_w;
  /// Sum over nodes of 1/timestep-latency — the global throughput the
  /// marginal-gain policy optimizes.
  double throughput = 0.0;
  double total_power_w = 0.0;
  std::size_t violations = 0;
};

class Cluster {
 public:
  Cluster(std::vector<Node> nodes, const ClusterOptions& options);

  /// Runs one timestep on every node, reallocating power first.
  TimestepReport step();

  /// Convenience: run `steps` timesteps and return the last report.
  TimestepReport run(std::size_t steps);

  /// Changes the global budget (the facility operator's knob); takes
  /// effect at the next reallocation.
  void set_global_budget(double budget_w);
  double global_budget_w() const { return options_.global_budget_w; }

  std::size_t size() const { return nodes_.size(); }
  const Node& node(std::size_t i) const;

 private:
  void reallocate();

  std::vector<Node> nodes_;
  ClusterOptions options_;
  std::vector<double> recent_power_w_;
};

}  // namespace acsel::cluster
