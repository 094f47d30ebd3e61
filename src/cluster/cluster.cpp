#include "cluster/cluster.h"

#include "util/error.h"

namespace acsel::cluster {

Cluster::Cluster(std::vector<Node> nodes, const ClusterOptions& options)
    : nodes_(std::move(nodes)),
      options_(options),
      recent_power_w_(nodes_.size(), 0.0) {
  ACSEL_CHECK_MSG(!nodes_.empty(), "cluster needs nodes");
  ACSEL_CHECK(options.global_budget_w > 0.0);
  reallocate();
}

const Node& Cluster::node(std::size_t i) const {
  ACSEL_CHECK(i < nodes_.size());
  return nodes_[i];
}

void Cluster::set_global_budget(double budget_w) {
  ACSEL_CHECK(budget_w > 0.0);
  options_.global_budget_w = budget_w;
}

void Cluster::reallocate() {
  std::vector<NodeView> views;
  views.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    NodeView view;
    view.recent_power_w = recent_power_w_[i];
    view.min_cap_w = nodes_[i].predicted_min_cap_w();
    const Node* node = &nodes_[i];
    view.predicted_latency_ms = [node](double cap_w) {
      return node->predicted_timestep_ms(cap_w);
    };
    views.push_back(std::move(view));
  }
  const std::vector<double> caps =
      allocate(options_.policy, options_.global_budget_w, views);
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].set_cap(caps[i]);
  }
}

TimestepReport Cluster::step() {
  reallocate();

  TimestepReport report;
  report.nodes.reserve(nodes_.size());
  report.caps_w.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const NodeTelemetry telemetry = nodes_[i].step();
    recent_power_w_[i] = telemetry.avg_power_w;
    report.throughput += telemetry.timestep_ms > 0.0
                             ? 1000.0 / telemetry.timestep_ms
                             : 0.0;
    report.total_power_w += telemetry.avg_power_w;
    report.violations += telemetry.cap_violated ? 1 : 0;
    report.caps_w.push_back(nodes_[i].cap_w());
    report.nodes.push_back(telemetry);
  }
  return report;
}

TimestepReport Cluster::run(std::size_t steps) {
  ACSEL_CHECK(steps >= 1);
  TimestepReport report;
  for (std::size_t i = 0; i < steps; ++i) {
    report = step();
  }
  return report;
}

}  // namespace acsel::cluster
