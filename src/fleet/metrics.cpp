#include "fleet/metrics.h"

#include <algorithm>

namespace acsel::fleet {

std::uint64_t LatencyTracker::quantile_nanos(double q) const {
  std::uint64_t total = 0;
  std::array<std::uint64_t, obs::Histogram::kBuckets> counts{};
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = cells_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  if (total == 0) {
    return 0;
  }
  // Rank of the quantile sample, 1-based, clamped into [1, total].
  const double target = q * static_cast<double>(total);
  std::uint64_t rank = static_cast<std::uint64_t>(target);
  if (static_cast<double>(rank) < target) {
    ++rank;
  }
  rank = rank == 0 ? 1 : std::min(rank, total);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    seen += counts[b];
    if (seen >= rank) {
      return obs::Histogram::bucket_upper_nanos(b);
    }
  }
  return obs::Histogram::bucket_upper_nanos(counts.size() - 1);
}

std::uint64_t LatencyTracker::count() const {
  std::uint64_t total = 0;
  for (const auto& cell : cells_) {
    total += cell.load(std::memory_order_relaxed);
  }
  return total;
}

FleetMetrics::FleetMetrics(std::size_t shards)
    : routed_(&registry_.counter("fleet.routed")),
      delivered_(&registry_.counter("fleet.delivered")),
      delivered_ok_(&registry_.counter("fleet.delivered_ok")),
      hedge_deadline_clipped_(
          &registry_.counter("fleet.hedge_deadline_clipped")),
      shed_(&registry_.counter("fleet.shed")),
      rerouted_(&registry_.counter("fleet.rerouted")),
      hedges_(&registry_.counter("fleet.hedge_fired")),
      votes_(&registry_.counter("fleet.votes")),
      disagreements_(&registry_.counter("fleet.vote_disagreement")),
      median_fallbacks_(&registry_.counter("fleet.vote_median_fallback")),
      heartbeats_dropped_(&registry_.counter("fleet.heartbeat_dropped")),
      replica_timeouts_(&registry_.counter("fleet.replica_timeout")),
      brownout_shed_(&registry_.counter("fleet.brownout_shed")),
      model_mismatch_(&registry_.counter("fleet.model_mismatch")),
      routed_by_priority_{&registry_.counter("fleet.routed.high"),
                          &registry_.counter("fleet.routed.normal"),
                          &registry_.counter("fleet.routed.low")},
      delivered_by_priority_{&registry_.counter("fleet.delivered.high"),
                             &registry_.counter("fleet.delivered.normal"),
                             &registry_.counter("fleet.delivered.low")},
      shed_by_priority_{&registry_.counter("fleet.shed.high"),
                        &registry_.counter("fleet.shed.normal"),
                        &registry_.counter("fleet.shed.low")},
      brownout_stage_(&registry_.gauge("fleet.brownout_stage")),
      membership_transitions_(
          &registry_.gauge("fleet.membership_transitions")),
      alive_replicas_(&registry_.gauge("fleet.alive_replicas")),
      shards_(&registry_.gauge("fleet.shards")),
      replicas_(&registry_.gauge("fleet.replicas")),
      global_budget_w_(&registry_.gauge("fleet.global_budget_w")),
      rebalances_(&registry_.counter("fleet.rebalances")),
      brownout_events_(&registry_.counter("fleet.brownout_events")),
      window_p99_(&registry_.gauge("fleet.window_p99_us")),
      window_cap_exceedance_(&registry_.gauge("fleet.window_cap_exceedance")),
      latency_(&registry_.histogram("fleet.latency")) {
  shard_requests_.reserve(shards);
  shard_hedges_.reserve(shards);
  shard_caps_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    const std::string prefix = "fleet.shard" + std::to_string(s);
    shard_requests_.push_back(&registry_.counter(prefix + ".requests"));
    shard_hedges_.push_back(&registry_.counter(prefix + ".hedges"));
    shard_caps_.push_back(&registry_.gauge(prefix + ".cap_w"));
  }
}

void FleetMetrics::publish_for_scrape(const FleetStats& stats) {
  const auto advance = [](obs::Counter& counter, std::uint64_t target) {
    const std::uint64_t current = counter.value();
    if (target > current) {
      counter.add(target - current);
    }
  };
  std::lock_guard<std::mutex> lock{scrape_mu_};
  shards_->set(static_cast<double>(stats.shards));
  replicas_->set(static_cast<double>(stats.replicas));
  alive_replicas_->set(static_cast<double>(stats.replicas_alive));
  membership_transitions_->set(
      static_cast<double>(stats.membership_transitions));
  global_budget_w_->set(stats.global_budget_w);
  advance(*rebalances_, stats.rebalances);
  advance(*brownout_events_, stats.brownout_events);
}

}  // namespace acsel::fleet
