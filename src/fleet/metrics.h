// Fleet observability, following the ServerMetrics pattern: every counter
// is a named row in the fleet's own obs::Registry (one registry per
// Fleet, so a fleet and its replica servers never share rows), updated
// through cached references on the routing hot path. State other fleet
// components own (topology, membership, balancer) is copied into rows
// only when a stats scrape is about to snapshot the registry.
//
// LatencyTracker adds the one thing obs::Histogram's snapshot does not
// expose: an arbitrary quantile. The hedging layer needs p95 — hedge
// delay is p95-derived by spec — so the tracker reuses the histogram's
// public bucket layout (obs::Histogram::bucket_of / bucket_upper_nanos)
// over its own wait-free cells and reads any quantile from them.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "serve/message.h"

namespace acsel::fleet {

/// Wait-free log-bucketed quantile tracker (nanosecond samples).
class LatencyTracker {
 public:
  void record(std::uint64_t nanos) {
    cells_[obs::Histogram::bucket_of(nanos)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// The smallest bucket upper bound covering fraction `q` of recorded
  /// samples (0 when nothing recorded). q in [0, 1].
  std::uint64_t quantile_nanos(double q) const;

  std::uint64_t count() const;

  void reset() {
    for (auto& cell : cells_) {
      cell.store(0, std::memory_order_relaxed);
    }
  }

 private:
  std::array<std::atomic<std::uint64_t>, obs::Histogram::kBuckets> cells_{};
};

/// In-process snapshot of fleet state (Fleet::stats()); a wire scrape
/// carries the same figures as fleet.* registry rows.
struct FleetStats {
  std::uint32_t shards = 0;
  /// Replicas configured / currently not Dead.
  std::uint32_t replicas = 0;
  std::uint32_t replicas_alive = 0;
  std::uint64_t routed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t hedges_fired = 0;
  std::uint64_t vote_disagreements = 0;
  std::uint64_t median_fallbacks = 0;
  std::uint64_t membership_transitions = 0;
  std::uint64_t heartbeats_dropped = 0;
  std::uint64_t replica_timeouts = 0;
  std::uint64_t rebalances = 0;
  /// Facility budget currently being split across shards, W.
  double global_budget_w = 0.0;
  /// Per-priority accounting, indexed by serve::Priority (High, Normal,
  /// Low). routed == delivered + shed holds per class, not just in
  /// aggregate.
  std::array<std::uint64_t, serve::kPriorityClasses> routed_by_priority{};
  std::array<std::uint64_t, serve::kPriorityClasses> delivered_by_priority{};
  std::array<std::uint64_t, serve::kPriorityClasses> shed_by_priority{};
  /// Power-emergency brownout: current stage (0 = none, 1 = hedges
  /// dropped, 2 = + low priority shed, 3 = + caps forced to the floor)
  /// and how many emergencies have been entered so far.
  std::uint32_t brownout_stage = 0;
  std::uint64_t brownout_events = 0;
  /// Requests served by a shard/model whose fingerprint did not match the
  /// request's (nearest-fingerprint fallback engaged). 0 in a clean
  /// heterogeneous run: the router prefers matched shards.
  std::uint64_t model_mismatch = 0;

  bool operator==(const FleetStats&) const = default;
};

/// Everything the fleet counts. Shard-indexed rows are named
/// "fleet.shard<N>.*" so a registry scrape shows the per-shard split.
class FleetMetrics {
 public:
  explicit FleetMetrics(std::size_t shards);

  // -- hot-path updates --------------------------------------------------
  void on_routed(serve::Priority priority) {
    routed_->add();
    routed_by_priority_[static_cast<std::size_t>(priority)]->add();
  }
  /// `trace_id` (when nonzero) offers the sample as a latency exemplar —
  /// the slowest traced requests stay resolvable from the histogram.
  void on_delivered(std::uint32_t shard, serve::Priority priority,
                    std::uint64_t service_nanos,
                    std::uint64_t trace_id = 0) {
    delivered_->add();
    delivered_by_priority_[static_cast<std::size_t>(priority)]->add();
    shard_requests_[shard]->add();
    latency_->record(service_nanos, trace_id);
  }
  /// Delivered by the owner shard, first try — the numerator of the
  /// delivered-fraction SLO (a reroute keeps the request alive but burns
  /// the objective; a shed burns it harder).
  void on_delivered_ok() { delivered_ok_->add(); }
  void on_shed(serve::Priority priority) {
    shed_->add();
    shed_by_priority_[static_cast<std::size_t>(priority)]->add();
  }
  /// A Low request refused at the router by a brownout stage >=
  /// ShedLowPriority (also counted by on_shed).
  void on_brownout_shed() { brownout_shed_->add(); }
  /// A fingerprint-carrying request delivered by a shard of a different
  /// architecture (heterogeneous fleets only).
  void on_model_mismatch() { model_mismatch_->add(); }
  void on_hedge_deadline_clipped() { hedge_deadline_clipped_->add(); }
  void on_rerouted() { rerouted_->add(); }
  void on_hedge_fired(std::uint32_t shard) {
    hedges_->add();
    shard_hedges_[shard]->add();
  }
  void on_vote(bool disagreement, bool median_fallback) {
    votes_->add();
    if (disagreement) {
      disagreements_->add();
    }
    if (median_fallback) {
      median_fallbacks_->add();
    }
  }
  void on_heartbeat_dropped() { heartbeats_dropped_->add(); }
  void on_replica_timeout() { replica_timeouts_->add(); }

  // -- tick-path updates -------------------------------------------------
  void set_membership_transitions(std::uint64_t n) {
    // Gauge, not counter: the Membership table owns the count.
    membership_transitions_->set(static_cast<double>(n));
  }
  void set_alive_replicas(std::size_t n) {
    alive_replicas_->set(static_cast<double>(n));
  }
  void set_shard_cap(std::uint32_t shard, double cap_w) {
    shard_caps_[shard]->set(cap_w);
  }
  /// Per-tick windowed gauges: the SLO engine needs SLIs that recover
  /// once a condition ends, which the cumulative histogram cannot do.
  void set_window_p99_us(double p99_us) { window_p99_->set(p99_us); }
  void set_window_cap_exceedance(double fraction) {
    window_cap_exceedance_->set(fraction);
  }
  void set_brownout_stage(std::uint8_t stage) {
    brownout_stage_->set(static_cast<double>(stage));
  }

  // -- scrape-path updates -----------------------------------------------
  /// Copies the rows whose source of truth lives elsewhere (topology,
  /// membership table, balancer) out of `stats`, just before a stats
  /// scrape snapshots the registry. Counters advance to the owner's count.
  void publish_for_scrape(const FleetStats& stats);

  std::uint64_t routed() const { return routed_->value(); }
  std::uint64_t delivered() const { return delivered_->value(); }
  std::uint64_t delivered_ok() const { return delivered_ok_->value(); }
  std::uint64_t hedge_deadline_clipped() const {
    return hedge_deadline_clipped_->value();
  }
  std::uint64_t shed() const { return shed_->value(); }
  std::uint64_t rerouted() const { return rerouted_->value(); }
  std::uint64_t hedges_fired() const { return hedges_->value(); }
  std::uint64_t vote_disagreements() const { return disagreements_->value(); }
  std::uint64_t median_fallbacks() const { return median_fallbacks_->value(); }
  std::uint64_t heartbeats_dropped() const {
    return heartbeats_dropped_->value();
  }
  std::uint64_t replica_timeouts() const { return replica_timeouts_->value(); }
  std::uint64_t shard_requests(std::uint32_t shard) const {
    return shard_requests_[shard]->value();
  }
  std::uint64_t shard_hedges(std::uint32_t shard) const {
    return shard_hedges_[shard]->value();
  }
  std::uint64_t routed_by_priority(serve::Priority p) const {
    return routed_by_priority_[static_cast<std::size_t>(p)]->value();
  }
  std::uint64_t delivered_by_priority(serve::Priority p) const {
    return delivered_by_priority_[static_cast<std::size_t>(p)]->value();
  }
  std::uint64_t shed_by_priority(serve::Priority p) const {
    return shed_by_priority_[static_cast<std::size_t>(p)]->value();
  }
  std::uint64_t model_mismatch() const { return model_mismatch_->value(); }

  const obs::Registry& registry() const { return registry_; }
  /// Mutable registry access for the SLO engine (it pulls exemplars from
  /// histograms by name, and lookup registers-on-miss).
  obs::Registry& mutable_registry() { return registry_; }
  obs::Histogram::Snapshot latency_snapshot() const {
    return latency_->snapshot();
  }
  /// Exemplars of the fleet service-latency histogram, slowest first.
  std::vector<obs::Histogram::Exemplar> latency_exemplars() const {
    return latency_->exemplars();
  }

 private:
  obs::Registry registry_;
  // Cached references into registry_ (stable for its lifetime).
  obs::Counter* routed_;
  obs::Counter* delivered_;
  obs::Counter* delivered_ok_;
  obs::Counter* hedge_deadline_clipped_;
  obs::Counter* shed_;
  obs::Counter* rerouted_;
  obs::Counter* hedges_;
  obs::Counter* votes_;
  obs::Counter* disagreements_;
  obs::Counter* median_fallbacks_;
  obs::Counter* heartbeats_dropped_;
  obs::Counter* replica_timeouts_;
  obs::Counter* brownout_shed_;
  obs::Counter* model_mismatch_;
  std::array<obs::Counter*, serve::kPriorityClasses> routed_by_priority_;
  std::array<obs::Counter*, serve::kPriorityClasses> delivered_by_priority_;
  std::array<obs::Counter*, serve::kPriorityClasses> shed_by_priority_;
  obs::Gauge* brownout_stage_;
  obs::Gauge* membership_transitions_;
  obs::Gauge* alive_replicas_;
  obs::Gauge* shards_;
  obs::Gauge* replicas_;
  obs::Gauge* global_budget_w_;
  obs::Counter* rebalances_;
  obs::Counter* brownout_events_;
  /// Serializes publish_for_scrape(): concurrent scrapes must not both
  /// add the same counter delta.
  std::mutex scrape_mu_;
  obs::Gauge* window_p99_;
  obs::Gauge* window_cap_exceedance_;
  obs::Histogram* latency_;
  std::vector<obs::Counter*> shard_requests_;
  std::vector<obs::Counter*> shard_hedges_;
  std::vector<obs::Gauge*> shard_caps_;
};

}  // namespace acsel::fleet
