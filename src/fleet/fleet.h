// The sharded multi-node serving fleet in front of serve::Server: a
// consistent-hash Router spreads kernel clusters over shard groups, each
// group is an N-replica set voted through fleet::Voter, membership is
// heartbeat-driven with deterministic failure detection, slow replica
// slots are hedged after a p95-derived delay, and a BudgetBalancer
// periodically reallocates the facility power budget across the shards'
// simulated machines.
//
// In-process multi-node model: every replica is a full serving node —
// its own ModelRegistry (so version skew between nodes is a real state,
// guarded by ModelRegistry::adopt_model), its own serve::Server, and a
// serve::Client for transport (wire codec + retry/backoff, the exact
// bytes a socket deployment would move). Because the replicas of a group
// — and the groups of a fleet — are separate machines in deployment,
// per-request service time is modelled in *simulated* time: a request's
// shard latency is the quorum-completion point over its replica
// latencies (majority of routable replicas), hedged slots complete at
// hedge_delay + fastest-replica time, and a shard's busy time is the sum
// of its requests' service times. Benches project fleet-aggregate
// throughput from those per-shard busy clocks; wall-clock on one box
// only bounds how fast the bench itself runs.
//
// Failure semantics (the contract the chaos tests pin):
//   * a failed replica answers nothing; its slot times out at
//     kReplicaTimeoutNs and contributes no vote. Hedging caps the slot
//     at hedge_delay + fastest live replica.
//   * a request whose owner shard has no routable replica, or whose
//     fan-out produced zero replies, is rerouted to the next distinct
//     shards on the ring (kRerouteFallbacks of them);
//   * when every fallback fails too, the request is answered Shed —
//     every select() returns a response; nothing is silently lost.
//
// Fault sites (armed via ACSEL_FAULTS presets "node_loss", "partition",
// "slow_node", "budget_cut"): "fleet.node_loss" permanently fails one
// replica per fire (drawn at tick time), "fleet.partition" drops
// heartbeats, "fleet.slow_node" multiplies a replica call's simulated
// latency by the site magnitude, and "fleet.budget_cut" declares a power
// emergency while it fires — the global budget drops to magnitude x base
// and the BudgetBalancer's brownout stages engage (drop hedges, shed
// low-priority, force lowest-power configs) until the site stops firing
// and the staged recovery unwinds.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/predictor.h"
#include "exec/executor.h"
#include "fleet/budget.h"
#include "obs/series.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "fleet/hash_ring.h"
#include "fleet/membership.h"
#include "fleet/metrics.h"
#include "fleet/voter.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"

namespace acsel::fleet {

/// Owner-shard delivered-fraction objective of the "fleet.delivered" SLO.
inline constexpr double kDeliveredObjective = 0.999;

/// SLO-engine wiring for a fleet. When enabled, every tick() snapshots
/// the fleet registry into a SeriesStore and evaluates three objectives
/// with multi-window burn-rate alerting:
///   * "fleet.delivered"       — fraction of routed requests delivered by
///                               their owner shard first try >= objective;
///   * "fleet.p99"             — per-tick windowed service p99 (us) below
///                               objective;
///   * "fleet.cap_exceedance"  — per-tick fraction of capped requests
///                               answered infeasible <= objective.
struct SloConfig {
  bool enabled = false;
  obs::BurnRateOptions burn;
  /// Service p99 objective, microseconds (1ms default).
  double p99_objective_us = 1000.0;
  /// Allowed fraction of capped requests answered predicted-infeasible.
  double cap_exceedance_target = 0.05;
  /// Fraction of ticks each SLO may be bad (burn = bad fraction / this).
  double error_budget = 0.001;
};

struct FleetOptions {
  /// Shard groups on the ring.
  std::size_t shards = 4;
  /// Replicas per shard group (NMR width; 3 = classic TMR).
  std::size_t replicas = 3;
  /// Ring points per shard.
  std::size_t ring_vnodes = 64;
  /// Per-replica server options (workers default 1: one node, one lane;
  /// the fleet's parallelism is across nodes).
  serve::ServerOptions server = [] {
    serve::ServerOptions o;
    o.workers = 1;
    return o;
  }();
  /// Per-replica transport client (retry/backoff) options.
  serve::ClientOptions client;
  BudgetOptions budget;
  /// Rebalance the power budget every this many ticks.
  std::uint64_t rebalance_period = 4;
  /// Hedge a slow replica slot after max(hedge_min_delay_ns,
  /// 1.5 * p95(shard service latency)).
  std::uint64_t hedge_min_delay_ns = 100'000;
  /// Cold-start guard: until a shard's latency tracker holds this many
  /// samples its p95 is noise, so the hedge delay stays pinned at
  /// hedge_fallback_delay_ns instead of tracking a garbage tail (a 0 ns
  /// delay would hedge every request; an inflated one would never fire).
  std::uint64_t hedge_min_samples = 32;
  std::uint64_t hedge_fallback_delay_ns = 10'000'000;
  /// Optional executor for the replica fan-out (nullptr = inline). The
  /// benches pass the shared pool; correctness never depends on it.
  exec::Executor* executor = nullptr;
  /// Heterogeneous fleet: the hardware architecture each shard's machines
  /// belong to, one fingerprint per shard (empty = homogeneous, the
  /// legacy behavior). When set, a fingerprint-carrying request prefers
  /// shards of its own architecture — the router walks the full ring
  /// order but tries matching shards first — and being served by a
  /// non-matching shard counts on fleet.model_mismatch. publish_for()
  /// targets the shards of one architecture.
  std::vector<serve::HardwareFingerprint> shard_fingerprints;
  /// Maps a replica call's measured wall nanoseconds to simulated
  /// nanoseconds (identity by default). Tests inject fixed schedules to
  /// pin hedging and quorum arithmetic; must be thread-safe.
  std::function<std::uint64_t(NodeId, std::uint64_t)> latency_model;
  /// Distributed-tracing sample rate at the router: requests entering
  /// select()/serve_frame with no trace attached root one when their id
  /// is divisible by this (1 = all, 100 = 1%); 0 disables rooting.
  /// Requests arriving with a trace (e.g. from a tracing serve::Client)
  /// always join it.
  std::uint64_t trace_sample_den = 0;
  /// SLO engine (off by default; benches and the demo turn it on).
  SloConfig slo;
};

class Fleet {
 public:
  explicit Fleet(const FleetOptions& options);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Publishes a model fleet-wide under the next fleet version: every
  /// non-failed replica adopts it through its registry's version-skew
  /// guard. Returns the fleet version assigned.
  std::uint64_t publish(core::PredictorPtr model);

  /// Architecture-targeted publish (requires shard_fingerprints): every
  /// non-failed replica of the shards carrying `fingerprint` adopts the
  /// model, keyed by that fingerprint, under the next fleet version.
  /// Shards of other architectures keep their own models.
  std::uint64_t publish_for(const serve::HardwareFingerprint& fingerprint,
                            core::PredictorPtr model);

  /// Routes, fans out, votes, and returns the verdict. Always returns a
  /// response; unroutable requests come back status Shed.
  serve::SelectResponse select(const serve::SelectRequest& request);

  /// Wire entry point: SelectRequest frames are routed through select(),
  /// StatsRequest frames are answered with the fleet registry rows (plus,
  /// with the SLO engine on, series.* and slo.* rows computed at scrape
  /// time and the alert rows), anything else is rejected the way
  /// Server::serve_frame rejects it.
  std::vector<std::uint8_t> serve_frame(std::span<const std::uint8_t> frame);

  /// One logical heartbeat period: draws node-loss chaos, delivers
  /// heartbeats (minus partition drops), advances failure detection,
  /// refreshes per-shard hedge delays, and rebalances the power budget
  /// when due. Call from one driver thread; safe against concurrent
  /// select().
  void tick();

  /// Kill switch (demo and chaos hook): permanently fails one replica.
  void fail_node(NodeId node);
  /// Operator revive: restarts heartbeats and re-publishes the current
  /// fleet model to the replica (catching up any missed versions).
  void revive_node(NodeId node);

  /// Declares a power emergency: the balancer's current budget drops to
  /// `budget_w` (the base stays put) and the next tick rebalances
  /// immediately, escalating the brownout stages the new pressure ratio
  /// demands. Safe against concurrent select().
  void set_emergency_budget(double budget_w);
  /// Ends an operator-declared emergency: the budget snaps back to the
  /// base and the brownout unwinds one stage per rebalance.
  void clear_emergency_budget();
  /// The brownout stage requests are currently subject to (cached from
  /// the last rebalance; readable off the hot path).
  BrownoutStage brownout_stage() const {
    return static_cast<BrownoutStage>(
        brownout_stage_.load(std::memory_order_relaxed));
  }

  /// Aggregate transport-client counters across every replica link —
  /// what the retry-budget bound in the soak gate is checked against.
  struct ClientTotals {
    std::uint64_t calls = 0;
    std::uint64_t retries = 0;
    std::uint64_t retry_budget_exhausted = 0;
  };
  ClientTotals client_totals() const;

  /// The shard a request routes to (before liveness rerouting).
  std::uint32_t shard_of(const serve::SelectRequest& request) const;

  /// Routing key: the kernel-cluster identity of a request (hash of the
  /// sample kernel's benchmark/input/kernel names).
  static std::uint64_t route_key(const serve::SelectRequest& request);

  FleetStats stats() const;
  /// Alerts fired so far (empty when the SLO engine is off).
  std::vector<obs::Alert> alerts() const;
  /// Per-SLO live state as of the last tick.
  std::vector<obs::SloState> slo_states() const;
  /// Service-latency exemplars (slowest traced requests), slowest first.
  std::vector<obs::Histogram::Exemplar> latency_exemplars() const {
    return metrics_.latency_exemplars();
  }
  /// Snapshot of the cumulative fleet service-latency histogram.
  obs::Histogram::Snapshot latency_snapshot() const {
    return metrics_.latency_snapshot();
  }
  const obs::Registry& stats_registry() const { return metrics_.registry(); }
  const Membership& membership() const { return membership_; }
  const BudgetBalancer& budget() const { return balancer_; }
  std::uint64_t current_version() const {
    return version_.load(std::memory_order_acquire);
  }

  /// Simulated busy nanoseconds of a shard: the sum of its requests'
  /// quorum-completion times (what the bench projects aggregate
  /// throughput from).
  std::uint64_t shard_busy_ns(std::uint32_t shard) const {
    return shards_[shard]->busy_ns.load(std::memory_order_relaxed);
  }
  /// Current hedge delay of a shard (refreshed each tick).
  std::uint64_t hedge_delay_ns(std::uint32_t shard) const {
    return shards_[shard]->hedge_delay_ns.load(std::memory_order_relaxed);
  }
  /// Requests delivered by / hedges fired on one shard.
  std::uint64_t shard_requests(std::uint32_t shard) const {
    return metrics_.shard_requests(shard);
  }
  std::uint64_t shard_hedges(std::uint32_t shard) const {
    return metrics_.shard_hedges(shard);
  }

  const FleetOptions& options() const { return options_; }

  /// Stops every replica server. Idempotent.
  void stop();

 private:
  struct Replica {
    NodeId id;
    serve::ModelRegistry registry;
    std::unique_ptr<serve::Server> server;
    std::unique_ptr<serve::Client> client;
    std::mutex client_mu;  // serve::Client is not thread-safe
    std::atomic<bool> failed{false};
  };

  struct ShardGroup {
    std::vector<std::unique_ptr<Replica>> replicas;
    LatencyTracker service_latency;
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> hedge_delay_ns{0};
    std::atomic<std::uint64_t> window_delivered{0};
    /// Service-time multiplier from the shard's current power cap
    /// (written at rebalance, read on the request path).
    std::atomic<double> latency_scale{1.0};
    /// The shard's current power cap in watts — the clamp a
    /// ForceLowPower brownout applies to requests routed here.
    std::atomic<double> cap_w{0.0};
  };

  /// One replica slot's outcome in a fan-out round.
  struct Slot {
    std::size_t replica = 0;
    bool replied = false;
    serve::SelectResponse response;
    std::uint64_t sim_ns = 0;
  };

  /// Fans one request out to a shard's routable replicas and votes.
  /// Returns false when the shard produced no reply at all (caller
  /// reroutes).
  bool serve_on_shard(std::uint32_t shard, const serve::SelectRequest& request,
                      serve::SelectResponse& out);

  Slot call_replica(ShardGroup& group, std::size_t replica_index,
                    const serve::SelectRequest& request);

  void adopt_on_replica(
      Replica& replica, std::uint64_t version, const core::PredictorPtr& model,
      std::optional<serve::HardwareFingerprint> fingerprint = std::nullopt);

  /// Appends the scrape-time SLO state to a stats response: gauge rows
  /// series.ticks, series.capacity, series.<name>.{latest,sum,min,max,avg}
  /// (slow-window rollup of every SLO-referenced series, count = points),
  /// slo.configured and slo.active, plus the alert rows. No-op when the
  /// SLO engine is off. Not registry rows: the SeriesStore snapshots the
  /// registry every tick, and these must not become series themselves.
  void append_slo_state(serve::StatsResponse& response) const;

  /// Ring walk for one request: full owner order, but when the request
  /// carries a fingerprint and the fleet is heterogeneous, shards of the
  /// matching architecture come first.
  std::vector<std::uint32_t> route_candidates(
      const serve::SelectRequest& request) const;

  FleetOptions options_;
  HashRing ring_;
  mutable std::mutex membership_mu_;
  Membership membership_;
  mutable std::mutex balancer_mu_;
  BudgetBalancer balancer_;
  FleetMetrics metrics_;
  std::vector<std::unique_ptr<ShardGroup>> shards_;
  std::atomic<std::uint64_t> version_{0};
  mutable std::mutex model_mu_;
  core::PredictorPtr current_model_;  // model_mu_
  std::uint64_t ticks_ = 0;
  /// Brownout stage cached for the request path (written under
  /// balancer_mu_ after each rebalance, read lock-free in select()).
  std::atomic<std::uint8_t> brownout_stage_{0};
  /// Set when a budget change must not wait for the rebalance period.
  std::atomic<bool> rebalance_due_{false};
  /// Whether the current emergency came from the fleet.budget_cut fault
  /// site (tick-thread state: cleared when the site stops firing).
  bool fault_emergency_ = false;
  /// Per-tick latency window backing the fleet.window_p99_us gauge
  /// (reset every tick, unlike the cumulative fleet.latency histogram).
  LatencyTracker window_latency_;
  /// Per-tick cap-exceedance window: capped requests seen / answered
  /// predicted-infeasible since the last tick.
  std::atomic<std::uint64_t> window_capped_{0};
  std::atomic<std::uint64_t> window_cap_exceeded_{0};
  /// SLO engine state (slo_mu_ orders tick-path writes against scrapes).
  mutable std::mutex slo_mu_;
  obs::SeriesStore series_;
  obs::SloEngine slo_engine_;
};

}  // namespace acsel::fleet
