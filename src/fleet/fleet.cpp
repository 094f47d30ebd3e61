#include "fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "exec/task_group.h"
#include "fault/fault.h"
#include "obs/trace.h"
#include "serve/codec.h"
#include "util/error.h"
#include "util/log.h"
#include "util/rng.h"

namespace acsel::fleet {

namespace {

/// Distinct fallback shards the router walks when the owner is down.
constexpr std::size_t kRerouteFallbacks = 2;
/// Simulated cost of a replica slot that never answers.
constexpr std::uint64_t kReplicaTimeoutNs = 10'000'000;
/// Hedge delay as a multiple of the shard's p95 service latency.
constexpr double kHedgeP95Multiplier = 1.5;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Fleet::Fleet(const FleetOptions& options)
    : options_(options),
      ring_(options.ring_vnodes),
      balancer_(options.shards, options.budget),
      metrics_(options.shards),
      slo_engine_(options.slo.burn) {
  ACSEL_CHECK_MSG(options_.shards >= 1, "fleet needs >= 1 shard");
  ACSEL_CHECK_MSG(options_.replicas >= 1,
                  "fleet needs >= 1 replica per shard");
  ACSEL_CHECK_MSG(options_.rebalance_period >= 1,
                  "rebalance period must be >= 1 tick");
  ACSEL_CHECK_MSG(options_.hedge_fallback_delay_ns >= 1,
                  "hedge fallback delay must be >= 1 ns");
  ACSEL_CHECK_MSG(options_.shard_fingerprints.empty() ||
                      options_.shard_fingerprints.size() == options_.shards,
                  "shard_fingerprints must name every shard or none");
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    ring_.add(static_cast<std::uint32_t>(s));
    auto group = std::make_unique<ShardGroup>();
    group->hedge_delay_ns.store(options_.hedge_fallback_delay_ns,
                                std::memory_order_relaxed);
    group->replicas.reserve(options_.replicas);
    for (std::size_t r = 0; r < options_.replicas; ++r) {
      auto replica = std::make_unique<Replica>();
      replica->id = NodeId{static_cast<std::uint32_t>(s),
                           static_cast<std::uint32_t>(r)};
      replica->server =
          std::make_unique<serve::Server>(replica->registry, options_.server);
      serve::ClientOptions client_options = options_.client;
      // Decorrelate each replica link's retry jitter stream.
      client_options.seed = Rng::mix_seeds(
          client_options.seed, (std::uint64_t{replica->id.shard} << 32) |
                                   replica->id.replica);
      serve::Server* server = replica->server.get();
      replica->client = std::make_unique<serve::Client>(
          [server](std::span<const std::uint8_t> frame) {
            return server->serve_frame(frame);
          },
          client_options);
      membership_.join(replica->id);
      group->replicas.push_back(std::move(replica));
    }
    shards_.push_back(std::move(group));
  }
  metrics_.set_alive_replicas(options_.shards * options_.replicas);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    const double cap_w =
        balancer_.shard(static_cast<std::uint32_t>(s)).cap_w;
    metrics_.set_shard_cap(static_cast<std::uint32_t>(s), cap_w);
    shards_[s]->cap_w.store(cap_w, std::memory_order_relaxed);
  }
  if (options_.slo.enabled) {
    obs::Slo delivered;
    delivered.name = "fleet.delivered";
    delivered.kind = obs::SloKind::RatioAtLeast;
    delivered.numerator = "fleet.delivered_ok";
    delivered.denominator = "fleet.routed";
    delivered.objective = kDeliveredObjective;
    delivered.error_budget = options_.slo.error_budget;
    delivered.exemplar_metric = "fleet.latency";
    slo_engine_.add(std::move(delivered));

    obs::Slo p99;
    p99.name = "fleet.p99";
    p99.kind = obs::SloKind::ValueBelow;
    p99.numerator = "fleet.window_p99_us";
    p99.objective = options_.slo.p99_objective_us;
    p99.error_budget = options_.slo.error_budget;
    p99.exemplar_metric = "fleet.latency";
    slo_engine_.add(std::move(p99));

    obs::Slo cap;
    cap.name = "fleet.cap_exceedance";
    cap.kind = obs::SloKind::ValueAtMost;
    cap.numerator = "fleet.window_cap_exceedance";
    cap.objective = options_.slo.cap_exceedance_target;
    cap.error_budget = options_.slo.error_budget;
    slo_engine_.add(std::move(cap));
  }
  ACSEL_LOG_INFO("fleet: started " << options_.shards << " shards x "
                                   << options_.replicas << " replicas");
}

Fleet::~Fleet() { stop(); }

void Fleet::stop() {
  for (auto& group : shards_) {
    for (auto& replica : group->replicas) {
      replica->server->stop();
    }
  }
}

std::uint64_t Fleet::publish(core::PredictorPtr model) {
  ACSEL_CHECK_MSG(model != nullptr, "fleet: cannot publish a null model");
  const std::uint64_t version =
      version_.fetch_add(1, std::memory_order_acq_rel) + 1;
  {
    std::lock_guard<std::mutex> lock{model_mu_};
    current_model_ = model;
  }
  for (auto& group : shards_) {
    for (auto& replica : group->replicas) {
      if (replica->failed.load(std::memory_order_acquire)) {
        continue;  // a dead node misses the publish; revive catches it up
      }
      adopt_on_replica(*replica, version, model);
    }
  }
  ACSEL_LOG_INFO("fleet: published model as fleet version " << version);
  return version;
}

std::uint64_t Fleet::publish_for(const serve::HardwareFingerprint& fingerprint,
                                 core::PredictorPtr model) {
  ACSEL_CHECK_MSG(model != nullptr, "fleet: cannot publish a null model");
  ACSEL_CHECK_MSG(!options_.shard_fingerprints.empty(),
                  "publish_for needs a heterogeneous fleet "
                  "(FleetOptions::shard_fingerprints)");
  const std::uint64_t version =
      version_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::size_t matched = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!(options_.shard_fingerprints[s] == fingerprint)) {
      continue;
    }
    ++matched;
    for (auto& replica : shards_[s]->replicas) {
      if (replica->failed.load(std::memory_order_acquire)) {
        continue;  // a dead node misses the publish; revive catches it up
      }
      adopt_on_replica(*replica, version, model, fingerprint);
    }
  }
  ACSEL_CHECK_MSG(matched > 0,
                  "publish_for: no shard carries the given fingerprint");
  ACSEL_LOG_INFO("fleet: published model for architecture "
                 << fingerprint.hash << " as fleet version " << version
                 << " on " << matched << " shard(s)");
  return version;
}

void Fleet::adopt_on_replica(
    Replica& replica, std::uint64_t version, const core::PredictorPtr& model,
    std::optional<serve::HardwareFingerprint> fingerprint) {
  try {
    replica.registry.adopt_model(version, model, /*allow_rollback=*/false,
                                 std::move(fingerprint));
  } catch (const Error& error) {
    // The skew guard refusing is the correct outcome for a stale replay;
    // the replica keeps serving its newer model.
    ACSEL_LOG_WARN("fleet: node " << replica.id.shard << "/"
                                  << replica.id.replica
                                  << " refused version " << version << ": "
                                  << error.what());
  }
}

std::uint64_t Fleet::route_key(const serve::SelectRequest& request) {
  // The kernel-cluster identity: requests about the same kernel land on
  // the same shard, which is what makes the per-batch prediction memo in
  // serve::Server pay off fleet-wide.
  const profile::KernelRecord& record = request.samples.cpu;
  std::string key;
  key.reserve(record.benchmark.size() + record.input.size() +
              record.kernel.size() + 2);
  key += record.benchmark;
  key += '\x1f';
  key += record.input;
  key += '\x1f';
  key += record.kernel;
  return hash_bytes(key);
}

std::uint32_t Fleet::shard_of(const serve::SelectRequest& request) const {
  return ring_.owner(route_key(request));
}

std::vector<std::uint32_t> Fleet::route_candidates(
    const serve::SelectRequest& request) const {
  if (options_.shard_fingerprints.empty() ||
      !request.fingerprint.has_value()) {
    return ring_.owners(route_key(request), 1 + kRerouteFallbacks);
  }
  // Heterogeneous fleet: walk the full ring order but try the shards of
  // the request's own architecture first — a request would rather cross
  // the ring than be served by a foreign architecture's model. Ring order
  // is preserved within each class, so two requests about the same kernel
  // still land on the same matching shard.
  std::vector<std::uint32_t> walk =
      ring_.owners(route_key(request), options_.shards);
  std::stable_partition(walk.begin(), walk.end(), [&](std::uint32_t shard) {
    return options_.shard_fingerprints[shard] == *request.fingerprint;
  });
  if (walk.size() > 1 + kRerouteFallbacks) {
    walk.resize(1 + kRerouteFallbacks);
  }
  return walk;
}

serve::SelectResponse Fleet::select(const serve::SelectRequest& request) {
  // Root a sampled trace at the router when the request brought none and
  // head-based sampling selects it (deterministic in the request id, so a
  // replayed run traces the same requests).
  obs::TraceContext root = obs::current_trace_context();
  if (!root.active() && options_.trace_sample_den > 0 &&
      request.request_id % options_.trace_sample_den == 0) {
    root = obs::TraceContext{};
    root.trace_id = Rng::mix_seeds(0xf1ee7u, request.request_id);
    if (root.trace_id == 0) {
      root.trace_id = 1;
    }
    root.sampled = true;
  }
  const obs::ScopedTraceContext rooted{root};
  ACSEL_OBS_SPAN("fleet.route", "fleet");
  metrics_.on_routed(request.priority);
  // Brownout admission at the router: stage >= ShedLowPriority refuses
  // Low traffic before any fan-out watts are spent. The shed is a
  // counted decision (routed == delivered + shed holds per class).
  const BrownoutStage stage = brownout_stage();
  if (stage >= BrownoutStage::ShedLowPriority &&
      request.priority == serve::Priority::Low) {
    metrics_.on_brownout_shed();
    metrics_.on_shed(request.priority);
    serve::SelectResponse shed;
    shed.request_id = request.request_id;
    shed.status = serve::ResponseStatus::Shed;
    return shed;
  }
  const std::vector<std::uint32_t> candidates = route_candidates(request);
  // Stage ForceLowPower clamps every request to its shard's (floored)
  // power cap, so the scheduler's guardrail fallback pins the
  // lowest-power frontier configuration on each replica.
  const bool force_low_power = stage >= BrownoutStage::ForceLowPower;
  serve::SelectRequest forced;
  if (force_low_power) {
    forced = request;
  }
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const serve::SelectRequest* call = &request;
    if (force_low_power) {
      const double shard_cap =
          shards_[candidates[i]]->cap_w.load(std::memory_order_relaxed);
      forced.cap_w = request.cap_w.has_value()
                         ? std::min(*request.cap_w, shard_cap)
                         : shard_cap;
      call = &forced;
    }
    serve::SelectResponse response;
    if (serve_on_shard(candidates[i], *call, response)) {
      if (request.fingerprint.has_value() &&
          !options_.shard_fingerprints.empty() &&
          !(options_.shard_fingerprints[candidates[i]] ==
            *request.fingerprint)) {
        // Delivered, but by a shard of the wrong architecture (every
        // matching shard was down or absent): count the mismatch.
        metrics_.on_model_mismatch();
      }
      if (i > 0) {
        metrics_.on_rerouted();
        ACSEL_OBS_INSTANT("fleet.reroute", "fleet");
      } else {
        // Owner shard, first try: the delivered-fraction SLO numerator.
        metrics_.on_delivered_ok();
      }
      if (call->cap_w.has_value()) {
        window_capped_.fetch_add(1, std::memory_order_relaxed);
        if (!response.predicted_feasible) {
          window_cap_exceeded_.fetch_add(1, std::memory_order_relaxed);
        }
      }
      return response;
    }
  }
  // Owner and every fallback unreachable: shed explicitly — the caller
  // gets an answer, and the loss is a counted decision, not a drop.
  metrics_.on_shed(request.priority);
  serve::SelectResponse shed;
  shed.request_id = request.request_id;
  shed.status = serve::ResponseStatus::Shed;
  return shed;
}

Fleet::Slot Fleet::call_replica(ShardGroup& group, std::size_t replica_index,
                                const serve::SelectRequest& request) {
  Slot slot;
  slot.replica = replica_index;
  Replica& replica = *group.replicas[replica_index];
  if (replica.failed.load(std::memory_order_acquire)) {
    // A lost node answers nothing; its slot costs the timeout.
    slot.sim_ns = kReplicaTimeoutNs;
    metrics_.on_replica_timeout();
    return slot;
  }
  const std::uint64_t start_ns = steady_now_ns();
  {
    std::lock_guard<std::mutex> lock{replica.client_mu};
    slot.response = replica.client->select(request);
  }
  const std::uint64_t measured_ns =
      std::max<std::uint64_t>(steady_now_ns() - start_ns, 1);
  std::uint64_t sim_ns = options_.latency_model
                             ? options_.latency_model(replica.id, measured_ns)
                             : measured_ns;
  if (ACSEL_FAULT_ARMED() && ACSEL_FAULT_FIRE("fleet.slow_node")) {
    const double magnitude =
        fault::Injector::global().magnitude("fleet.slow_node");
    sim_ns = static_cast<std::uint64_t>(
        static_cast<double>(sim_ns) * std::max(magnitude, 1.0));
  }
  // A power-starved shard serves slower (its cap's latency scale).
  sim_ns = static_cast<std::uint64_t>(
      static_cast<double>(sim_ns) *
      group.latency_scale.load(std::memory_order_relaxed));
  slot.sim_ns = std::max<std::uint64_t>(sim_ns, 1);
  slot.replied = true;
  return slot;
}

bool Fleet::serve_on_shard(std::uint32_t shard,
                           const serve::SelectRequest& request,
                           serve::SelectResponse& out) {
  // Sim-time trace overlay: the fan-out span and its replica slots are
  // recorded post-hoc with *simulated* durations (the timing the fleet
  // actually reasons about), so the merged trace shows quorum mechanics —
  // the fan-out span closes at quorum completion, slots slower than the
  // quorum outlive it and fall off the Collector's critical path, and a
  // hedge that rescued a slot ends exactly when the slot does.
  obs::Tracer& tracer = obs::Tracer::global();
  const obs::TraceContext parent = obs::current_trace_context();
  const bool traced = tracer.enabled() && parent.active();
  obs::TraceContext fan_ctx;
  std::uint64_t fan_start_ns = 0;
  if (traced) {
    fan_ctx.trace_id = parent.trace_id;
    fan_ctx.span_id = obs::Tracer::new_span_id();
    fan_ctx.parent_id = parent.span_id;
    fan_ctx.sampled = true;
    fan_start_ns = tracer.now_ns();
  }
  ShardGroup& group = *shards_[shard];
  std::vector<std::size_t> routable;
  {
    std::lock_guard<std::mutex> lock{membership_mu_};
    for (std::size_t r = 0; r < group.replicas.size(); ++r) {
      if (membership_.routable(group.replicas[r]->id)) {
        routable.push_back(r);
      }
    }
  }
  if (routable.empty()) {
    return false;  // detected-dead shard: reroute without paying timeouts
  }

  // Fan out to every routable replica (slot-per-index writes keep the
  // round deterministic whatever the executor interleaving). Each slot
  // gets its own span ids up front so the wire frame it encodes carries
  // them — the replica server's spans chain under its slot.
  std::vector<Slot> slots(routable.size());
  std::vector<obs::TraceContext> slot_ctx(routable.size());
  if (traced) {
    for (obs::TraceContext& ctx : slot_ctx) {
      ctx.trace_id = fan_ctx.trace_id;
      ctx.span_id = obs::Tracer::new_span_id();
      ctx.parent_id = fan_ctx.span_id;
      ctx.sampled = true;
    }
  }
  if (options_.executor != nullptr && routable.size() > 1) {
    exec::TaskGroup fanout{*options_.executor};
    for (std::size_t i = 0; i < routable.size(); ++i) {
      fanout.spawn([this, &group, &request, &slots, &routable, &slot_ctx,
                    &parent, traced, i] {
        const obs::ScopedTraceContext slot_scope{traced ? slot_ctx[i]
                                                        : parent};
        slots[i] = call_replica(group, routable[i], request);
      });
    }
    fanout.wait();
  } else {
    for (std::size_t i = 0; i < routable.size(); ++i) {
      const obs::ScopedTraceContext slot_scope{traced ? slot_ctx[i] : parent};
      slots[i] = call_replica(group, routable[i], request);
    }
  }

  std::vector<ReplicaReply> replies;
  std::uint64_t fastest_ns = 0;
  for (const Slot& slot : slots) {
    if (!slot.replied) {
      continue;
    }
    replies.push_back(ReplicaReply{slot.replica, slot.response});
    fastest_ns = fastest_ns == 0 ? slot.sim_ns
                                 : std::min(fastest_ns, slot.sim_ns);
  }
  if (replies.empty()) {
    return false;  // nothing answered (undetected loss): reroute
  }

  VoteVerdict verdict;
  {
    // The vote belongs to the fan-out, not the route: as a sibling of the
    // slot spans it never shadows the quorum slot on the critical path.
    const obs::ScopedTraceContext vote_scope{traced ? fan_ctx : parent};
    ACSEL_OBS_SPAN("fleet.vote", "fleet");
    verdict = Voter::vote(replies);
  }
  metrics_.on_vote(verdict.disagreement, verdict.median_fallback);

  // Hedging in simulated time: a slot slower than the p95-derived delay
  // is re-issued to the fastest replica and completes at hedge_delay +
  // that replica's time ("send to a second replica, take the first
  // response"). Votes above came from the replies that actually arrived;
  // hedging governs *when* the quorum completes, not what it says. A
  // request deadline bounds hedging: a hedge launching at or past the
  // deadline cannot help the caller, so it is clipped (counted), and the
  // slot keeps its unhedged completion time.
  const std::uint64_t hedge_delay =
      group.hedge_delay_ns.load(std::memory_order_relaxed);
  // A brownout's first stage suppresses hedges — duplicate work is the
  // cheapest load to refuse when the watts are gone.
  const bool hedging = brownout_stage() < BrownoutStage::DropHedges;
  const bool deadline_blocks_hedge =
      request.deadline_ns > 0 && hedge_delay >= request.deadline_ns;
  std::vector<std::uint64_t> slot_effective(slots.size());
  std::vector<bool> slot_hedged(slots.size(), false);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    std::uint64_t effective = slots[i].sim_ns;
    if (hedging && slots[i].sim_ns > hedge_delay) {
      if (deadline_blocks_hedge) {
        metrics_.on_hedge_deadline_clipped();
      } else {
        const std::uint64_t hedged = hedge_delay + fastest_ns;
        if (hedged < slots[i].sim_ns) {
          effective = hedged;
          slot_hedged[i] = true;
          metrics_.on_hedge_fired(shard);
        }
      }
    }
    slot_effective[i] = effective;
  }
  std::vector<std::uint64_t> sorted_ns = slot_effective;
  std::sort(sorted_ns.begin(), sorted_ns.end());
  const std::size_t quorum = slots.size() / 2 + 1;
  const std::uint64_t service_ns = sorted_ns[quorum - 1];

  if (traced) {
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const NodeId id = group.replicas[routable[i]]->id;
      tracer.record_complete("fleet.replica " + std::to_string(id.shard) +
                                 "/" + std::to_string(id.replica),
                             "fleet", fan_start_ns, slot_effective[i],
                             slot_ctx[i]);
      if (slot_hedged[i]) {
        obs::TraceContext hedge_ctx;
        hedge_ctx.trace_id = fan_ctx.trace_id;
        hedge_ctx.span_id = obs::Tracer::new_span_id();
        hedge_ctx.parent_id = slot_ctx[i].span_id;
        hedge_ctx.sampled = true;
        tracer.record_complete("fleet.hedge", "fleet",
                               fan_start_ns + hedge_delay, fastest_ns,
                               hedge_ctx);
      }
    }
    tracer.record_complete("fleet.fanout s" + std::to_string(shard), "fleet",
                           fan_start_ns, service_ns, fan_ctx);
  }

  group.service_latency.record(service_ns);
  window_latency_.record(service_ns);
  group.busy_ns.fetch_add(service_ns, std::memory_order_relaxed);
  group.window_delivered.fetch_add(1, std::memory_order_relaxed);
  metrics_.on_delivered(shard, request.priority, service_ns,
                        traced ? parent.trace_id : 0);

  out = verdict.response;
  out.request_id = request.request_id;
  return true;
}

void Fleet::tick() {
  ++ticks_;
  const bool chaos = ACSEL_FAULT_ARMED();

  // 1. Node-loss chaos: a fired draw silences one more replica. The
  // budget-cut site declares a power emergency while its burst fires —
  // the global budget drops to magnitude x base — and ends it (staged
  // recovery) when the burst stops.
  if (chaos) {
    for (auto& group : shards_) {
      for (auto& replica : group->replicas) {
        if (!replica->failed.load(std::memory_order_acquire) &&
            ACSEL_FAULT_FIRE("fleet.node_loss")) {
          replica->failed.store(true, std::memory_order_release);
          ACSEL_LOG_WARN("fleet: chaos killed node "
                         << replica->id.shard << "/" << replica->id.replica);
        }
      }
    }
    if (ACSEL_FAULT_FIRE("fleet.budget_cut")) {
      // Site magnitude is the fraction of the base budget cut away.
      const double remaining = std::clamp(
          1.0 - fault::Injector::global().magnitude("fleet.budget_cut"),
          0.05, 0.95);
      std::lock_guard<std::mutex> lock{balancer_mu_};
      if (!fault_emergency_) {
        ACSEL_LOG_WARN("fleet: chaos cut the power budget to "
                       << remaining * 100.0 << "% of base");
      }
      balancer_.set_emergency_budget(balancer_.base_budget_w() * remaining);
      fault_emergency_ = true;
      rebalance_due_.store(true, std::memory_order_relaxed);
    } else if (fault_emergency_) {
      std::lock_guard<std::mutex> lock{balancer_mu_};
      balancer_.clear_emergency();
      fault_emergency_ = false;
      rebalance_due_.store(true, std::memory_order_relaxed);
      ACSEL_LOG_INFO("fleet: chaos budget cut ended; budget restored");
    }
  }

  // 2. Heartbeats (partition chaos drops some) + failure detection.
  std::size_t alive = 0;
  {
    std::lock_guard<std::mutex> lock{membership_mu_};
    for (auto& group : shards_) {
      for (auto& replica : group->replicas) {
        if (replica->failed.load(std::memory_order_acquire)) {
          continue;  // a dead node heartbeats nobody
        }
        if (chaos && ACSEL_FAULT_FIRE("fleet.partition")) {
          metrics_.on_heartbeat_dropped();
          continue;
        }
        membership_.heartbeat(replica->id);
      }
    }
    membership_.tick();
    metrics_.set_membership_transitions(membership_.transitions());
    for (auto& group : shards_) {
      for (auto& replica : group->replicas) {
        if (membership_.alive(replica->id)) {
          ++alive;
        }
      }
    }
  }
  metrics_.set_alive_replicas(alive);

  // 3. Refresh per-shard hedge delays from the service-latency p95.
  for (auto& group : shards_) {
    // Cold-start guard: hold the fixed fallback delay until the tracker
    // has enough samples for a meaningful tail.
    if (group->service_latency.count() >= options_.hedge_min_samples) {
      const double p95 = static_cast<double>(
          group->service_latency.quantile_nanos(0.95));
      const std::uint64_t delay =
          std::max(options_.hedge_min_delay_ns,
                   static_cast<std::uint64_t>(p95 * kHedgeP95Multiplier));
      group->hedge_delay_ns.store(delay, std::memory_order_relaxed);
    }
  }

  // 4. Power-budget reallocation when due — on the period, or forced
  // immediately by a budget emergency (an emergency must not wait out
  // the rebalance period before the brownout engages).
  if (rebalance_due_.exchange(false, std::memory_order_relaxed) ||
      ticks_ % options_.rebalance_period == 0) {
    std::vector<std::uint64_t> demand(shards_.size(), 0);
    std::vector<bool> dead(shards_.size(), false);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      demand[s] = shards_[s]->window_delivered.exchange(
          0, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock{membership_mu_};
      dead[s] = membership_
                    .routable_replicas(static_cast<std::uint32_t>(s))
                    .empty();
    }
    std::lock_guard<std::mutex> lock{balancer_mu_};
    balancer_.rebalance(demand, dead);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const ShardBudget& budget =
          balancer_.shard(static_cast<std::uint32_t>(s));
      metrics_.set_shard_cap(static_cast<std::uint32_t>(s), budget.cap_w);
      shards_[s]->latency_scale.store(budget.latency_scale,
                                      std::memory_order_relaxed);
      shards_[s]->cap_w.store(budget.cap_w, std::memory_order_relaxed);
    }
    const auto stage = static_cast<std::uint8_t>(balancer_.stage());
    brownout_stage_.store(stage, std::memory_order_relaxed);
    metrics_.set_brownout_stage(stage);
  }

  // 5. SLO engine: close the per-tick windows into gauges the SLIs can
  // recover from (unlike the cumulative histogram), snapshot the registry
  // into the series store, and evaluate burn rates.
  if (options_.slo.enabled) {
    const std::uint64_t p99_ns = window_latency_.count() > 0
                                     ? window_latency_.quantile_nanos(0.99)
                                     : 0;
    metrics_.set_window_p99_us(static_cast<double>(p99_ns) / 1e3);
    window_latency_.reset();
    const std::uint64_t capped =
        window_capped_.exchange(0, std::memory_order_relaxed);
    const std::uint64_t exceeded =
        window_cap_exceeded_.exchange(0, std::memory_order_relaxed);
    metrics_.set_window_cap_exceedance(
        capped > 0
            ? static_cast<double>(exceeded) / static_cast<double>(capped)
            : 0.0);
    std::lock_guard<std::mutex> lock{slo_mu_};
    series_.observe(metrics_.registry().snapshot());
    for (const obs::Alert& alert :
         slo_engine_.evaluate(series_, &metrics_.mutable_registry())) {
      ACSEL_LOG_WARN("fleet: SLO \"" << alert.slo << "\" alert fired (fast="
                                     << alert.fast_burn
                                     << "x, slow=" << alert.slow_burn
                                     << "x, worst=" << alert.worst_value
                                     << ")");
    }
  }
}

void Fleet::fail_node(NodeId node) {
  ACSEL_CHECK_MSG(node.shard < shards_.size() &&
                      node.replica < shards_[node.shard]->replicas.size(),
                  "fail_node: unknown node");
  shards_[node.shard]->replicas[node.replica]->failed.store(
      true, std::memory_order_release);
}

void Fleet::revive_node(NodeId node) {
  ACSEL_CHECK_MSG(node.shard < shards_.size() &&
                      node.replica < shards_[node.shard]->replicas.size(),
                  "revive_node: unknown node");
  Replica& replica = *shards_[node.shard]->replicas[node.replica];
  replica.failed.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock{membership_mu_};
    membership_.revive(node);
  }
  // Catch the rejoining node up to the fleet's current model. The skew
  // guard makes this safe to race with a concurrent publish: whichever
  // version is newer wins, the older adopt is refused.
  core::PredictorPtr model;
  {
    std::lock_guard<std::mutex> lock{model_mu_};
    model = current_model_;
  }
  if (model != nullptr) {
    adopt_on_replica(replica, version_.load(std::memory_order_acquire),
                     model);
  }
}

void Fleet::set_emergency_budget(double budget_w) {
  std::lock_guard<std::mutex> lock{balancer_mu_};
  balancer_.set_emergency_budget(budget_w);
  rebalance_due_.store(true, std::memory_order_relaxed);
  ACSEL_LOG_WARN("fleet: power emergency declared ("
                 << budget_w << " W of " << balancer_.base_budget_w()
                 << " W base)");
}

void Fleet::clear_emergency_budget() {
  std::lock_guard<std::mutex> lock{balancer_mu_};
  balancer_.clear_emergency();
  rebalance_due_.store(true, std::memory_order_relaxed);
  ACSEL_LOG_INFO("fleet: power emergency cleared");
}

Fleet::ClientTotals Fleet::client_totals() const {
  ClientTotals totals;
  for (const auto& group : shards_) {
    for (const auto& replica : group->replicas) {
      std::lock_guard<std::mutex> lock{replica->client_mu};
      totals.calls += replica->client->calls();
      totals.retries += replica->client->retries();
      totals.retry_budget_exhausted +=
          replica->client->retry_budget_exhausted();
    }
  }
  return totals;
}

FleetStats Fleet::stats() const {
  FleetStats stats;
  stats.shards = static_cast<std::uint32_t>(options_.shards);
  stats.replicas =
      static_cast<std::uint32_t>(options_.shards * options_.replicas);
  {
    std::lock_guard<std::mutex> lock{membership_mu_};
    std::uint32_t alive = 0;
    for (const auto& group : shards_) {
      for (const auto& replica : group->replicas) {
        if (membership_.routable(replica->id)) {
          ++alive;
        }
      }
    }
    stats.replicas_alive = alive;
    stats.membership_transitions = membership_.transitions();
  }
  stats.routed = metrics_.routed();
  stats.delivered = metrics_.delivered();
  stats.shed = metrics_.shed();
  for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
    const auto priority = static_cast<serve::Priority>(p);
    stats.routed_by_priority[p] = metrics_.routed_by_priority(priority);
    stats.delivered_by_priority[p] =
        metrics_.delivered_by_priority(priority);
    stats.shed_by_priority[p] = metrics_.shed_by_priority(priority);
  }
  stats.rerouted = metrics_.rerouted();
  stats.model_mismatch = metrics_.model_mismatch();
  stats.hedges_fired = metrics_.hedges_fired();
  stats.vote_disagreements = metrics_.vote_disagreements();
  stats.median_fallbacks = metrics_.median_fallbacks();
  stats.heartbeats_dropped = metrics_.heartbeats_dropped();
  stats.replica_timeouts = metrics_.replica_timeouts();
  {
    std::lock_guard<std::mutex> lock{balancer_mu_};
    stats.rebalances = balancer_.rebalances();
    stats.global_budget_w = balancer_.global_budget_w();
    stats.brownout_stage = static_cast<std::uint32_t>(balancer_.stage());
    stats.brownout_events = balancer_.brownout_events();
  }
  return stats;
}

void Fleet::append_slo_state(serve::StatsResponse& response) const {
  if (!options_.slo.enabled) {
    return;
  }
  std::vector<obs::MetricSnapshot>& rows = response.metrics;
  const auto gauge = [&rows](std::string name, double value,
                             std::uint64_t count = 0) {
    obs::MetricSnapshot row;
    row.name = std::move(name);
    row.kind = obs::MetricKind::Gauge;
    row.count = count;
    row.value = value;
    rows.push_back(std::move(row));
  };
  std::lock_guard<std::mutex> lock{slo_mu_};
  gauge("series.ticks", static_cast<double>(series_.ticks()));
  gauge("series.capacity", static_cast<double>(series_.capacity()));
  // Only the SLO-referenced series are rolled up (the scrape is a frame,
  // not a dump; the raw registry rows already ride alongside).
  std::set<std::string> names;
  for (const obs::Slo& slo : slo_engine_.slos()) {
    names.insert(slo.numerator);
    if (!slo.denominator.empty()) {
      names.insert(slo.denominator);
    }
  }
  const std::uint64_t window = slo_engine_.burn_options().slow_window;
  for (const std::string& name : names) {
    const obs::SeriesRollup rollup = series_.rollup(name, window);
    const std::string prefix = "series." + name + ".";
    gauge(prefix + "latest", series_.latest(name).value_or(0.0),
          rollup.points);
    gauge(prefix + "sum", rollup.sum, rollup.points);
    gauge(prefix + "min", rollup.min, rollup.points);
    gauge(prefix + "max", rollup.max, rollup.points);
    gauge(prefix + "avg", rollup.avg, rollup.points);
  }
  response.alerts = slo_engine_.alerts();
  const auto active =
      std::count_if(response.alerts.begin(), response.alerts.end(),
                    [](const obs::Alert& alert) { return alert.active(); });
  gauge("slo.configured", static_cast<double>(slo_engine_.slos().size()));
  gauge("slo.active", static_cast<double>(active));
  std::sort(rows.begin(), rows.end(),
            [](const obs::MetricSnapshot& a, const obs::MetricSnapshot& b) {
              return a.name < b.name;
            });
}

std::vector<obs::Alert> Fleet::alerts() const {
  std::lock_guard<std::mutex> lock{slo_mu_};
  return slo_engine_.alerts();
}

std::vector<obs::SloState> Fleet::slo_states() const {
  std::lock_guard<std::mutex> lock{slo_mu_};
  return slo_engine_.states();
}

std::vector<std::uint8_t> Fleet::serve_frame(
    std::span<const std::uint8_t> frame) {
  const serve::Decoded decoded = serve::decode_frame(frame);
  // Adopt the caller's trace context for this frame and echo it on the
  // response, exactly like serve::Server — the router is one more hop of
  // the same distributed trace.
  const obs::ScopedTraceContext traced{
      decoded.has_trace ? decoded.trace : obs::current_trace_context()};
  const obs::TraceContext* echo = decoded.has_trace ? &decoded.trace : nullptr;
  std::vector<std::uint8_t> out;
  if (decoded.status == serve::DecodeStatus::Ok &&
      decoded.type == serve::MessageType::StatsRequest) {
    serve::StatsResponse response;
    response.request_id = decoded.stats_request.request_id;
    response.status = serve::ResponseStatus::Ok;
    // Refreshed here, not on the select/tick paths: rows whose owners
    // live outside the registry cost nothing until someone scrapes.
    metrics_.publish_for_scrape(stats());
    response.metrics = metrics_.registry().snapshot();
    append_slo_state(response);
    serve::encode_stats_response(response, out, echo);
    return out;
  }
  if (decoded.status == serve::DecodeStatus::Ok &&
      decoded.type == serve::MessageType::FeedbackRequest) {
    // The fleet router holds no adapt sink; feedback belongs on the
    // replica servers it fronts.
    serve::FeedbackResponse ack;
    ack.request_id = decoded.feedback.request_id;
    ack.status = serve::ResponseStatus::Unsupported;
    serve::encode_feedback_response(ack, out, echo);
    return out;
  }
  serve::SelectResponse response;
  if (decoded.status != serve::DecodeStatus::Ok ||
      decoded.type != serve::MessageType::SelectRequest) {
    response.status = serve::ResponseStatus::MalformedRequest;
  } else {
    response = select(decoded.request);
  }
  serve::encode_response(response, out, echo);
  return out;
}

}  // namespace acsel::fleet
