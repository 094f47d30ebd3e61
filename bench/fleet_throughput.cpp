// Closed-loop load generator for the fleet layer: drives a sharded,
// replicated fleet and a single-node baseline through the same request
// mix, projects aggregate throughput from the shards' simulated busy
// clocks, emits BENCH_fleet.json, and exits non-zero unless the scaling
// headline (clean) or the chaos delivery guarantee (ACSEL_FAULTS) holds.
//
// Simulated-time projection: every replica is a separate machine in
// deployment, so a one-box run cannot observe fleet wall-clock speedup.
// What it can observe exactly is each shard's busy time — the sum of its
// requests' quorum-completion latencies. Shards run in parallel in
// deployment, so the fleet's makespan for the request set is the busiest
// shard's clock, and aggregate throughput is delivered / makespan. The
// baseline (1 shard x 1 replica) is measured through the identical path.
//
// Delivery accounting is the chaos contract: routed == delivered + shed,
// always — a request is answered or explicitly shed, never dropped. The
// bench exits non-zero if any request is lost, in any mode; if a clean
// run misses 8x single-node, 100% delivery, a sampled trace or zero SLO
// alerts; or if a chaos run delivers under 95%, sees no membership
// transition, or fails to fire (with an exemplar) and clear the
// delivered SLO alert.
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "exec/executor.h"
#include "exec/parallel_for.h"
#include "fleet/fleet.h"
#include "hw/config_space.h"
#include "obs/collector.h"
#include "obs/trace.h"
#include "profile/profiler.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace acsel;

struct RunStats {
  fleet::FleetStats fleet;
  double makespan_s = 0.0;
  double aggregate_qps = 0.0;
};

serve::SelectRequest make_request(
    std::uint64_t n, const std::vector<core::SamplePair>& pool) {
  static const double caps[] = {18.0, 22.0, 26.0, 30.0, 40.0};
  const std::uint64_t mix = (n + 1) * 2654435761u;
  serve::SelectRequest request;
  request.request_id = n;
  request.samples = pool[n % pool.size()];
  request.goal = static_cast<core::SchedulingGoal>(mix % 3);
  if (mix % 5 != 0) {
    request.cap_w = caps[mix % 5];
  }
  return request;
}

/// Drives `total` requests through the fleet in batches, ticking the
/// fleet driver between batches (heartbeats, detection, hedging delays,
/// budget rebalance — exactly what a deployment's control plane does on
/// its own cadence).
RunStats drive(fleet::Fleet& fleet, std::size_t total, std::size_t batch,
               const std::vector<core::SamplePair>& pool,
               const std::function<void(std::size_t)>& on_tick = nullptr) {
  exec::Executor& pool_exec = bench::bench_executor();
  std::size_t sent = 0;
  std::size_t ticks = 0;
  while (sent < total) {
    const std::size_t n = std::min(batch, total - sent);
    const std::size_t base = sent;
    exec::parallel_for(pool_exec, n, [&](std::size_t i) {
      (void)fleet.select(make_request(base + i, pool));
    });
    sent += n;
    if (on_tick) {
      on_tick(++ticks);
    }
    fleet.tick();
  }
  RunStats stats;
  stats.fleet = fleet.stats();
  std::uint64_t makespan_ns = 0;
  for (std::uint32_t s = 0; s < fleet.options().shards; ++s) {
    makespan_ns = std::max(makespan_ns, fleet.shard_busy_ns(s));
  }
  stats.makespan_s = static_cast<double>(makespan_ns) / 1e9;
  stats.aggregate_qps =
      stats.makespan_s > 0.0
          ? static_cast<double>(stats.fleet.delivered) / stats.makespan_s
          : 0.0;
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!exec::consume_threads_flag(arg) && !consume_log_level_flag(arg)) {
      std::cerr << "usage: " << argv[0]
                << " [--threads=N] [--log-level=LEVEL]\n";
      return 2;
    }
  }
  bench::print_header("fleet_throughput: sharded replicated serving",
                      "multi-node scaling of the §IV-C selection service");
  const bool chaos = fault::Injector::global().any_armed();

  // -- offline: train on three benchmarks, serve the fourth --------------
  soc::Machine machine = bench::make_machine();
  const auto suite = workloads::Suite::standard();
  std::vector<core::KernelCharacterization> training;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark != "LU") {
      training.push_back(eval::characterize_instance(machine, instance));
    }
  }
  const auto model = core::make_predictor(core::train(training).model);

  // -- request pool: sample pairs of unseen kernels, widened into many
  //    distinct kernel identities so the consistent-hash ring has enough
  //    keys to balance (each variant is a distinct kernel cluster to the
  //    router; the measurements are unchanged) -----------------------------
  const hw::ConfigSpace space;
  profile::Profiler profiler{machine};
  std::vector<core::SamplePair> base_pool;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark == "LU") {
      core::SamplePair samples;
      samples.cpu = profiler.run(instance, space.cpu_sample());
      samples.gpu = profiler.run(instance, space.gpu_sample());
      base_pool.push_back(samples);
    }
  }
  for (std::size_t i = 0; i < training.size(); i += 8) {
    base_pool.push_back(training[i].samples);
  }
  constexpr std::size_t kDistinctKernels = 192;
  std::vector<core::SamplePair> pool;
  pool.reserve(kDistinctKernels);
  for (std::size_t k = 0; k < kDistinctKernels; ++k) {
    core::SamplePair variant = base_pool[k % base_pool.size()];
    variant.cpu.input += "-v" + std::to_string(k);
    variant.gpu.input += "-v" + std::to_string(k);
    pool.push_back(std::move(variant));
  }

  constexpr std::size_t kShards = 16;
  constexpr std::size_t kReplicas = 3;
  constexpr std::size_t kFleetRequests = 4800;
  constexpr std::size_t kBaselineRequests = 1200;
  constexpr std::size_t kBatch = 100;
  constexpr double kTargetSpeedup = 8.0;
  // Deterministic chaos script (chaos mode only): black out one whole
  // shard a third into the run, revive everything two thirds in — the
  // delivered SLO must fire during the blackout and clear after.
  constexpr std::size_t kBlackoutTick = 16;
  constexpr std::size_t kReviveTick = 32;
  constexpr std::uint32_t kBlackoutShard = 3;

  // -- baseline: one shard, one replica, its own nominal power cap -------
  fleet::FleetOptions baseline_options;
  baseline_options.shards = 1;
  baseline_options.replicas = 1;
  baseline_options.executor = &bench::bench_executor();
  baseline_options.budget.global_budget_w = fleet::kNominalCapW;
  RunStats baseline;
  {
    fleet::Fleet single{baseline_options};
    single.publish(model);
    baseline = drive(single, kBaselineRequests, kBatch, pool);
  }
  std::cout << "Baseline (1 shard x 1 replica): "
            << format_double(baseline.aggregate_qps, 6) << " sel/s over "
            << kBaselineRequests << " requests\n\n";

  // -- the fleet ----------------------------------------------------------
  fleet::FleetOptions options;
  options.shards = kShards;
  options.replicas = kReplicas;
  options.ring_vnodes = 128;
  options.executor = &bench::bench_executor();
  // Facility budget = nominal per shard: a balanced allocation serves at
  // 1.0x, and a dead shard's share visibly flows to the survivors.
  options.budget.global_budget_w =
      static_cast<double>(kShards) * fleet::kNominalCapW;
  // Observability: 1% head-based trace sampling plus the SLO engine.
  // Objectives are bench-scale: the delivered SLO is the one the chaos
  // script exercises; p99/cap objectives sit above this host's noise so
  // a clean run stays alert-free.
  options.trace_sample_den = 100;
  options.slo.enabled = true;
  options.slo.p99_objective_us = 50'000.0;
  options.slo.cap_exceedance_target = 0.9;
  options.slo.error_budget = 0.01;
  obs::Tracer::global().enable();
  fleet::Fleet fleet{options};
  fleet.publish(model);
  const auto chaos_script = [&fleet, chaos](std::size_t tick) {
    if (!chaos) {
      return;
    }
    if (tick == kBlackoutTick) {
      for (std::uint32_t r = 0; r < kReplicas; ++r) {
        fleet.fail_node(fleet::NodeId{kBlackoutShard, r});
      }
    } else if (tick == kReviveTick) {
      // Revive the blacked-out shard and every node the armed fault
      // preset killed along the way: the recovery leg of the SLO story.
      for (std::uint32_t s = 0; s < kShards; ++s) {
        for (std::uint32_t r = 0; r < kReplicas; ++r) {
          fleet.revive_node(fleet::NodeId{s, r});
        }
      }
    }
  };
  const RunStats run = drive(fleet, kFleetRequests, kBatch, pool, chaos_script);
  obs::Tracer::global().disable();

  const fleet::FleetStats& fs = run.fleet;
  const std::uint64_t lost = fs.routed - fs.delivered - fs.shed;
  const double delivered_fraction =
      fs.routed > 0
          ? static_cast<double>(fs.delivered) / static_cast<double>(fs.routed)
          : 0.0;
  const double speedup = baseline.aggregate_qps > 0.0
                             ? run.aggregate_qps / baseline.aggregate_qps
                             : 0.0;

  TextTable table;
  table.set_header({"shard", "requests", "busy ms", "hedges", "cap W"});
  for (std::uint32_t s = 0; s < kShards; ++s) {
    table.add_row({std::to_string(s),
                   std::to_string(fleet.shard_requests(s)),
                   format_double(
                       static_cast<double>(fleet.shard_busy_ns(s)) / 1e6, 3),
                   std::to_string(fleet.shard_hedges(s)),
                   format_double(fleet.budget().shard(s).cap_w, 3)});
  }
  table.print(std::cout, "per-shard accounting");

  std::cout << "\nHeadline (" << kShards << " shards x " << kReplicas
            << " replicas): " << format_double(run.aggregate_qps, 6)
            << " sel/s aggregate, " << format_double(speedup, 4)
            << "x single-node"
            << (chaos ? " [chaos armed]" : "")
            << "\n  routed " << fs.routed << ", delivered " << fs.delivered
            << ", shed " << fs.shed << ", lost " << lost << " (delivered "
            << format_double(100.0 * delivered_fraction, 4)
            << "%)\n  reroutes " << fs.rerouted << ", hedges "
            << fs.hedges_fired << ", vote disagreements "
            << fs.vote_disagreements << " (median fallbacks "
            << fs.median_fallbacks << "), membership transitions "
            << fs.membership_transitions << "\n  targets: >= 8x speedup "
            << "(clean run), lost == 0 (always)\n";

  // -- SLO verdicts and the merged distributed trace ----------------------
  const std::vector<obs::Alert> alerts = fleet.alerts();
  bool delivered_fired = false;
  bool delivered_cleared = false;
  std::size_t delivered_exemplars = 0;  // of the first delivered alert
  std::size_t active_alerts = 0;
  for (const obs::Alert& alert : alerts) {
    active_alerts += alert.active();
    if (alert.slo == "fleet.delivered") {
      if (!delivered_fired) {
        delivered_exemplars = alert.exemplar_trace_ids.size();
      }
      delivered_fired = true;
      delivered_cleared = delivered_cleared || !alert.active();
    }
    std::cout << "  SLO alert: " << alert.slo << " fired tick "
              << alert.fired_tick << ", "
              << (alert.active()
                      ? "still active"
                      : "cleared tick " + std::to_string(alert.cleared_tick))
              << ", " << alert.exemplar_trace_ids.size() << " exemplars, "
              << static_cast<std::uint64_t>(alert.membership_transitions)
              << " membership transitions\n";
  }
  if (alerts.empty()) {
    std::cout << "  SLO alerts: none (all objectives held)\n";
  }

  obs::Collector collector;
  collector.ingest(obs::Tracer::global(), "fleet");
  {
    std::ofstream trace_out{"fleet_trace.json"};
    collector.write_chrome_trace(trace_out);
  }
  std::cout << "  traces: " << collector.trace_ids().size() << " sampled (1/"
            << options.trace_sample_den << " of " << kFleetRequests
            << " requests), " << collector.size()
            << " events -> fleet_trace.json\n";

  // -- BENCH_fleet.json ---------------------------------------------------
  std::ofstream json{"BENCH_fleet.json"};
  json << "{\n  \"bench\": \"fleet_throughput\",\n  \"seed\": "
       << bench::kBenchSeed << ",\n  \"chaos\": " << (chaos ? "true" : "false")
       << ",\n  \"shards\": " << kShards
       << ",\n  \"replicas\": " << kReplicas
       << ",\n  \"requests\": " << kFleetRequests << ",\n  \"runs\": [\n";
  for (std::uint32_t s = 0; s < kShards; ++s) {
    json << "    {\"shard\": " << s
         << ", \"requests\": " << fleet.shard_requests(s)
         << ", \"busy_ms\": "
         << format_double(static_cast<double>(fleet.shard_busy_ns(s)) / 1e6, 6)
         << ", \"hedges\": " << fleet.shard_hedges(s) << ", \"cap_w\": "
         << format_double(fleet.budget().shard(s).cap_w, 6) << "}"
         << (s + 1 < kShards ? ",\n" : "\n");
  }
  json << "  ],\n  \"baseline\": {\"qps\": "
       << format_double(baseline.aggregate_qps, 8)
       << ", \"requests\": " << kBaselineRequests
       << "},\n  \"headline\": {\"shards\": " << kShards
       << ", \"aggregate_qps\": " << format_double(run.aggregate_qps, 8)
       << ", \"speedup\": " << format_double(speedup, 6)
       << ", \"routed\": " << fs.routed << ", \"delivered\": " << fs.delivered
       << ", \"shed\": " << fs.shed << ", \"lost\": " << lost
       << ", \"delivered_fraction\": " << format_double(delivered_fraction, 8)
       << ", \"rerouted\": " << fs.rerouted
       << ", \"hedges_fired\": " << fs.hedges_fired
       << ", \"vote_disagreements\": " << fs.vote_disagreements
       << ", \"median_fallbacks\": " << fs.median_fallbacks
       << ", \"membership_transitions\": " << fs.membership_transitions
       << ", \"target_speedup\": " << kTargetSpeedup
       << ", \"target_lost\": 0},\n  \"slo\": {"
       << "\"alerts\": " << alerts.size() << ", \"active\": " << active_alerts
       << ", \"delivered_alert_fired\": " << (delivered_fired ? "true" : "false")
       << ", \"delivered_alert_cleared\": "
       << (delivered_cleared ? "true" : "false")
       << ", \"sampled_traces\": " << collector.trace_ids().size()
       << ", \"alert_list\": [";
  for (std::size_t i = 0; i < alerts.size(); ++i) {
    json << (i > 0 ? ", " : "") << "{\"slo\": \"" << alerts[i].slo
         << "\", \"fired_tick\": " << alerts[i].fired_tick
         << ", \"cleared_tick\": " << alerts[i].cleared_tick
         << ", \"exemplars\": " << alerts[i].exemplar_trace_ids.size() << "}";
  }
  json << "]}\n}\n";
  std::cout << "Wrote BENCH_fleet.json\n";

  bench::Gate gate;
  gate.check(lost == 0, "lost", lost, "== 0");
  // SLO verdicts are part of the bench contract: a clean run must hold
  // every objective; the chaos script must burn the delivered SLO during
  // the blackout and drain it after the revive.
  if (!chaos) {
    gate.check(speedup >= kTargetSpeedup, "speedup", speedup,
               ">= " + format_double(kTargetSpeedup, 6));
    gate.check(delivered_fraction == 1.0, "delivered_fraction",
               delivered_fraction, "== 1");
    gate.check(alerts.empty(), "SLO alerts", alerts.size(), "== 0");
    gate.check(collector.trace_ids().size() >= 1, "sampled_traces",
               collector.trace_ids().size(), ">= 1");
  } else {
    gate.check(delivered_fraction >= 0.95, "delivered_fraction",
               delivered_fraction, ">= 0.95");
    gate.check(fs.membership_transitions >= 1, "membership_transitions",
               fs.membership_transitions, ">= 1");
    gate.check(delivered_fired, "delivered SLO alert fired", delivered_fired,
               "1");
    gate.check(delivered_cleared, "delivered SLO alert cleared",
               delivered_cleared, "1");
    gate.check(delivered_exemplars >= 1, "delivered SLO alert exemplars",
               delivered_exemplars, ">= 1");
  }
  return gate.exit_code();
}
