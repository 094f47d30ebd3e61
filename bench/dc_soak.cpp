// Datacenter chaos soak: replays a scripted day of traffic — diurnal
// ramp, a forced burst wave, a mid-run workload shift, a rack blackout,
// and a 40% facility power cut with staged recovery — against a sharded
// fleet with the full overload-control stack engaged (priority
// admission, retry budgets, brownout stages, guardrail fallback), and
// emits BENCH_dc.json. The bench exits non-zero unless it holds its
// contract:
//   * zero lost requests, in any mode (answered or explicitly shed);
//   * every offered request routed;
//   * per-priority conservation: routed == delivered + shed per class;
//   * high-priority delivered fraction >= 0.99 across the whole run;
//   * zero cap-exceedance windows after the brownout recovers;
//   * client retries bounded by the fleet's retry budget;
//   * the scripted power cut reaches at least the shed-low stage, in at
//     least one brownout event, and (clean runs) fully unwinds before
//     the run ends.
//
// Chaos mode (ACSEL_FAULTS=node_loss,budget_cut) layers random replica
// loss and random power emergencies on top of the script; the same
// contract minus the final-stage check (a random cut may still be
// unwinding at the end) must hold.
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "dc/soak.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace acsel;

constexpr std::size_t kShards = 6;
constexpr std::size_t kReplicas = 3;
constexpr std::uint64_t kTicks = 240;
constexpr std::size_t kKernels = 96;

// Scenario ticks: ramp -> shift -> burst -> blackout -> power cut.
constexpr std::uint64_t kShiftTick = 40;
constexpr std::uint64_t kBurstOnTick = 60;
constexpr std::uint64_t kBurstOffTick = 72;
constexpr std::uint64_t kBlackoutTick = 100;
constexpr std::uint32_t kBlackoutShard = 2;
constexpr std::uint64_t kReviveTick = 140;
constexpr std::uint64_t kBudgetCutTick = 160;
constexpr double kBudgetCutRemaining = 0.6;  // a 40% cut
constexpr std::uint64_t kBudgetRestoreTick = 190;

const char* priority_name(std::size_t p) {
  return serve::to_string(static_cast<serve::Priority>(p));
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
  bench::print_header("dc_soak: datacenter soak & overload control",
                      "scripted chaos day over the sharded fleet");
  const bool chaos = fault::Injector::global().any_armed();

  dc::WorldOptions world_options;
  world_options.machine_seed = bench::kBenchSeed;
  world_options.kernels = kKernels;
  std::cout << "Building world (training + clean/shifted truth)...\n";
  const dc::World world = dc::make_world(world_options);

  dc::SoakOptions options;
  options.executor = &bench::bench_executor();
  options.ticks = kTicks;
  options.traffic.seed = bench::kBenchSeed;
  options.traffic.base_qps = 1600.0;
  options.traffic.tick_seconds = 0.05;
  options.traffic.kernels = kKernels;
  options.traffic.drift_per_tick = 0.25;  // slow kernel-mix rotation
  options.fleet.shards = kShards;
  options.fleet.replicas = kReplicas;
  options.fleet.ring_vnodes = 128;
  options.fleet.budget.global_budget_w =
      static_cast<double>(kShards) * fleet::kNominalCapW;
  // Bench-scale SLO objectives (per fleet_throughput): alerts observe,
  // the JSON gate enforces.
  options.fleet.slo.p99_objective_us = 50'000.0;
  options.fleet.slo.cap_exceedance_target = 0.9;
  options.fleet.slo.error_budget = 0.01;
  options.adapt = dc::soak_adapt_defaults();
  options.measure_every = 4;
  options.label_every = 2;
  options.script = {
      {kShiftTick, dc::ScenarioEvent::Kind::KernelShift, 0.0},
      {kBurstOnTick, dc::ScenarioEvent::Kind::BurstOn, 0.0},
      {kBurstOffTick, dc::ScenarioEvent::Kind::BurstOff, 0.0},
      {kBlackoutTick, dc::ScenarioEvent::Kind::FailShard,
       static_cast<double>(kBlackoutShard)},
      {kReviveTick, dc::ScenarioEvent::Kind::ReviveAll, 0.0},
      {kBudgetCutTick, dc::ScenarioEvent::Kind::BudgetCut,
       kBudgetCutRemaining},
      {kBudgetRestoreTick, dc::ScenarioEvent::Kind::BudgetRestore, 0.0},
  };

  dc::SoakDriver driver{options, world};
  const dc::SoakReport report = driver.run();

  // -- narrate the timeline in phase windows ------------------------------
  TextTable table;
  table.set_header({"ticks", "offered", "delivered", "shed", "max stage",
                    "max p99 us"});
  constexpr std::uint64_t kWindow = 24;
  for (std::uint64_t start = 0; start < kTicks; start += kWindow) {
    std::uint64_t offered = 0, delivered = 0, shed = 0;
    std::uint32_t stage = 0;
    double p99 = 0.0;
    for (std::uint64_t t = start;
         t < std::min(start + kWindow, kTicks) &&
         t < report.timeline.size();
         ++t) {
      const dc::TickSample& s = report.timeline[t];
      offered += s.offered;
      for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
        delivered += s.delivered[p];
        shed += s.shed[p];
      }
      stage = std::max(stage, s.brownout_stage);
      p99 = std::max(p99, s.window_p99_us);
    }
    table.add_row({std::to_string(start) + "-" +
                       std::to_string(std::min(start + kWindow, kTicks) - 1),
                   std::to_string(offered), std::to_string(delivered),
                   std::to_string(shed), std::to_string(stage),
                   format_double(p99, 1)});
  }
  table.print(std::cout, "soak timeline (24-tick windows)");

  const fleet::FleetStats& fs = report.fleet;
  std::cout << "\nHeadline: " << report.offered << " offered, " << fs.routed
            << " routed, " << fs.delivered << " delivered, " << fs.shed
            << " shed, " << report.lost << " lost"
            << (chaos ? " [chaos armed]" : "") << "\n";
  for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
    std::cout << "  " << priority_name(p) << ": routed "
              << fs.routed_by_priority[p] << ", delivered "
              << fs.delivered_by_priority[p] << " ("
              << format_double(100.0 * report.delivered_fraction[p], 4)
              << "%), shed " << fs.shed_by_priority[p] << ", "
              << format_double(report.delivered_qps[p], 2) << " qps\n";
  }
  std::cout << "  p99 " << format_double(report.p99_us, 1)
            << " us, brownout depth " << report.brownout_depth << " ("
            << report.brownout_events << " events, recovery "
            << report.recovery_ticks << " ticks), cap-exceedance ticks "
            << "after recovery " << report.cap_exceedance_ticks_after_recovery
            << "\n  adapt: " << report.promotions << " promotions, lag "
            << report.adaptation_lag_ticks << " ticks, "
            << report.adapt.drift_events << " drift events, "
            << report.adapt.retrains << " retrains\n  client: "
            << report.client.calls << " calls, " << report.client.retries
            << " retries, " << report.client.retry_budget_exhausted
            << " budget exhaustions\n";

  // Retry-budget bound: every replica link starts with the initial
  // tokens and deposits ratio per call, so fleet-wide retries can never
  // exceed links x initial + ratio x calls (+ links of rounding slack).
  const auto links = static_cast<double>(kShards * kReplicas);
  const double retry_bound =
      links * options.fleet.client.retry_budget_initial +
      options.fleet.client.retry_budget_ratio *
          static_cast<double>(report.client.calls) +
      links;
  const std::uint32_t final_stage =
      report.timeline.empty() ? 0 : report.timeline.back().brownout_stage;

  // -- BENCH_dc.json ------------------------------------------------------
  std::ofstream json{"BENCH_dc.json"};
  json << "{\n  \"bench\": \"dc_soak\",\n  \"seed\": " << bench::kBenchSeed
       << ",\n  \"chaos\": " << (chaos ? "true" : "false")
       << ",\n  \"shards\": " << kShards
       << ",\n  \"replicas\": " << kReplicas << ",\n  \"ticks\": " << kTicks
       << ",\n  \"offered\": " << report.offered
       << ",\n  \"routed\": " << fs.routed
       << ",\n  \"delivered\": " << fs.delivered
       << ",\n  \"shed\": " << fs.shed << ",\n  \"lost\": " << report.lost
       << ",\n  \"sim_seconds\": " << format_double(report.sim_seconds, 4)
       << ",\n  \"priorities\": {";
  for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
    json << (p > 0 ? ", " : "") << "\"" << priority_name(p)
         << "\": {\"routed\": " << fs.routed_by_priority[p]
         << ", \"delivered\": " << fs.delivered_by_priority[p]
         << ", \"shed\": " << fs.shed_by_priority[p]
         << ", \"delivered_fraction\": "
         << format_double(report.delivered_fraction[p], 8)
         << ", \"delivered_qps\": "
         << format_double(report.delivered_qps[p], 4) << "}";
  }
  json << "},\n  \"p99_us\": " << format_double(report.p99_us, 4)
       << ",\n  \"brownout\": {\"depth\": " << report.brownout_depth
       << ", \"events\": " << report.brownout_events
       << ", \"recovery_ticks\": " << report.recovery_ticks
       << ", \"last_tick\": " << report.last_brownout_tick
       << ", \"final_stage\": " << final_stage
       << "},\n  \"cap_exceedance_ticks_after_recovery\": "
       << report.cap_exceedance_ticks_after_recovery
       << ",\n  \"adaptation\": {\"promotions\": " << report.promotions
       << ", \"lag_ticks\": " << report.adaptation_lag_ticks
       << ", \"drift_events\": " << report.adapt.drift_events
       << ", \"retrains\": " << report.adapt.retrains
       << "},\n  \"client\": {\"calls\": " << report.client.calls
       << ", \"retries\": " << report.client.retries
       << ", \"retry_budget_exhausted\": "
       << report.client.retry_budget_exhausted
       << ", \"retry_bound\": " << format_double(retry_bound, 4)
       << "},\n  \"timeline\": [\n";
  for (std::size_t t = 0; t < report.timeline.size(); ++t) {
    const dc::TickSample& s = report.timeline[t];
    std::uint64_t routed = 0, delivered = 0, shed = 0;
    for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
      routed += s.routed[p];
      delivered += s.delivered[p];
      shed += s.shed[p];
    }
    json << "    {\"tick\": " << s.tick << ", \"offered\": " << s.offered
         << ", \"routed\": " << routed << ", \"delivered\": " << delivered
         << ", \"shed\": " << shed << ", \"stage\": " << s.brownout_stage
         << ", \"budget_w\": " << format_double(s.budget_w, 3)
         << ", \"p99_us\": " << format_double(s.window_p99_us, 2)
         << ", \"cap_exceedance\": " << format_double(s.cap_exceedance, 6)
         << ", \"bursting\": " << (s.bursting ? "true" : "false") << "}"
         << (t + 1 < report.timeline.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  std::cout << "Wrote BENCH_dc.json\n";

  // -- the gate -----------------------------------------------------------
  bench::Gate gate;
  gate.check(report.lost == 0, "lost", report.lost, "== 0");
  gate.check(report.offered == fs.routed, "routed", fs.routed,
             "== offered " + std::to_string(report.offered));
  for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
    const std::uint64_t accounted =
        fs.delivered_by_priority[p] + fs.shed_by_priority[p];
    gate.check(fs.routed_by_priority[p] == accounted,
               std::string{priority_name(p)} + " routed",
               fs.routed_by_priority[p],
               "== delivered + shed " + std::to_string(accounted));
  }
  const double high_fraction = report.delivered_fraction[static_cast<
      std::size_t>(serve::Priority::High)];
  gate.check(high_fraction >= 0.99, "high delivered_fraction", high_fraction,
             ">= 0.99");
  gate.check(report.cap_exceedance_ticks_after_recovery == 0,
             "cap_exceedance_ticks_after_recovery",
             report.cap_exceedance_ticks_after_recovery, "== 0");
  gate.check(static_cast<double>(report.client.retries) <= retry_bound,
             "client retries", report.client.retries,
             "<= retry_bound " + format_double(retry_bound, 6));
  // The scripted 40% power cut must reach at least the shed-low stage.
  gate.check(report.brownout_seen && report.brownout_depth >= 2,
             "brownout depth", report.brownout_depth, ">= 2");
  gate.check(report.brownout_events >= 1, "brownout events",
             report.brownout_events, ">= 1");
  if (!chaos) {
    gate.check(final_stage == 0, "final brownout stage", final_stage,
               "== 0 (unwound by the end of a clean run)");
  }
  return gate.exit_code();
}
