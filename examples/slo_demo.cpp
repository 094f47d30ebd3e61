// Narrated SLO walkthrough: run a sharded fleet with the SLO engine and
// distributed tracing on, kill every replica of one shard mid-run, and
// watch the delivered-fraction SLO burn — the multi-window burn-rate
// alert fires with incident context attached (membership transitions over
// the slow window) and carries exemplar trace ids. One exemplar is then
// resolved against the merged cross-process trace to show exactly what
// the alert is about: the request's critical path routing around the
// dead shard. Reviving the shard drains the fast window and the alert
// clears.
//
// The merged Chrome/Perfetto trace is written to slo_demo_trace.json —
// open it in https://ui.perfetto.dev to see the reroute.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "eval/characterize.h"
#include "fleet/fleet.h"
#include "hw/config_space.h"
#include "obs/collector.h"
#include "obs/trace.h"
#include "profile/profiler.h"
#include "soc/machine.h"
#include "util/log.h"
#include "util/strings.h"
#include "workloads/suite.h"

using namespace acsel;

namespace {

void print_states(const fleet::Fleet& fleet) {
  for (const obs::SloState& state : fleet.slo_states()) {
    std::cout << "    " << state.name << ": sli "
              << format_double(state.sli, 4) << ", fast burn "
              << format_double(state.fast_burn, 2) << "x, slow burn "
              << format_double(state.slow_burn, 2) << "x"
              << (state.firing ? "  ** FIRING **" : "") << "\n";
  }
}

}  // namespace

int main() {
  init_log_level_from_env();
  std::cout << "=== slo_demo: node loss burns the delivered SLO; an "
               "exemplar trace shows the reroute ===\n\n";

  // -- train a model and build a request set ------------------------------
  soc::Machine machine{soc::MachineSpec{}, 90210};
  const auto suite = workloads::Suite::standard();
  std::vector<core::KernelCharacterization> training;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark != "LULESH") {
      training.push_back(eval::characterize_instance(machine, instance));
    }
  }
  const hw::ConfigSpace space;
  profile::Profiler profiler{machine};
  std::vector<serve::SelectRequest> requests;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark == "LULESH") {
      serve::SelectRequest request;
      request.request_id = requests.size();
      request.samples.cpu = profiler.run(instance, space.cpu_sample());
      request.samples.gpu = profiler.run(instance, space.gpu_sample());
      request.cap_w = 25.0;
      requests.push_back(std::move(request));
    }
  }

  // -- fleet with SLOs and tracing on -------------------------------------
  obs::Tracer::global().enable();
  fleet::FleetOptions options;
  options.shards = 4;
  options.replicas = 3;
  options.trace_sample_den = 1;  // demo scale: trace every request
  options.slo.enabled = true;
  options.slo.burn.fast_window = 2;   // demo scale: alert within ticks
  options.slo.burn.slow_window = 6;
  options.slo.burn.burn_threshold = 2.0;
  options.slo.error_budget = 0.25;
  fleet::Fleet fleet{options};
  fleet.publish(core::make_predictor(core::train(training).model));
  std::cout << "Fleet up: " << options.shards << " shards x "
            << options.replicas << " replicas; SLOs: delivered >= "
            << format_double(fleet::kDeliveredObjective, 4)
            << ", p99 < " << format_double(options.slo.p99_objective_us, 1)
            << " us, cap exceedance <= "
            << format_double(options.slo.cap_exceedance_target, 3) << ".\n\n";

  // -- phase 1: healthy ----------------------------------------------------
  std::cout << "Phase 1 — healthy fleet, 3 ticks of traffic:\n";
  for (int t = 0; t < 3; ++t) {
    for (const auto& request : requests) {
      (void)fleet.select(request);
    }
    fleet.tick();
  }
  print_states(fleet);
  std::cout << "  alerts so far: " << fleet.alerts().size() << "\n\n";

  // -- phase 2: node loss burns the delivered SLO -------------------------
  const std::uint32_t victim = fleet.shard_of(requests.front());
  std::cout << "Phase 2 — killing all replicas of shard " << victim
            << " (the home of these kernels). Every request now "
               "reroutes, so the owner-first-try delivered fraction "
               "collapses:\n";
  for (std::uint32_t r = 0; r < options.replicas; ++r) {
    fleet.fail_node(fleet::NodeId{victim, r});
  }
  for (int t = 0; t < 3 && fleet.alerts().empty(); ++t) {
    for (const auto& request : requests) {
      (void)fleet.select(request);
    }
    fleet.tick();
  }
  print_states(fleet);
  if (fleet.alerts().empty()) {
    std::cout << "  (no alert fired — unexpected)\n";
    return 1;
  }
  const obs::Alert alert = fleet.alerts().front();
  std::cout << "\n  ALERT " << alert.slo << " fired at tick "
            << alert.fired_tick << ": fast burn "
            << format_double(alert.fast_burn, 2) << "x, slow burn "
            << format_double(alert.slow_burn, 2) << "x, worst SLI "
            << format_double(alert.worst_value, 4)
            << "\n  incident context over the slow window: "
            << static_cast<std::uint64_t>(alert.membership_transitions)
            << " membership transitions, "
            << static_cast<std::uint64_t>(alert.promotions) << " promotions, "
            << static_cast<std::uint64_t>(alert.rollbacks) << " rollbacks\n";

  // -- phase 3: resolve an exemplar against the merged trace --------------
  obs::Tracer::global().disable();
  obs::Collector collector;
  collector.ingest(obs::Tracer::global(), "fleet");
  std::cout << "\nPhase 3 — the alert carries "
            << alert.exemplar_trace_ids.size()
            << " exemplar trace id(s) (slowest traced requests):\n";
  for (const std::uint64_t trace_id : alert.exemplar_trace_ids) {
    const obs::MergedTrace trace = collector.assemble(trace_id);
    if (trace.empty()) {
      continue;
    }
    std::cout << "  trace " << trace_id << ": " << trace.events.size()
              << " spans over "
              << format_double(static_cast<double>(trace.end_ns -
                                                   trace.begin_ns) / 1e3, 1)
              << " us, critical path:\n";
    for (const std::size_t index : trace.critical_path) {
      std::cout << "      " << trace.events[index].event.name << " ("
                << format_double(
                       static_cast<double>(trace.events[index].event.dur_ns) /
                           1e3, 1)
                << " us)\n";
    }
    bool rerouted = false;
    for (const auto& placed : trace.events) {
      rerouted = rerouted || placed.event.name == "fleet.reroute";
    }
    std::cout << "      reroute marker present: "
              << (rerouted ? "yes — this request routed around shard " +
                                 std::to_string(victim)
                           : "no (served before the kill)")
              << "\n";
    break;  // one exemplar tells the story
  }
  std::ofstream out{"slo_demo_trace.json"};
  collector.write_chrome_trace(out);
  std::cout << "  full merged trace written to slo_demo_trace.json ("
            << collector.size() << " events).\n";

  // -- phase 4: revive and clear ------------------------------------------
  std::cout << "\nPhase 4 — reviving shard " << victim
            << " and serving healthy ticks until the fast window drains:\n";
  for (std::uint32_t r = 0; r < options.replicas; ++r) {
    fleet.revive_node(fleet::NodeId{victim, r});
  }
  for (int t = 0; t < 4 && fleet.alerts().front().active(); ++t) {
    for (const auto& request : requests) {
      (void)fleet.select(request);
    }
    fleet.tick();
  }
  print_states(fleet);
  const obs::Alert& final_alert = fleet.alerts().front();
  if (final_alert.active()) {
    std::cout << "  alert still active — unexpected\n";
    return 1;
  }
  std::cout << "  alert cleared at tick " << final_alert.cleared_tick
            << " (fired " << final_alert.fired_tick
            << "): the fast window is clean, while the slow window keeps "
               "the incident on the books.\n\nThe SLO engine turned a "
               "node-loss incident into one deterministic alert, annotated "
               "with the membership churn that caused it and exemplar "
               "traces that show each rerouted request's critical path.\n";
  return 0;
}
