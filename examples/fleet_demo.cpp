// Narrated fleet walkthrough: bring up a sharded, replicated serving
// fleet, push traffic at it, then kill every replica of one shard
// mid-run and watch the control loops respond — the failure detector
// walks the dead nodes Alive -> Suspect -> Dead, the router reroutes the
// dead shard's kernel clusters to its ring successors, and the budget
// balancer hands the dead machines' power share to the survivors.
//
// The same request stream is replayed before and after the kill, so the
// routing change is directly visible: identical kernels, different shard.
#include <iostream>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "eval/characterize.h"
#include "fleet/fleet.h"
#include "hw/config_space.h"
#include "profile/profiler.h"
#include "soc/machine.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/suite.h"

using namespace acsel;

namespace {

void print_budget(const fleet::Fleet& fleet, const std::string& caption) {
  TextTable table;
  table.set_header({"shard", "cap W", "routable replicas"});
  for (std::uint32_t s = 0; s < fleet.options().shards; ++s) {
    table.add_row({std::to_string(s),
                   format_double(fleet.budget().shard(s).cap_w, 3),
                   std::to_string(fleet.membership()
                                      .routable_replicas(s)
                                      .size())});
  }
  table.print(std::cout, caption);
}

}  // namespace

int main() {
  init_log_level_from_env();
  std::cout << "=== fleet_demo: kill a shard, watch the fleet route around "
               "it ===\n\n";

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

  // -- bring up the fleet -------------------------------------------------
  fleet::FleetOptions options;
  options.shards = 4;
  options.replicas = 3;
  options.budget.global_budget_w = 120.0;  // 30 W nominal per shard
  fleet::Fleet fleet{options};
  const std::uint64_t version = fleet.publish(core::make_predictor(core::train(training).model));
  std::cout << "Fleet up: " << options.shards << " shards x "
            << options.replicas
            << " replicas, model published fleet-wide as version " << version
            << ".\n\n";

  // -- phase 1: healthy routing -------------------------------------------
  std::cout << "Phase 1 — healthy fleet. Each kernel hashes to its home "
               "shard:\n";
  std::vector<std::uint32_t> home(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    home[i] = fleet.shard_of(requests[i]);
    const auto response = fleet.select(requests[i]);
    std::cout << "  " << requests[i].samples.cpu.kernel << " -> shard "
              << home[i] << " (config " << response.config_index
              << ", predicted " << format_double(response.predicted_power_w, 4)
              << " W, " << to_string(response.status) << ")\n";
  }
  for (int t = 0; t < 4; ++t) {
    fleet.tick();  // heartbeats + first budget rebalance
  }
  print_budget(fleet, "budget after first rebalance (all shards healthy)");

  // -- phase 2: kill every replica of one shard ---------------------------
  const std::uint32_t victim = home.empty() ? 0 : home[0];
  std::cout << "\nPhase 2 — killing all " << options.replicas
            << " replicas of shard " << victim << " mid-run...\n";
  for (std::uint32_t r = 0; r < options.replicas; ++r) {
    fleet.fail_node(fleet::NodeId{victim, r});
  }
  // The dead nodes stop heartbeating; the detector needs kDeadAfterTicks
  // of silence to call it. Traffic keeps flowing the whole time — the
  // shard's zero-reply fan-outs reroute immediately, detection just stops
  // the fleet paying fan-out timeouts for a machine it knows is gone.
  for (std::uint64_t t = 0; t <= fleet::kDeadAfterTicks; ++t) {
    for (const auto& request : requests) {
      (void)fleet.select(request);
    }
    fleet.tick();
    const auto state =
        fleet.membership().state(fleet::NodeId{victim, 0});
    std::cout << "  tick " << fleet.membership().now() << ": shard " << victim
              << " replica 0 is " << to_string(state) << "\n";
  }

  // -- phase 3: the fleet after detection ---------------------------------
  const auto stats = fleet.stats();
  std::cout << "\nPhase 3 — rerouted. Same kernels, new shards:\n";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto response = fleet.select(requests[i]);
    std::cout << "  " << requests[i].samples.cpu.kernel << " (home shard "
              << home[i] << ") -> " << to_string(response.status) << "\n";
  }
  for (int t = 0; t < 4; ++t) {
    fleet.tick();  // next rebalance sees the dead shard
  }
  print_budget(fleet,
               "budget after failure: the dead shard idles, its share "
               "flows to survivors");

  const auto after = fleet.stats();
  std::cout << "\nScoreboard: routed " << after.routed << ", delivered "
            << after.delivered << ", shed " << after.shed << ", rerouted "
            << after.rerouted << ", lost "
            << (after.routed - after.delivered - after.shed)
            << "\n  membership transitions " << after.membership_transitions
            << " (" << stats.replicas_alive << "/" << stats.replicas
            << " replicas routable after the kill), rebalances "
            << after.rebalances << "\n\nEvery request was answered: the "
               "dead shard's kernels were rerouted to their ring "
               "successors, and its power budget was reallocated. Revive "
               "with revive_node() to watch it rejoin and re-adopt the "
               "current model.\n";
  return 0;
}
