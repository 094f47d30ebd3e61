// Chaos bench: drives the two graceful-degradation paths under seeded
// fault injection, emits BENCH_fault.json, and exits non-zero unless the
// defenses hold — the runtime never settles above its cap after faults
// clear, and the serving stack keeps answering while its current model
// and its wire are both misbehaving.
//
//  1. Runtime: a guarded OnlineRuntime runs kernels through a clean
//     window, a chaos window (SMU spikes: every reading 5x), and a
//     recovery window. Reported: fallbacks, re-samples, violations, and
//     the headline — cap exceedances after recovery (must be 0).
//  2. Serve: a retrying Client talks through a corrupting wire to a
//     Server whose *current* model is corrupt; the circuit breaker
//     reroutes to the previous version. Reported: delivered selections,
//     reroutes, retries, retry-budget exhaustions, trips, p99. More than
//     90% must be delivered, with the retry budget never running dry.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/runtime.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "fault/fault.h"
#include "serve/client.h"
#include "serve/server.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace acsel;

struct RuntimeChaosResult {
  std::size_t fallbacks = 0;
  std::size_t resamples = 0;
  std::size_t violations = 0;
  std::size_t rejected_samples = 0;
  std::size_t exceedances_after_recovery = 0;
  double worst_recovered_power_w = 0.0;
};

RuntimeChaosResult run_runtime_chaos(soc::Machine& machine,
                                     const workloads::Suite& suite,
                                     const core::PredictorPtr& model) {
  constexpr double kCapW = 30.0;
  core::OnlineRuntime::Options options;
  options.power_cap_w = kCapW;
  options.guardrails.enabled = true;
  options.guardrails.cap_tolerance = 0.2;
  options.guardrails.cap_patience = 2;
  options.guardrails.backoff_initial = 4;
  options.guardrails.backoff_max = 8;
  core::OnlineRuntime runtime{machine, model, options};

  std::vector<std::pair<core::KernelKey, const workloads::WorkloadInstance*>>
      calls;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark == "LU" || calls.size() < 3) {
      calls.emplace_back(core::KernelKey{instance.kernel, "main", 12},
                         &instance);
    }
  }

  const auto run_window = [&](int invocations, bool measure,
                              RuntimeChaosResult& result) {
    for (int i = 0; i < invocations; ++i) {
      for (const auto& [key, impl] : calls) {
        const auto& record = runtime.invoke(key, *impl);
        if (measure &&
            runtime.phase(key) == core::OnlineRuntime::Phase::Scheduled &&
            !runtime.in_fallback(key)) {
          result.worst_recovered_power_w = std::max(
              result.worst_recovered_power_w, record.total_power_w());
          if (record.total_power_w() >
              kCapW * (1.0 + options.guardrails.cap_tolerance)) {
            ++result.exceedances_after_recovery;
          }
        }
      }
    }
  };

  RuntimeChaosResult result;
  run_window(8, false, result);  // clean warm-up: everything scheduled
  fault::Injector::global().arm("smu.spike", {1.0, 1, 4.0});
  run_window(14, false, result);  // chaos: every SMU reading is 5x
  fault::Injector::global().disarm_all();
  // Re-convergence: profiles polluted during chaos (committed 5x samples)
  // need up to two more violate -> fallback -> re-sample cycles before
  // every kernel is rebuilt from clean telemetry. 20 invocations cover
  // the worst case (2 violations + 8 backoff + 2 samples, twice).
  run_window(20, false, result);
  run_window(8, true, result);  // measured recovery window
  result.fallbacks = runtime.guard_fallbacks();
  result.resamples = runtime.guard_resamples();
  result.violations = runtime.guard_cap_violations();
  result.rejected_samples = runtime.guard_rejected_samples();
  return result;
}

struct ServeChaosResult {
  std::uint64_t requests = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rerouted = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_budget_exhausted = 0;
  std::uint64_t breaker_trips = 0;
  std::uint64_t errors = 0;
  double p99_us = 0.0;
};

ServeChaosResult run_serve_chaos(
    const core::PredictorPtr& model,
    const std::vector<core::KernelCharacterization>& pool) {
  serve::ModelRegistry registry;
  registry.publish(model);                 // v1: healthy
  // v2: corrupt (predict throws)
  registry.publish(core::make_predictor(core::TrainedModel{}));

  serve::ServerOptions options;
  options.workers = 2;
  options.breaker.enabled = true;
  options.breaker.failure_threshold = 3;
  options.breaker.open_requests = 32;
  options.breaker.half_open_probes = 2;
  options.request_deadline = std::chrono::seconds{5};
  serve::Server server{registry, options};

  // One in five outgoing frames is corrupted on the wire; the client
  // retries those. The backoff sleep is a no-op so the bench measures
  // behaviour, not sleeping.
  fault::Injector::global().arm("wire.corrupt", {0.2, 1, 1.0});
  serve::ClientOptions client_options;
  client_options.max_attempts = 4;
  // Sustained 20% corruption needs about a quarter of all calls retried;
  // the default budget (0.1 retry per call) runs dry and gives up on
  // about 11% of requests, so this scenario states the budget it needs.
  client_options.retry_budget_ratio = 0.3;
  client_options.sleep = [](std::chrono::microseconds) {};
  serve::Client client{[&](std::span<const std::uint8_t> frame) {
                         return server.serve_frame(frame);
                       },
                       client_options};

  ServeChaosResult result;
  result.requests = 400;
  static const double caps[] = {18.0, 22.0, 26.0, 30.0, 40.0};
  for (std::uint64_t i = 0; i < result.requests; ++i) {
    serve::SelectRequest request;
    request.request_id = i;
    request.samples = pool[i % pool.size()].samples;
    request.cap_w = caps[i % 5];
    const serve::SelectResponse response = client.select(request);
    if (response.status == serve::ResponseStatus::Ok) {
      ++result.delivered;
    }
  }
  fault::Injector::global().disarm_all();

  const auto snapshot = server.metrics_snapshot();
  result.rerouted = snapshot.breaker_rerouted;
  result.retries = client.retries();
  result.retry_budget_exhausted = client.retry_budget_exhausted();
  result.breaker_trips = server.breaker().trips();
  result.errors = snapshot.errors;
  result.p99_us = snapshot.latency.p99_us;
  return result;
}

}  // namespace

int main() {
  bench::print_header("fault_degradation: behaviour under injected faults",
                      "robustness hardening (no paper counterpart)");

  soc::Machine machine = bench::make_machine();
  const auto suite = workloads::Suite::standard();
  std::vector<core::KernelCharacterization> training;
  for (const auto& instance : suite.instances()) {
    training.push_back(eval::characterize_instance(machine, instance));
  }
  const core::PredictorPtr model =
      core::make_predictor(core::train(training).model);

  const RuntimeChaosResult runtime = run_runtime_chaos(machine, suite, model);
  const ServeChaosResult serve = run_serve_chaos(model, training);

  TextTable table;
  table.set_header({"scenario", "metric", "value"});
  table.add_row({"runtime", "fallbacks",
                 std::to_string(runtime.fallbacks)});
  table.add_row({"runtime", "re-samples",
                 std::to_string(runtime.resamples)});
  table.add_row({"runtime", "cap violations",
                 std::to_string(runtime.violations)});
  table.add_row({"runtime", "worst recovered power (W)",
                 format_double(runtime.worst_recovered_power_w, 4)});
  table.add_row({"runtime", "cap exceedances after recovery",
                 std::to_string(runtime.exceedances_after_recovery)});
  table.add_row({"serve", "delivered / requests",
                 std::to_string(serve.delivered) + " / " +
                     std::to_string(serve.requests)});
  table.add_row({"serve", "breaker reroutes",
                 std::to_string(serve.rerouted)});
  table.add_row({"serve", "breaker trips",
                 std::to_string(serve.breaker_trips)});
  table.add_row({"serve", "client retries", std::to_string(serve.retries)});
  table.add_row({"serve", "retry budget exhausted",
                 std::to_string(serve.retry_budget_exhausted)});
  table.add_row({"serve", "p99 (us)", format_double(serve.p99_us, 4)});
  table.print(std::cout, "degradation under injected faults");

  const double delivered_fraction = static_cast<double>(serve.delivered) /
                                    static_cast<double>(serve.requests);
  std::cout << "\nHeadline: " << runtime.exceedances_after_recovery
            << " cap exceedances after recovery (target: 0), "
            << serve.delivered << "/" << serve.requests
            << " selections delivered under wire + model faults.\n";

  std::ofstream json{"BENCH_fault.json"};
  json << "{\n  \"bench\": \"fault_degradation\",\n  \"seed\": "
       << bench::kBenchSeed << ",\n  \"runtime\": {"
       << "\"fallbacks\": " << runtime.fallbacks
       << ", \"resamples\": " << runtime.resamples
       << ", \"violations\": " << runtime.violations
       << ", \"rejected_samples\": " << runtime.rejected_samples
       << ", \"worst_recovered_power_w\": "
       << format_double(runtime.worst_recovered_power_w, 6)
       << ", \"exceedances_after_recovery\": "
       << runtime.exceedances_after_recovery << "},\n  \"serve\": {"
       << "\"requests\": " << serve.requests
       << ", \"delivered\": " << serve.delivered
       << ", \"rerouted\": " << serve.rerouted
       << ", \"retries\": " << serve.retries
       << ", \"retry_budget_exhausted\": " << serve.retry_budget_exhausted
       << ", \"breaker_trips\": " << serve.breaker_trips
       << ", \"errors\": " << serve.errors
       << ", \"p99_us\": " << format_double(serve.p99_us, 6)
       << "},\n  \"headline\": {\"exceedances_after_recovery\": "
       << runtime.exceedances_after_recovery
       << ", \"delivered_fraction\": " << format_double(delivered_fraction, 6)
       << "}\n}\n";
  std::cout << "Wrote BENCH_fault.json\n";

  bench::Gate gate;
  gate.check(runtime.exceedances_after_recovery == 0,
             "exceedances_after_recovery",
             runtime.exceedances_after_recovery, "== 0");
  gate.check(delivered_fraction > 0.9, "delivered_fraction",
             delivered_fraction, "> 0.9");
  gate.check(serve.retry_budget_exhausted == 0, "retry_budget_exhausted",
             serve.retry_budget_exhausted, "== 0");
  return gate.exit_code();
}
