// Closed-loop load generator for the serving layer: sweeps worker-thread
// count and offered load (concurrent closed-loop clients), measures
// sustained selections/sec and queueing latency, and emits
// BENCH_serve.json so later PRs can track the performance trajectory.
//
// Context for the numbers: §IV-C reports a single selection costs < 1 ms
// (tree walk + matrix-vector products). The service layer must add
// negligible overhead on top — the headline check is >= 50k selections/s
// at 8 workers with p99 < 1 ms. That target is reported, not gated: the
// bench exits non-zero only if some run's p99 reaches 200 ms, the bound
// that keeps latency finite under injected SMU and wire faults.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "hw/config_space.h"
#include "profile/profiler.h"
#include "serve/server.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace acsel;

struct RunResult {
  std::size_t workers = 0;
  std::size_t clients = 0;
  serve::ServerMetrics::Snapshot snapshot;
};

/// One closed-loop measurement window: `clients` threads each submit and
/// wait, back to back, for `duration`.
RunResult run_window(serve::ModelRegistry& registry, std::size_t workers,
                     std::size_t clients,
                     const std::vector<core::SamplePair>& sample_pool,
                     std::chrono::milliseconds duration) {
  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = 4096;
  options.max_batch = 32;
  serve::Server server{registry, options};

  std::atomic<bool> stop_flag{false};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      static const double caps[] = {18.0, 22.0, 26.0, 30.0, 40.0};
      std::uint64_t i = 0;
      while (!stop_flag.load(std::memory_order_relaxed)) {
        const std::uint64_t mix = (c * 1000003u + i) * 2654435761u;
        serve::SelectRequest request;
        request.request_id = c * 1'000'000 + i;
        request.samples = sample_pool[mix % sample_pool.size()];
        request.goal = static_cast<core::SchedulingGoal>(mix % 3);
        if (mix % 5 != 0) {
          request.cap_w = caps[mix % 5];
        }
        (void)server.select(std::move(request));
        ++i;
      }
    });
  }

  // Warm up outside the measurement window, then reset and measure.
  std::this_thread::sleep_for(duration / 4);
  server.reset_metrics();
  std::this_thread::sleep_for(duration);
  RunResult result;
  result.workers = workers;
  result.clients = clients;
  result.snapshot = server.metrics_snapshot();
  stop_flag.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  server.stop();
  return result;
}

std::string json_row(const RunResult& run) {
  const auto& s = run.snapshot;
  std::string out = "    {";
  out += "\"workers\": " + std::to_string(run.workers);
  out += ", \"clients\": " + std::to_string(run.clients);
  out += ", \"elapsed_s\": " + format_double(s.elapsed_s, 6);
  out += ", \"completed\": " + std::to_string(s.completed);
  out += ", \"shed\": " + std::to_string(s.shed);
  out += ", \"errors\": " + std::to_string(s.errors);
  out += ", \"qps\": " + format_double(s.qps, 8);
  out += ", \"mean_batch\": " + format_double(s.mean_batch, 6);
  out += ", \"p50_us\": " + format_double(s.latency.p50_us, 6);
  out += ", \"p99_us\": " + format_double(s.latency.p99_us, 6);
  out += ", \"max_us\": " + format_double(s.latency.max_us, 6);
  out += "}";
  return out;
}

}  // namespace

int main() {
  bench::print_header("serve_throughput: concurrent selection service",
                      "§IV-C overhead claim, scaled to a serving layer");

  // -- offline: train on three benchmarks, serve the fourth --------------
  soc::Machine machine = bench::make_machine();
  const auto suite = workloads::Suite::standard();
  std::vector<core::KernelCharacterization> training;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark != "LU") {
      training.push_back(eval::characterize_instance(machine, instance));
    }
  }
  serve::ModelRegistry registry;
  registry.publish(core::make_predictor(core::train(training).model));

  // -- request pool: sample runs of unseen kernels (two runs each, the
  //    paper's online protocol) plus a slice of training kernels ---------
  const hw::ConfigSpace space;
  profile::Profiler profiler{machine};
  std::vector<core::SamplePair> sample_pool;
  for (const auto& instance : suite.instances()) {
    if (instance.benchmark == "LU") {
      core::SamplePair samples;
      samples.cpu = profiler.run(instance, space.cpu_sample());
      samples.gpu = profiler.run(instance, space.gpu_sample());
      sample_pool.push_back(samples);
    }
  }
  for (std::size_t i = 0; i < training.size(); i += 8) {
    sample_pool.push_back(training[i].samples);
  }
  std::cout << "Trained model published; request pool of "
            << sample_pool.size() << " distinct kernels.\n\n";

  // -- sweep worker count x offered load ---------------------------------
  const std::chrono::milliseconds window{400};
  std::vector<RunResult> results;
  double worst_p99_us = 0.0;
  TextTable table;
  table.set_header({"workers", "clients", "qps", "p50 us", "p99 us",
                    "max us", "mean batch", "shed"});
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    for (const std::size_t clients : {workers, 2 * workers, 4 * workers}) {
      const RunResult run =
          run_window(registry, workers, clients, sample_pool, window);
      results.push_back(run);
      const auto& s = run.snapshot;
      worst_p99_us = std::max(worst_p99_us, s.latency.p99_us);
      table.add_row({std::to_string(run.workers),
                     std::to_string(run.clients), format_double(s.qps, 6),
                     format_double(s.latency.p50_us, 4),
                     format_double(s.latency.p99_us, 4),
                     format_double(s.latency.max_us, 4),
                     format_double(s.mean_batch, 3),
                     std::to_string(s.shed)});
    }
  }
  table.print(std::cout, "closed-loop sweep (400 ms windows)");

  // -- headline: best sustained throughput at 8 workers that still meets
  //    the latency target (heaviest offered load is deliberately past the
  //    knee; it shows saturation, not the operating point) ----------------
  const RunResult* best_at_8 = nullptr;
  for (const RunResult& run : results) {
    if (run.workers != 8) {
      continue;
    }
    const bool meets_latency = run.snapshot.latency.p99_us < 1000.0;
    const bool best_meets =
        best_at_8 != nullptr && best_at_8->snapshot.latency.p99_us < 1000.0;
    if (best_at_8 == nullptr || (meets_latency && !best_meets) ||
        (meets_latency == best_meets &&
         run.snapshot.qps > best_at_8->snapshot.qps)) {
      best_at_8 = &run;
    }
  }
  std::cout << "\nHeadline (8 workers): "
            << format_double(best_at_8->snapshot.qps, 6)
            << " selections/s, p99 "
            << format_double(best_at_8->snapshot.latency.p99_us, 4)
            << " us (target: >= 50000/s, p99 < 1000 us)\n";

  // -- BENCH_serve.json --------------------------------------------------
  std::ofstream json{"BENCH_serve.json"};
  json << "{\n  \"bench\": \"serve_throughput\",\n  \"seed\": "
       << bench::kBenchSeed << ",\n  \"window_ms\": " << window.count()
       << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    json << json_row(results[i]) << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ],\n  \"headline\": {\"workers\": 8, \"qps\": "
       << format_double(best_at_8->snapshot.qps, 8) << ", \"p99_us\": "
       << format_double(best_at_8->snapshot.latency.p99_us, 6)
       << ", \"target_qps\": 50000, \"target_p99_us\": 1000}\n}\n";
  std::cout << "Wrote BENCH_serve.json\n";

  bench::Gate gate;
  gate.check(worst_p99_us < 200'000.0, "worst run p99_us", worst_p99_us,
             "< 200000");
  return gate.exit_code();
}
