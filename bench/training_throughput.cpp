// Training-throughput bench for the parallel offline pipeline: times the
// three executor-distributed stages — characterization sweep, train
// (frontiers, dissimilarity, per-cluster fits + CART), and the LOOCV
// protocol — at 1, 2, 4 and 8 threads, prints the speedup table, emits
// BENCH_train.json, and exits non-zero unless the determinism contract
// holds (the serialized model is byte-identical at every thread count).
//
// Speedup is physical: on an N-core machine, thread counts past N buy
// nothing. The JSON therefore records hardware_threads next to the
// measurements so the artifact from any runner is interpretable, and the
// headline target (>= 2x at 8 threads) is only meaningfully testable on
// runners with >= 4 cores.
#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "eval/protocol.h"
#include "exec/thread_pool.h"
#include "util/strings.h"
#include "util/table.h"

namespace {

using namespace acsel;

struct RunResult {
  std::size_t threads = 0;
  double characterize_s = 0.0;
  double train_s = 0.0;
  double loocv_s = 0.0;
  double total_s = 0.0;
  std::string model_text;  // serialized model, for the determinism check
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One full offline pipeline pass on a pool of `threads` workers
/// (threads == 1 builds the worker-less pool: the serial path through
/// the identical call sites).
RunResult run_pipeline(std::size_t threads) {
  exec::ThreadPool pool{threads == 1 ? 0 : threads};
  RunResult result;
  result.threads = threads;

  const soc::Machine machine = bench::make_machine();
  const auto suite = workloads::Suite::standard();

  auto start = std::chrono::steady_clock::now();
  const auto characterizations =
      eval::characterize(machine, suite, {}, pool);
  result.characterize_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  auto [model, report] = core::train(characterizations, {}, pool);
  result.train_s = seconds_since(start);
  result.model_text = model.serialize();

  start = std::chrono::steady_clock::now();
  const auto evaluation = eval::run_loocv_characterized(
      {.machine = machine, .executor = pool}, suite, characterizations);
  result.loocv_s = seconds_since(start);
  if (evaluation.cases.empty()) {
    std::cerr << "LOOCV produced no cases\n";
    std::exit(1);
  }

  result.total_s =
      result.characterize_s + result.train_s + result.loocv_s;
  return result;
}

std::string json_row(const RunResult& run, double speedup) {
  std::string out = "    {";
  out += "\"threads\": " + std::to_string(run.threads);
  out += ", \"characterize_s\": " + format_double(run.characterize_s, 6);
  out += ", \"train_s\": " + format_double(run.train_s, 6);
  out += ", \"loocv_s\": " + format_double(run.loocv_s, 6);
  out += ", \"total_s\": " + format_double(run.total_s, 6);
  out += ", \"speedup\": " + format_double(speedup, 6);
  out += "}";
  return out;
}

}  // namespace

int main() {
  bench::print_header("training_throughput: parallel offline pipeline",
                      "speedup of characterize + train + LOOCV over "
                      "acsel::exec (DESIGN.md row 14)");
  std::cout << "hardware threads: " << exec::hardware_threads() << "\n\n";

  std::vector<RunResult> results;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    results.push_back(run_pipeline(threads));
  }
  const RunResult& serial = results.front();

  bool identical = true;
  TextTable table;
  table.set_header({"threads", "characterize s", "train s", "loocv s",
                    "total s", "speedup"});
  for (const RunResult& run : results) {
    identical = identical && run.model_text == serial.model_text;
    table.add_row({std::to_string(run.threads),
                   format_double(run.characterize_s, 4),
                   format_double(run.train_s, 4),
                   format_double(run.loocv_s, 4),
                   format_double(run.total_s, 4),
                   format_double(serial.total_s / run.total_s, 3)});
  }
  table.print(std::cout, "offline pipeline wall time (standard suite)");

  bench::Gate gate;
  gate.check(identical, "serialized model across thread counts", "differs",
             "byte-identical: the determinism contract");

  const double headline = serial.total_s / results.back().total_s;
  std::cout << "Headline (8 threads): " << format_double(headline, 4)
            << "x (target: >= 2x; requires >= 4 hardware cores, this "
               "machine has "
            << exec::hardware_threads() << ")\n";

  std::ofstream json{"BENCH_train.json"};
  json << "{\n  \"bench\": \"training_throughput\",\n  \"seed\": "
       << bench::kBenchSeed << ",\n  \"hardware_threads\": "
       << exec::hardware_threads() << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    json << json_row(results[i], serial.total_s / results[i].total_s)
         << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ],\n  \"identical_results\": "
       << (identical ? "true" : "false")
       << ",\n  \"headline\": {\"threads\": 8, \"speedup\": "
       << format_double(headline, 6) << ", \"target_speedup\": 2.0}\n}\n";
  std::cout << "Wrote BENCH_train.json\n";
  return gate.exit_code();
}
