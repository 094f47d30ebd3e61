// Shared plumbing for the reproduction benches: one canonical machine
// seed so every figure is computed from the same simulated experiment, a
// shared thread pool sized from ACSEL_THREADS, a helper that prints our
// rows next to the paper's reported values, and the pass/fail gate the
// JSON-emitting benches hold their bounds with.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>

#include "eval/protocol.h"
#include "exec/executor.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "soc/machine.h"
#include "util/log.h"
#include "workloads/suite.h"

namespace acsel::bench {

/// One seed across all benches so Table III and Figs. 4-9 describe the
/// same simulated experiment.
constexpr std::uint64_t kBenchSeed = 90210;

inline soc::Machine make_machine() {
  soc::MachineSpec spec;
  // Chaos runs (ACSEL_FAULTS) arm SMU fault sites; the sensor guard is
  // the defense layer those faults exercise, so it comes on with them.
  // Clean runs keep it off — telemetry stays bitwise identical.
  spec.sensor_guard = fault::Injector::global().any_armed();
  return soc::Machine{spec, kBenchSeed};
}

/// The pool every bench shares, sized on first use from the ACSEL_THREADS
/// default (hardware concurrency unless overridden). ACSEL_THREADS=1
/// builds a worker-less pool — the serial path through the same call
/// sites. Results do not depend on the size (see exec/executor.h).
inline exec::Executor& bench_executor() {
  static exec::ThreadPool pool{
      exec::default_threads() == 1 ? 0 : exec::default_threads()};
  return pool;
}

/// Runs the paper's full LOOCV evaluation (§V) on a fresh machine.
inline eval::EvaluationResult run_paper_evaluation() {
  const soc::Machine machine = make_machine();
  const auto suite = workloads::Suite::standard();
  return eval::run_loocv({.machine = machine, .executor = bench_executor()},
                         suite);
}

inline void print_header(const std::string& title,
                         const std::string& paper_ref) {
  // Every bench calls this first, so ACSEL_LOG_LEVEL, ACSEL_THREADS and
  // ACSEL_FAULTS work across the whole bench suite without each bench
  // wiring them up. (Call it before the first bench_executor() use — the
  // pool is sized once.)
  init_log_level_from_env();
  exec::init_threads_from_env();
  fault::init_from_env();
  std::cout << "=== " << title << " ===\n"
            << "Reproduces: " << paper_ref << "\n"
            << "(simulated Trinity APU substrate — compare shapes, not "
               "absolute values; see EXPERIMENTS.md)\n\n";
}

/// A bench's bounds live in the binary that computes the numbers: each
/// failed check prints `FAIL: <what> = <value> (want <bound>)` to stderr
/// and returns false, and main() returns exit_code(), non-zero if any
/// bound failed.
class Gate {
 public:
  template <typename T>
  bool check(bool ok, const std::string& what, const T& value,
             const std::string& bound) {
    if (!ok) {
      std::cerr << "FAIL: " << what << " = " << value << " (want " << bound
                << ")\n";
      failed_ = true;
    }
    return ok;
  }
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

}  // namespace acsel::bench
