// The offline stage end-to-end (paper Fig. 1, left column), the step an
// operator runs once per machine: exhaustively profile the training suite,
// cluster kernels by frontier similarity, fit per-cluster regressions,
// train the classification tree, and persist both the model and the raw
// profiling data to disk.
//
// Usage: characterize_machine [output_dir]   (default: current directory)
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/trainer.h"
#include "eval/characterize.h"
#include "exec/thread_pool.h"
#include "profile/profiler.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/suite.h"

int main(int argc, char** argv) {
  using namespace acsel;
  exec::init_threads_from_env();
  const std::string out_dir = argc > 1 ? argv[1] : ".";

  soc::Machine machine;
  const auto suite = workloads::Suite::standard();
  std::cout << "Characterizing " << suite.size()
            << " kernel instances across every configuration "
            << "(paper §IV-C: <2 h on hardware; seconds here)...\n";
  exec::ThreadPool pool{exec::default_threads()};
  const auto characterizations =
      eval::characterize(machine, suite, {}, pool);

  const auto [model, report] =
      core::train(characterizations, core::TrainerOptions{}, pool);

  TextTable table;
  table.set_header({"Cluster", "Kernels", "Power R2", "CPU perf R2",
                    "GPU perf R2"});
  for (std::size_t c = 0; c < model.cluster_count(); ++c) {
    table.add_row({
        std::to_string(c),
        std::to_string(report.cluster_sizes[c]),
        format_double(report.power_r2[c], 3),
        format_double(report.perf_cpu_r2[c], 3),
        format_double(report.perf_gpu_r2[c], 3),
    });
  }
  table.print(std::cout, "Per-cluster regression quality:");
  std::cout << "Silhouette: " << format_double(report.silhouette, 3)
            << ", tree training accuracy: "
            << format_double(100.0 * report.tree_training_accuracy, 3)
            << "%\n\nClassification tree:\n"
            << model.tree().describe() << '\n';

  const std::string model_path = out_dir + "/acsel_model.txt";
  model.save(model_path);
  std::cout << "Model saved to " << model_path << '\n';

  // Persist the raw profiling history as well (paper §III-D: records are
  // "written to disk after the application completes").
  profile::Profiler profiler{machine};
  const hw::ConfigSpace space;
  for (const auto& instance : suite.instances()) {
    profiler.run(instance, space.cpu_sample());
    profiler.run(instance, space.gpu_sample());
  }
  const std::string csv_path = out_dir + "/sample_profiles.csv";
  std::ofstream csv{csv_path};
  profiler.write_csv(csv);
  std::cout << "Sample-run profiles written to " << csv_path << " ("
            << profiler.size() << " records)\n";

  // Round-trip check: the persisted model must predict bitwise
  // identically for every training kernel.
  const core::PredictorPtr restored = core::load_predictor(model_path);
  std::size_t mismatches = 0;
  for (const auto& characterization : characterizations) {
    const auto a = model.predict(characterization.samples);
    const auto b = restored->predict(characterization.samples);
    const bool same =
        a.cluster == b.cluster && a.frontier.size() == b.frontier.size() &&
        a.per_config.size() == b.per_config.size() &&
        std::memcmp(a.per_config.data(), b.per_config.data(),
                    a.per_config.size() * sizeof(core::Estimate)) == 0;
    if (!same) {
      ++mismatches;
      std::cout << "Reload mismatch: " << characterization.instance_id
                << '\n';
    }
  }
  std::cout << "Reload check: " << characterizations.size() - mismatches
            << " of " << characterizations.size()
            << " kernels predict bitwise identically -> "
            << (mismatches == 0 ? "OK" : "MISMATCH") << '\n';
  return mismatches == 0 ? 0 : 1;
}
