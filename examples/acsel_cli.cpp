// acsel_cli — drive the library from the shell, the way an operator would
// on a real deployment:
//
//   acsel_cli characterize <profiles.csv>     profile the suite everywhere,
//                                             write the records to CSV
//   acsel_cli train <profiles.csv> <model>    train from profiled records
//   acsel_cli predict <model> <kernel-id>     two sample runs -> predicted
//                                             frontier for a kernel
//   acsel_cli schedule <model> <kernel-id> <cap_w> [goal]
//                                             predict and pick a
//                                             configuration (goal: perf,
//                                             energy, edp)
//   acsel_cli suite                           list the kernel instances
//
// The CSV and model files are the same formats the library uses
// everywhere (profile::Profiler::write_csv, core::Predictor::save).
// predict and schedule read the model with core::load_predictor, so they
// take a model file of either family (cluster-cart or gp-sqexp).
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "core/scheduler.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "hw/config_space.h"
#include "profile/profiler.h"
#include "util/error.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/table.h"
#include "workloads/suite.h"

namespace {

using namespace acsel;

int usage() {
  std::cerr <<
      "usage:\n"
      "  acsel_cli suite\n"
      "  acsel_cli characterize <profiles.csv>\n"
      "  acsel_cli train <profiles.csv> <model.txt>\n"
      "  acsel_cli predict <model.txt> <kernel-id>\n"
      "  acsel_cli schedule <model.txt> <kernel-id> <cap_w> [perf|energy|edp]\n"
      "options: --log-level=debug|info|warn|off (or ACSEL_LOG_LEVEL env)\n"
      "         --threads=N (or ACSEL_THREADS env; default: hardware)\n"
      "kernel-id example: LULESH-Small/CalcFBHourglassForce\n";
  return 2;
}

int cmd_suite() {
  const auto suite = workloads::Suite::standard();
  TextTable table;
  table.set_header({"Instance id", "Weight"});
  for (const auto& instance : suite.instances()) {
    table.add_row({instance.id(), format_double(instance.weight, 3)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_characterize(const std::string& csv_path) {
  const soc::Machine machine;
  const auto suite = workloads::Suite::standard();
  const hw::ConfigSpace space;
  exec::ThreadPool pool{exec::default_threads()};
  std::cout << "Profiling " << suite.size() << " instances x "
            << space.size() << " configurations on "
            << pool.concurrency() << " thread(s)...\n";

  // Each instance sweeps on its own cloned machine with its own profiler;
  // histories merge back in instance order, so the CSV is identical at
  // any thread count.
  const auto& instances = suite.instances();
  std::vector<soc::Machine> machines;
  machines.reserve(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    machines.push_back(machine.clone(i));
  }
  std::vector<std::optional<profile::Profiler>> profilers(instances.size());
  exec::parallel_for(pool, instances.size(), [&](std::size_t i) {
    profile::Profiler& task_profiler = profilers[i].emplace(machines[i]);
    for (std::size_t c = 0; c < space.size(); ++c) {
      task_profiler.run(instances[i], space.at(c));
    }
    // The two online-style sample runs round out each instance's data.
    task_profiler.run(instances[i], space.cpu_sample());
    task_profiler.run(instances[i], space.gpu_sample());
  });

  soc::Machine csv_machine;
  profile::Profiler profiler{csv_machine};
  for (const auto& task_profiler : profilers) {
    profiler.extend(*task_profiler);
  }
  std::ofstream out{csv_path, std::ios::binary};
  ACSEL_CHECK_MSG(out.good(), "cannot open for write: " + csv_path);
  profiler.write_csv(out);
  std::cout << "Wrote " << profiler.size() << " records to " << csv_path
            << '\n';
  return 0;
}

/// Rebuilds per-instance characterizations from a profile CSV.
std::vector<core::KernelCharacterization> characterizations_from_csv(
    const std::string& csv_path) {
  soc::Machine machine;  // only needed to construct a Profiler
  profile::Profiler profiler{machine};
  std::ifstream in{csv_path, std::ios::binary};
  ACSEL_CHECK_MSG(in.good(), "cannot open: " + csv_path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  profiler.load_csv(buffer.str());

  const hw::ConfigSpace space;
  const auto suite = workloads::Suite::standard();
  std::vector<core::KernelCharacterization> out;
  for (const auto& instance : suite.instances()) {
    const auto records = profiler.records_for(instance.id());
    if (records.empty()) {
      continue;  // CSV may cover a subset of the suite
    }
    core::KernelCharacterization c;
    c.instance_id = instance.id();
    c.benchmark = instance.benchmark;
    c.group = instance.benchmark_input();
    c.weight = instance.weight;
    c.per_config.resize(space.size());
    std::vector<bool> seen(space.size(), false);
    for (const auto& record : records) {
      if (const auto index = space.index_of(record.config)) {
        // Last record per configuration wins; the dedicated sample-run
        // records (appended last by `characterize`) double as samples.
        c.per_config[*index] = record;
        seen[*index] = true;
      }
    }
    for (const bool s : seen) {
      ACSEL_CHECK_MSG(s, "incomplete characterization for " + c.instance_id);
    }
    c.samples.cpu = c.per_config[space.cpu_sample_index()];
    c.samples.gpu = c.per_config[space.gpu_sample_index()];
    out.push_back(std::move(c));
  }
  ACSEL_CHECK_MSG(!out.empty(), "no usable instances in " + csv_path);
  return out;
}

int cmd_train(const std::string& csv_path, const std::string& model_path) {
  const auto characterizations = characterizations_from_csv(csv_path);
  exec::ThreadPool pool{exec::default_threads()};
  const auto [model, report] =
      core::train(characterizations, core::TrainerOptions{}, pool);
  model.save(model_path);
  std::cout << "Trained on " << characterizations.size()
            << " kernels; tree accuracy "
            << format_double(100.0 * report.tree_training_accuracy, 3)
            << "%; model saved to " << model_path << '\n';
  return 0;
}

core::SamplePair take_samples(soc::Machine& machine,
                              const workloads::WorkloadInstance& instance) {
  profile::Profiler profiler{machine};
  const hw::ConfigSpace space;
  core::SamplePair samples;
  samples.cpu = profiler.run(instance, space.cpu_sample());
  samples.gpu = profiler.run(instance, space.gpu_sample());
  return samples;
}

int cmd_predict(const std::string& model_path, const std::string& id) {
  const core::PredictorPtr model = core::load_predictor(model_path);
  const auto suite = workloads::Suite::standard();
  const auto& instance = suite.instance(id);
  soc::Machine machine;
  const auto prediction = model->predict(take_samples(machine, instance));

  const hw::ConfigSpace space;
  std::cout << id << " -> cluster " << prediction.cluster << '\n';
  TextTable table;
  table.set_header({"Configuration", "Pred. power (W)", "Pred. perf (1/s)"});
  for (const auto& point : prediction.frontier.points()) {
    table.add_row({space.at(point.config_index).to_string(),
                   format_double(point.power_w, 4),
                   format_double(point.performance, 4)});
  }
  table.print(std::cout, "Predicted Pareto frontier:");
  return 0;
}

int cmd_schedule(const std::string& model_path, const std::string& id,
                 const std::string& cap_text, const std::string& goal_text) {
  const std::map<std::string, core::SchedulingGoal> goals{
      {"perf", core::SchedulingGoal::MaxPerformance},
      {"energy", core::SchedulingGoal::MinEnergy},
      {"edp", core::SchedulingGoal::MinEnergyDelay},
  };
  const auto goal_it = goals.find(goal_text);
  if (goal_it == goals.end()) {
    return usage();
  }
  const double cap_w = parse_double(cap_text);

  const core::PredictorPtr model = core::load_predictor(model_path);
  const auto suite = workloads::Suite::standard();
  const auto& instance = suite.instance(id);
  soc::Machine machine;
  const auto prediction = model->predict(take_samples(machine, instance));
  const core::Scheduler scheduler{prediction};
  const auto choice = scheduler.select_goal(goal_it->second, cap_w);

  const hw::ConfigSpace space;
  const auto& config = space.at(choice.config_index);
  std::cout << "goal=" << to_string(goal_it->second) << " cap=" << cap_w
            << " W -> " << config.to_string() << '\n'
            << "predicted power " << format_double(choice.predicted_power_w, 4)
            << " W, predicted performance "
            << format_double(choice.predicted_performance, 4) << " 1/s"
            << (choice.predicted_feasible
                    ? ""
                    : "  [infeasible cap: lowest-power fallback]")
            << '\n';
  // Verify by running it.
  profile::Profiler profiler{machine};
  const auto& record = profiler.run(instance, config);
  std::cout << "measured power " << format_double(record.total_power_w(), 4)
            << " W, measured performance "
            << format_double(record.performance(), 4) << " 1/s\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    init_log_level_from_env();
    exec::init_threads_from_env();
    std::vector<std::string> args(argv + 1, argv + argc);
    std::erase_if(args, [](const std::string& arg) {
      return consume_log_level_flag(arg) || exec::consume_threads_flag(arg);
    });
    if (args.empty()) {
      return usage();
    }
    if (args[0] == "suite" && args.size() == 1) {
      return cmd_suite();
    }
    if (args[0] == "characterize" && args.size() == 2) {
      return cmd_characterize(args[1]);
    }
    if (args[0] == "train" && args.size() == 3) {
      return cmd_train(args[1], args[2]);
    }
    if (args[0] == "predict" && args.size() == 3) {
      return cmd_predict(args[1], args[2]);
    }
    if (args[0] == "schedule" && (args.size() == 4 || args.size() == 5)) {
      return cmd_schedule(args[1], args[2], args[3],
                          args.size() == 5 ? args[4] : "perf");
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
