// §IV-C overhead microbenchmarks (google-benchmark):
//  * online configuration selection must take well under one millisecond
//    ("requires less than one millisecond to make each configuration
//    selection", §II-A);
//  * tree classification costs on the order of the tree depth;
//  * model application is a matrix-vector product over the configuration
//    space;
//  * offline model construction is minutes at most (paper: ~10 minutes in
//    R; here it is milliseconds in C++).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bench_common.h"
#include "core/gp_model.h"
#include "core/scheduler.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "pareto/dissimilarity.h"
#include "stats/kendall.h"
#include "util/rng.h"

namespace {

using namespace acsel;

/// Shared offline state, built once: a characterized suite and a trained
/// model (the benchmarks below measure the *online* costs).
struct Offline {
  std::vector<core::KernelCharacterization> characterizations;
  core::TrainedModel model;
  core::PredictorPtr gp;
  core::Prediction prediction;

  Offline() {
    soc::Machine machine = bench::make_machine();
    const auto suite = workloads::Suite::standard();
    characterizations = eval::characterize(machine, suite);
    model = core::train(characterizations).model;
    core::TrainerOptions gp_options;
    gp_options.predictor = core::PredictorKind::GaussianProcess;
    gp_options.gp_max_rows = 256;
    gp = core::train_predictor(characterizations, gp_options).predictor;
    prediction = model.predict(characterizations.front().samples);
  }
};

const Offline& offline() {
  static const Offline state;
  return state;
}

void BM_OnlinePredictionFullPipeline(benchmark::State& state) {
  // Classify + predict all 54 configurations + build predicted frontier:
  // the entire per-kernel online cost after its two sample iterations.
  const auto& samples = offline().characterizations[7].samples;
  for (auto _ : state) {
    benchmark::DoNotOptimize(offline().model.predict(samples));
  }
}
BENCHMARK(BM_OnlinePredictionFullPipeline);

void BM_GpPredictionFullPipeline(benchmark::State& state) {
  // The same online pipeline under the gp-sqexp predictor: 2n tail
  // factors, the 54 power means as one 54 × n table times a vector (n up
  // to 256 training rows), the tabulated performance posteriors, and
  // power variances solved at the frontier configurations only.
  const auto& samples = offline().characterizations[7].samples;
  for (auto _ : state) {
    benchmark::DoNotOptimize(offline().gp->predict(samples));
  }
}
BENCHMARK(BM_GpPredictionFullPipeline);

void BM_GpPredictionSuite(benchmark::State& state) {
  // One gp-sqexp prediction per suite kernel per iteration. The power
  // variance is solved only at frontier configurations, whose count
  // differs by kernel, so one kernel alone does not show the cost.
  const auto& characterizations = offline().characterizations;
  for (auto _ : state) {
    for (const auto& c : characterizations) {
      benchmark::DoNotOptimize(offline().gp->predict(c.samples));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(characterizations.size()));
}
BENCHMARK(BM_GpPredictionSuite);

void BM_GpPredictorBuild(benchmark::State& state) {
  // The gp-sqexp constructor alone, as train_predictor() and
  // parse_predictor() run it on fitted GPs: per cluster, the power GP's
  // head factors (54 · n exp calls) and the performance posteriors. Copying
  // its input and freeing the previous predictor are not timed.
  const auto& gp = dynamic_cast<const core::GpPredictor&>(*offline().gp);
  std::vector<core::GpPredictor::Trio> clusters;
  for (std::size_t c = 0; c < gp.cluster_count(); ++c) {
    clusters.push_back(gp.cluster(c));
  }
  std::optional<core::GpPredictor> built;
  for (auto _ : state) {
    state.PauseTiming();
    built.reset();
    std::vector<core::GpPredictor::Trio> input = clusters;
    stats::Cart tree = gp.tree();
    state.ResumeTiming();
    built.emplace(std::move(input), std::move(tree));
    benchmark::DoNotOptimize(*built);
  }
}
BENCHMARK(BM_GpPredictorBuild);

void BM_GpRegressorFit(benchmark::State& state) {
  // One offline GP fit at the trainer's row cap: 256 rows of 12 features
  // (the power GP's shape) under the default hyperparameters. The
  // kernel matrix's Cholesky factorization is most of it.
  constexpr std::size_t kRows = 256;
  constexpr std::size_t kFeatures = 12;
  Rng rng{11};
  linalg::Matrix x{kRows, kFeatures};
  std::vector<double> y(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    double sum = 0.0;
    for (std::size_t c = 0; c < kFeatures; ++c) {
      x(r, c) = rng.uniform();
      sum += x(r, c);
    }
    y[r] = sum + rng.normal(0.0, 0.1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::GpRegressor::fit(x, y));
  }
}
BENCHMARK(BM_GpRegressorFit);

void BM_TreeClassification(benchmark::State& state) {
  const auto& samples = offline().characterizations[3].samples;
  for (auto _ : state) {
    benchmark::DoNotOptimize(offline().model.classify(samples));
  }
}
BENCHMARK(BM_TreeClassification);

void BM_SchedulerSelect(benchmark::State& state) {
  // Re-selection under a changed power cap: walking the retained
  // predicted frontier (dynamic constraints, §III-C).
  const core::Scheduler scheduler{offline().prediction};
  double cap = 12.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.select(cap));
    cap = cap >= 40.0 ? 12.0 : cap + 0.5;
  }
}
BENCHMARK(BM_SchedulerSelect);

void BM_ParetoFrontierBuild(benchmark::State& state) {
  const auto& c = offline().characterizations[0];
  const auto power = c.powers();
  const auto perf = c.performances();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pareto::ParetoFrontier::build(power, perf));
  }
}
BENCHMARK(BM_ParetoFrontierBuild);

void BM_FrontierDissimilarity(benchmark::State& state) {
  const auto a = offline().characterizations[0].frontier();
  const auto b = offline().characterizations[20].frontier();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pareto::frontier_dissimilarity(a, b));
  }
}
BENCHMARK(BM_FrontierDissimilarity);

void BM_KendallTau(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng{42};
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 1.0);
    y[i] = rng.uniform(0.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::kendall_tau_fast(x, y));
  }
}
BENCHMARK(BM_KendallTau)->Arg(16)->Arg(64)->Arg(256);

void BM_OfflineTraining(benchmark::State& state) {
  // Full offline stage on the 65-kernel characterization: clustering,
  // regressions, tree. Paper: "about ten minutes" in R; the point here is
  // that it is utterly dominated by data collection, not model fitting.
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::train(offline().characterizations));
  }
}
BENCHMARK(BM_OfflineTraining)->Unit(benchmark::kMillisecond);

void BM_ProfilingRecordOverhead(benchmark::State& state) {
  // §IV-C: recording counters and power at kernel start/finish adds less
  // than 50 us on the real system; here it is the record-assembly cost.
  soc::Machine machine = bench::make_machine();
  const auto suite = workloads::Suite::standard();
  const auto& instance = suite.instances().front();
  const hw::ConfigSpace space;
  const auto steady =
      machine.analytic(instance.traits, space.cpu_sample());
  for (auto _ : state) {
    benchmark::DoNotOptimize(soc::synthesize_counters(
        machine.spec(), instance.traits, space.cpu_sample(), steady));
  }
}
BENCHMARK(BM_ProfilingRecordOverhead);

}  // namespace

BENCHMARK_MAIN();
