// selbench: the selection-service benchmark.
//
//   selbench --workload <wire_1x1|cap_storm|fleet_4x3|gp_ucb> --seed <n>
//            --seconds <s> --trace <0|1> [--trace-dir <dir>]
//            [--corrupt-predictor]
//
// Each workload drives the public serving API with a closed-loop stream
// generated from --seed: fresh sample pairs of the suite's kernels (the
// LU kernels are held out of training) crossed with dc::TrafficOptions'
// default goal/cap mix, with caps stratified over each kernel's power
// range. Every answer is checked against serve::serve_with_model on the
// same model; a response that is not Ok, or whose version, configuration
// or predicted power/performance differ from that reference, counts as
// failed.
//
//   wire_1x1   serve::Client -> Server::serve_frame -> 1 worker, CART model
//   cap_storm  32-request storms (8 kernels x 4 caps/goals) through
//              Server::submit to 2 workers, max_batch 32, CART model
//   fleet_4x3  fleet::Fleet::select, 4 shards x 3 replicas, inline fan-out,
//              tick() every kTickEvery selections, CART model
//   gp_ucb     the wire_1x1 path serving a gp-sqexp model under
//              SelectionPolicy::upper_confidence(0.5)
//
// --trace 0 reports the end-to-end metrics with tracing off. setup_s is the
// median of several train + publish + start cycles; latency percentiles
// come from exact per-selection samples taken after a warm-up, and each
// timing is its mean over the fastest quarter of short slices (see
// Window::over_fast_slices). The process pins itself to one CPU (see
// pin_to_one_cpu).
//
// --trace 1 alternates untraced and traced windows over --seconds. The
// traced windows time the calls into each layer from this file only: a
// timing Transport around Server::serve_frame, a delegating Predictor
// published to the registry, the fleet's latency_model hook (which sees
// every replica call's wall time), and a replay of the scheduler walk on
// the captured prediction. It prints a per-layer ledger whose rows plus
// unattributed_ns add up to the traced end-to-end p50, and writes the
// first kTraceSelections selections as a Chrome/Perfetto trace.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/predictor.h"
#include "core/scheduler.h"
#include "core/trainer.h"
#include "eval/characterize.h"
#include "eval/oracle.h"
#include "fault/fault.h"
#include "fleet/fleet.h"
#include "hw/config_space.h"
#include "obs/trace.h"
#include "pareto/frontier.h"
#include "profile/profiler.h"
#include "serve/client.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "soc/machine.h"
#include "util/error.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace {

using namespace acsel;

constexpr std::uint64_t kMachineSeed = 90210;
constexpr std::size_t kStormKernels = 8;
constexpr std::size_t kStormCombos = 4;
/// Capped levels per goal; with the uncapped level, 3 x 5 = 15 strata.
constexpr std::size_t kCapLevels = 4;
constexpr std::size_t kStrata = 3 * (kCapLevels + 1);
constexpr std::size_t kTickEvery = 256;
constexpr std::size_t kTraceSelections = 2000;
constexpr double kWarmupSeconds = 0.3;

// ---------------------------------------------------------------- clocks

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Pins the process, and every thread it starts afterwards, to the last
/// CPU it may run on. On a shared virtual machine, handing a request to a
/// thread parked on an idle vCPU can cost milliseconds whenever the host is
/// busy; on one CPU every hand-off is a same-core context switch. The price:
/// the CPU is never idle, so cpu_us_per_sel is about 1e6 / sel_per_s, and
/// parallelism and cross-core wake-up go unmeasured.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    return false;
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      last = cpu;
    }
  }
  if (last < 0) {
    return false;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

// ------------------------------------------------------------- workloads

enum class Path { Wire, Storm, Fleet };

struct WorkloadSpec {
  std::string_view name;
  Path path;
  core::PredictorKind predictor;
  /// Distinct sample pairs (kernel + fresh sample runs) in the stream; a
  /// multiple of the suite's 65 instances, so every seed serves the same
  /// kernel mix.
  std::size_t sample_pairs;
  /// Set-up repetitions whose median is setup_s.
  int setups;
  /// Length of the slices the end-to-end metrics are taken over. gp_ucb's
  /// slices are long enough for a p99 of its ~100 selections a second, so
  /// each of its untraced processes (run.py gives it 5 s) times one slice,
  /// and only run.py's mean over processes smooths it.
  double slice_s;
  core::SchedulerOptions scheduler;
};

const WorkloadSpec* find_workload(std::string_view name) {
  static const std::vector<WorkloadSpec> specs = [] {
    core::SchedulerOptions ucb;
    ucb.policy = core::SelectionPolicy::upper_confidence(0.5);
    return std::vector<WorkloadSpec>{
        {"wire_1x1", Path::Wire, core::PredictorKind::ClusterCart, 8 * 65, 15,
         0.25, {}},
        {"cap_storm", Path::Storm, core::PredictorKind::ClusterCart, 8 * 65, 15,
         0.25, {}},
        {"fleet_4x3", Path::Fleet, core::PredictorKind::ClusterCart, 8 * 65, 15,
         0.25, {}},
        {"gp_ucb", Path::Wire, core::PredictorKind::GaussianProcess, 65, 7, 5.0,
         ucb},
    };
  }();
  for (const WorkloadSpec& spec : specs) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

// The simulated machine, the training set and the per-instance oracles are
// fixed; only the request stream depends on the seed.
struct World {
  soc::Machine machine{soc::MachineSpec{}, kMachineSeed};
  workloads::Suite suite = workloads::Suite::standard();
  std::vector<core::KernelCharacterization> training;
  std::vector<eval::Oracle> oracles;  // per suite instance
};

std::unique_ptr<World> make_world() {
  auto world = std::make_unique<World>();
  for (const auto& instance : world->suite.instances()) {
    world->oracles.push_back(eval::build_oracle(world->machine, instance));
    if (instance.benchmark != "LU") {
      world->training.push_back(
          eval::characterize_instance(world->machine, instance));
    }
  }
  return world;
}

struct Stream {
  std::vector<core::SamplePair> samples;
  std::vector<std::size_t> instance;  // suite index per sample pair
  std::vector<serve::SelectRequest> requests;
  std::vector<std::size_t> sample_of;  // sample pair per request
};

/// Request r = j * P + s pairs sample pair s with combination j, so
/// consecutive requests carry different sample pairs. Combination j of pair
/// s falls in stratum (j + s) % kStrata, so each pair meets every stratum
/// once. The mix is dc::TrafficOptions' default: goals uniform over the
/// three, four in five requests capped. Stratum k sets goal k % 3 and cap
/// level k / 3; level 4 is uncapped, and levels 0-3 place the cap in that
/// quarter of the kernel's true power range, so every kernel meets caps
/// across its range rather than dc's fixed pool of watt values.
Stream make_stream(const World& world, const WorkloadSpec& spec,
                   std::uint64_t seed) {
  Stream stream;
  Rng rng{Rng::mix_seeds(seed, 0x5e1bull)};
  soc::Machine machine = world.machine.clone(seed);
  profile::Profiler profiler{machine};
  const hw::ConfigSpace space;
  std::vector<std::size_t> order(world.suite.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  const std::size_t pairs = spec.sample_pairs;
  for (std::size_t s = 0; s < pairs; ++s) {
    const std::size_t index = order[s % order.size()];
    const auto& instance = world.suite.instances()[index];
    core::SamplePair samples;
    samples.cpu = profiler.run(instance, space.cpu_sample());
    samples.gpu = profiler.run(instance, space.gpu_sample());
    stream.samples.push_back(std::move(samples));
    stream.instance.push_back(index);
  }
  for (std::size_t j = 0; j < kStrata; ++j) {
    for (std::size_t s = 0; s < pairs; ++s) {
      const std::size_t stratum = (j + s) % kStrata;
      serve::SelectRequest request;
      request.request_id = stream.requests.size();
      request.samples = stream.samples[s];
      request.goal = static_cast<core::SchedulingGoal>(stratum % 3);
      const std::size_t level = stratum / 3;
      const double jitter = rng.uniform();
      if (level < kCapLevels) {
        const auto& points = world.oracles[stream.instance[s]].frontier.points();
        const double lo = points.front().power_w;
        const double hi = points.back().power_w;
        request.cap_w = lo + (static_cast<double>(level) + jitter) /
                                 static_cast<double>(kCapLevels) * (hi - lo);
      }
      stream.requests.push_back(std::move(request));
      stream.sample_of.push_back(s);
    }
  }
  return stream;
}

/// Storm k re-caps kernels (8k .. 8k+7) mod P, four combinations each,
/// submitted kernel by kernel.
std::size_t storm_request(const WorkloadSpec& spec, std::size_t storm,
                          std::size_t position) {
  const std::size_t pairs = spec.sample_pairs;
  const std::size_t s = (storm * kStormKernels + position / kStormCombos) %
                        pairs;
  const std::size_t j =
      (storm * kStormCombos + position % kStormCombos) % kStrata;
  return j * pairs + s;
}

// ------------------------------------------------------ predictor wrappers

class DelegatingPredictor : public core::Predictor {
 public:
  explicit DelegatingPredictor(core::PredictorPtr inner)
      : inner_(std::move(inner)) {}
  std::string_view kind() const override { return inner_->kind(); }
  std::size_t cluster_count() const override {
    return inner_->cluster_count();
  }
  const hw::ConfigSpace& config_space() const override {
    return inner_->config_space();
  }
  std::size_t classify(const core::SamplePair& samples) const override {
    return inner_->classify(samples);
  }
  core::Prediction predict(const core::SamplePair& samples) const override {
    return inner_->predict(samples);
  }
  std::string serialize_body() const override {
    return inner_->serialize_body();
  }

 protected:
  core::PredictorPtr inner_;
};

/// Answers predict() with one precomputed prediction, so the reference for
/// every (goal, cap) of a sample pair costs one model evaluation.
class FixedPrediction final : public DelegatingPredictor {
 public:
  FixedPrediction(core::PredictorPtr inner, const core::Prediction& prediction)
      : DelegatingPredictor(std::move(inner)), prediction_(&prediction) {}
  core::Prediction predict(const core::SamplePair&) const override {
    return *prediction_;
  }

 private:
  const core::Prediction* prediction_;
};

/// Counts and times every predict() call; remembers the last call's entry
/// and exit for the single-outstanding-request paths.
struct PredictProbe {
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> last_entry{0};
  std::atomic<std::uint64_t> last_exit{0};
};

class TimedPredictor final : public DelegatingPredictor {
 public:
  TimedPredictor(core::PredictorPtr inner, PredictProbe& probe)
      : DelegatingPredictor(std::move(inner)), probe_(&probe) {}
  core::Prediction predict(const core::SamplePair& samples) const override {
    const std::uint64_t entry = now_ns();
    core::Prediction prediction = inner_->predict(samples);
    const std::uint64_t exit = now_ns();
    probe_->busy_ns.fetch_add(exit - entry, std::memory_order_relaxed);
    probe_->last_entry.store(entry, std::memory_order_relaxed);
    probe_->last_exit.store(exit, std::memory_order_relaxed);
    probe_->calls.fetch_add(1, std::memory_order_release);
    return prediction;
  }

 private:
  PredictProbe* probe_;
};

/// Self-check fault: under-reports every configuration's power by 10%,
/// which moves predicted power on every answer and the chosen
/// configuration on many capped ones.
class CorruptPredictor final : public DelegatingPredictor {
 public:
  using DelegatingPredictor::DelegatingPredictor;
  core::Prediction predict(const core::SamplePair& samples) const override {
    core::Prediction prediction = inner_->predict(samples);
    std::vector<double> power;
    std::vector<double> performance;
    for (core::Estimate& estimate : prediction.per_config) {
      estimate.power_w *= 0.9;
      power.push_back(estimate.power_w);
      performance.push_back(estimate.performance);
    }
    prediction.frontier = pareto::ParetoFrontier::build(power, performance);
    return prediction;
  }
};

// ------------------------------------------------------ reference answers

struct Reference {
  std::vector<core::Prediction> predictions;  // per sample pair
  std::vector<serve::SelectResponse> answers;  // per request
};

Reference make_reference(const core::PredictorPtr& model,
                         std::uint64_t version, const Stream& stream,
                         const core::SchedulerOptions& scheduler) {
  Reference reference;
  for (const core::SamplePair& samples : stream.samples) {
    reference.predictions.push_back(model->predict(samples));
  }
  for (std::size_t r = 0; r < stream.requests.size(); ++r) {
    const FixedPrediction fixed{model,
                                reference.predictions[stream.sample_of[r]]};
    reference.answers.push_back(serve::serve_with_model(
        fixed, version, stream.requests[r], scheduler));
  }
  return reference;
}

bool matches(const serve::SelectResponse& got,
             const serve::SelectResponse& want) {
  return got.status == serve::ResponseStatus::Ok &&
         got.model_version == want.model_version &&
         got.config_index == want.config_index &&
         got.predicted_power_w == want.predicted_power_w &&
         got.predicted_performance == want.predicted_performance;
}

struct Quality {
  double oracle_perf_pct = 0.0;
  double cap_violation_pct = 0.0;
};

/// Scores the stream's reference answers — which every served answer must
/// equal — against the simulator's true power and performance.
Quality score(const World& world, const Stream& stream,
              const Reference& reference) {
  std::size_t capped = 0;
  std::size_t violations = 0;
  std::size_t max_perf = 0;
  double perf_ratio = 0.0;
  for (std::size_t r = 0; r < stream.requests.size(); ++r) {
    const serve::SelectRequest& request = stream.requests[r];
    if (!request.cap_w.has_value()) {
      continue;
    }
    const eval::Oracle& oracle =
        world.oracles[stream.instance[stream.sample_of[r]]];
    const std::size_t chosen = reference.answers[r].config_index;
    ++capped;
    if (oracle.power_w[chosen] > *request.cap_w) {
      ++violations;
    }
    if (request.goal == core::SchedulingGoal::MaxPerformance) {
      ++max_perf;
      perf_ratio += oracle.performance[chosen] /
                    oracle.best_under(*request.cap_w).performance;
    }
  }
  Quality quality;
  quality.oracle_perf_pct = 100.0 * perf_ratio / static_cast<double>(max_perf);
  quality.cap_violation_pct =
      100.0 * static_cast<double>(violations) / static_cast<double>(capped);
  return quality;
}

// ------------------------------------------------------------------ rigs

/// One serving set-up under test: a registry with the model published and
/// a started server (wire/storm) or fleet.
struct Rig {
  // Declaration order is teardown order reversed: clients and servers stop
  // before the registry they read goes away.
  std::unique_ptr<serve::ModelRegistry> registry;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::Client> client;
  std::unique_ptr<fleet::Fleet> fleet;
  std::uint64_t version = 0;
};

/// Raw timestamps of one call into the serving layer below the driver: a
/// transport call (wire), a replica call (fleet) or a submit (storm), with
/// the predict() it triggered (both at `begin` when it triggered none).
struct Hop {
  std::uint64_t begin = 0;
  std::uint64_t predict_entry = 0;
  std::uint64_t predict_exit = 0;
  std::uint64_t end = 0;
};

/// One traced selection.
struct Marks {
  std::size_t request = 0;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::size_t hops = 0;
  std::array<Hop, 3> hop{};
};

/// Tracing state shared with the hooks; all of it is written on the driver
/// thread (the probe's last_* are read after the response synchronizes).
struct Tracing {
  PredictProbe probe;
  Marks* current = nullptr;
  std::uint64_t replica_calls = 0;

  /// Records a finished call; `predicted` says whether the probe's last
  /// predict() ran inside it.
  void close_hop(std::uint64_t begin, std::uint64_t end, bool predicted) {
    if (current == nullptr || current->hops == current->hop.size()) {
      return;
    }
    Hop& hop = current->hop[current->hops++];
    hop.begin = begin;
    hop.end = end;
    hop.predict_entry = hop.predict_exit = begin;
    if (predicted) {
      hop.predict_entry = probe.last_entry.load(std::memory_order_relaxed);
      hop.predict_exit = probe.last_exit.load(std::memory_order_relaxed);
    }
  }
};

std::unique_ptr<Rig> start_rig(const WorkloadSpec& spec,
                               core::PredictorPtr model, Tracing* tracing) {
  auto rig = std::make_unique<Rig>();
  if (spec.path == Path::Fleet) {
    fleet::FleetOptions options;
    options.shards = 4;
    options.replicas = 3;
    options.executor = nullptr;
    options.server.scheduler = spec.scheduler;
    if (tracing != nullptr) {
      options.latency_model = [tracing](fleet::NodeId, std::uint64_t ns) {
        // Runs on the driver thread right after the replica call returns.
        const std::uint64_t end = now_ns();
        ++tracing->replica_calls;
        const std::uint64_t begin = end - ns;
        const std::uint64_t entry =
            tracing->probe.last_entry.load(std::memory_order_acquire);
        tracing->close_hop(begin, end, entry >= begin);
        return ns;
      };
    }
    rig->fleet = std::make_unique<fleet::Fleet>(options);
    rig->version = rig->fleet->publish(std::move(model));
    return rig;
  }
  rig->registry = std::make_unique<serve::ModelRegistry>();
  rig->version = rig->registry->publish(std::move(model));
  serve::ServerOptions options;
  options.workers = spec.path == Path::Storm ? 2 : 1;
  options.max_batch = 32;
  options.scheduler = spec.scheduler;
  rig->server = std::make_unique<serve::Server>(*rig->registry, options);
  if (spec.path == Path::Wire) {
    serve::Server* server = rig->server.get();
    serve::Transport transport;
    if (tracing == nullptr) {
      transport = [server](std::span<const std::uint8_t> frame) {
        return server->serve_frame(frame);
      };
    } else {
      transport = [server, tracing](std::span<const std::uint8_t> frame) {
        const std::uint64_t calls =
            tracing->probe.calls.load(std::memory_order_relaxed);
        const std::uint64_t begin = now_ns();
        std::vector<std::uint8_t> out = server->serve_frame(frame);
        tracing->close_hop(
            begin, now_ns(),
            tracing->probe.calls.load(std::memory_order_acquire) != calls);
        return out;
      };
    }
    rig->client = std::make_unique<serve::Client>(std::move(transport));
  }
  return rig;
}

// ------------------------------------------------------------ statistics

double percentile(std::vector<std::uint64_t> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  return static_cast<double>(values[index]);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// End-to-end figures of one slice of a window; the metrics are taken
/// over slices (Window::over_fast_slices).
struct SliceStats {
  std::size_t samples = 0;
  double rate = 0.0;  // correct selections per wall second
  double p50_us = 0.0;
  double p99_us = 0.0;
  double cpu_us = 0.0;  // process CPU time per selection
};

// --------------------------------------------------------------- driving

struct Window {
  /// Exact per-selection latencies: the current slice's, or — in a traced
  /// window — all of them.
  std::vector<std::uint64_t> latency_ns;
  std::vector<Marks> marks;  // traced windows only
  std::vector<SliceStats> slices;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void add(const Window& other) {
    latency_ns.insert(latency_ns.end(), other.latency_ns.begin(),
                      other.latency_ns.end());
    marks.insert(marks.end(), other.marks.begin(), other.marks.end());
    slices.insert(slices.end(), other.slices.begin(), other.slices.end());
    attempted += other.attempted;
    failed += other.failed;
  }

  std::size_t samples() const {
    std::size_t n = 0;
    for (const SliceStats& slice : slices) {
      n += slice.samples;
    }
    return n;
  }

  /// Mean over the fastest quarter of the slices, ranked by rate. On a
  /// shared virtual machine the CPU runs in two speed modes about 45% apart
  /// that switch every few seconds; the fastest slices give the program's
  /// speed while the host does not slow it, whatever share of the run the
  /// slow mode happened to cover.
  double over_fast_slices(double SliceStats::*field) const {
    std::vector<const SliceStats*> ranked;
    for (const SliceStats& slice : slices) {
      ranked.push_back(&slice);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const SliceStats* a, const SliceStats* b) {
                return a->rate > b->rate;
              });
    if (ranked.empty()) {
      return 0.0;
    }
    const std::size_t keep = std::max<std::size_t>(1, (ranked.size() + 2) / 4);
    double sum = 0.0;
    for (std::size_t i = 0; i < keep; ++i) {
      sum += ranked[i]->*field;
    }
    return sum / static_cast<double>(keep);
  }
};

struct Driver {
  const WorkloadSpec& spec;
  const Stream& stream;
  const Reference& reference;
  Rig& rig;
  Tracing* tracing = nullptr;
  std::size_t cursor = 0;  // next request (wire/fleet) or storm
  std::size_t since_tick = 0;

  void check(const serve::SelectResponse& got, std::size_t r, Window& w) {
    ++w.attempted;
    if (!matches(got, reference.answers[r])) {
      ++w.failed;
    }
  }

  /// Closed loop for `seconds`; records latencies when `record`.
  Window run(double seconds, bool record) {
    Window w;
    w.latency_ns.reserve(1u << 17);
    const std::uint64_t t0 = now_ns();
    const std::uint64_t deadline =
        t0 + static_cast<std::uint64_t>(seconds * 1e9);
    const auto slice_ns = static_cast<std::uint64_t>(spec.slice_s * 1e9);
    std::uint64_t t = t0;
    while (t < deadline) {
      // A slice starts after the previous one's statistics, so neither
      // its wall time nor its CPU time includes them.
      const std::size_t first = w.latency_ns.size();
      const std::uint64_t failed = w.failed;
      const double cpu0 = cpu_seconds();
      const std::uint64_t start = t = now_ns();
      const std::uint64_t slice_end = std::min(deadline, start + slice_ns);
      while (t < slice_end) {
        t = spec.path == Path::Storm ? storm(w, record) : single(w, record);
      }
      const double cpu_s = cpu_seconds() - cpu0;
      if (!record) {
        continue;
      }
      const std::vector<std::uint64_t> samples(
          w.latency_ns.begin() + static_cast<std::ptrdiff_t>(first),
          w.latency_ns.end());
      SliceStats slice;
      slice.samples = samples.size();
      const double n = static_cast<double>(samples.size());
      slice.rate = (n - static_cast<double>(w.failed - failed)) /
                   (static_cast<double>(t - start) * 1e-9);
      slice.p50_us = percentile(samples, 0.50) * 1e-3;
      slice.p99_us = percentile(samples, 0.99) * 1e-3;
      slice.cpu_us = cpu_s * 1e6 / n;
      w.slices.push_back(slice);
      if (tracing == nullptr) {
        w.latency_ns.clear();  // keeps the buffer: no growth across slices
      }
    }
    return w;
  }

  /// One wire or fleet selection; returns its end time.
  std::uint64_t single(Window& w, bool record) {
    const std::size_t r = cursor++ % stream.requests.size();
    const serve::SelectRequest& request = stream.requests[r];
    Marks marks;
    const bool traced = record && tracing != nullptr;
    if (traced) {
      marks.request = r;
      tracing->current = &marks;
    }
    const std::uint64_t start = now_ns();
    const serve::SelectResponse response = rig.fleet != nullptr
                                               ? rig.fleet->select(request)
                                               : rig.client->select(request);
    const std::uint64_t end = now_ns();
    check(response, r, w);
    if (record) {
      w.latency_ns.push_back(end - start);
    }
    if (traced) {
      tracing->current = nullptr;
      marks.start = start;
      marks.end = end;
      w.marks.push_back(marks);
    }
    if (rig.fleet != nullptr && ++since_tick == kTickEvery) {
      since_tick = 0;
      rig.fleet->tick();
    }
    return end;
  }

  /// One 32-request storm; per-selection latency runs from storm start to
  /// the moment the driver, waiting in submission order, sees the answer.
  std::uint64_t storm(Window& w, bool record) {
    constexpr std::size_t n = kStormKernels * kStormCombos;
    const std::size_t k = cursor++;
    std::array<std::size_t, n> index{};
    std::array<std::future<serve::SelectResponse>, n> futures;
    std::array<Hop, n> submit{};
    const bool traced = record && tracing != nullptr;
    const std::uint64_t start = now_ns();
    for (std::size_t p = 0; p < n; ++p) {
      index[p] = storm_request(spec, k, p);
      if (traced) {
        submit[p].begin = now_ns();
      }
      futures[p] = rig.server->submit(stream.requests[index[p]]);
      if (traced) {
        submit[p].end = now_ns();
      }
    }
    std::uint64_t end = start;
    for (std::size_t p = 0; p < n; ++p) {
      const serve::SelectResponse response = futures[p].get();
      end = now_ns();
      check(response, index[p], w);
      if (record) {
        w.latency_ns.push_back(end - start);
      }
      if (traced) {
        Marks marks;
        marks.request = index[p];
        marks.start = start;
        marks.end = end;
        marks.hops = 1;
        marks.hop[0] = submit[p];
        w.marks.push_back(marks);
      }
    }
    return end;
  }
};

/// Ordered name -> (value, unit) rows of the result line.
struct MetricRow {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<MetricRow>& rows) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + rows[i].name + "\": {\"value\": " +
            format_number(rows[i].value) + ", \"unit\": \"" + rows[i].unit +
            "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

// --------------------------------------------------------------- ledger

/// Per-selection layer times of a traced window, as named ledger rows.
struct Ledger {
  std::vector<MetricRow> rows;    // additive: rows + unattributed = p50
  std::vector<MetricRow> extras;  // the remaining per-layer metrics
};

enum Layer : std::size_t {
  kClientOwn,
  kSubmit,
  kFleetOwn,
  kWait,
  kPredict,
  kWalk,
  kTail,
  kServeFrame,
  kReplicaCall,
  kLayers
};

constexpr std::array<const char*, kLayers> kLayerNames = {
    "client.own_ns",      "server.submit_ns",      "fleet.own_ns",
    "server.wait_ns",     "predictor.predict_ns",  "scheduler.select_ns",
    "server.tail_ns",     "server.serve_frame_ns", "fleet.replica_call_ns"};

/// The layers whose rows add up to a selection's end-to-end time.
std::vector<Layer> ledger_rows(Path path) {
  switch (path) {
    case Path::Wire:
      return {kClientOwn, kWait, kPredict, kWalk, kTail};
    case Path::Fleet:
      return {kFleetOwn, kWait, kPredict, kWalk, kTail};
    case Path::Storm:
      return {kSubmit, kWait};
  }
  return {};
}

/// One traced selection split into layers (ns).
std::array<double, kLayers> split(Path path, const Marks& m, double walk_ns) {
  std::array<double, kLayers> v{};
  const double e2e = static_cast<double>(m.end - m.start);
  if (path == Path::Storm) {
    v[kSubmit] = static_cast<double>(m.hop[0].end - m.start);
    v[kWait] = static_cast<double>(m.end - m.hop[0].end);
    return v;
  }
  double calls_ns = 0.0;
  for (std::size_t h = 0; h < m.hops; ++h) {
    const Hop& hop = m.hop[h];
    calls_ns += static_cast<double>(hop.end - hop.begin);
    v[kWait] += static_cast<double>(hop.predict_entry - hop.begin);
    v[kPredict] += static_cast<double>(hop.predict_exit - hop.predict_entry);
    // The walk runs between predict exit and the end of the call.
    v[kTail] += static_cast<double>(hop.end - hop.predict_exit) - walk_ns;
    v[kWalk] += walk_ns;
  }
  if (path == Path::Wire) {
    v[kClientOwn] = e2e - calls_ns;
    v[kServeFrame] = calls_ns;
  } else {
    v[kFleetOwn] = e2e - calls_ns;
    v[kReplicaCall] = calls_ns / static_cast<double>(std::max<std::size_t>(m.hops, 1));
  }
  return v;
}

Ledger build_ledger(const WorkloadSpec& spec, const Stream& stream,
                    const Reference& reference, const Window& traced,
                    const Tracing& tracing, double batch_mean) {
  // Replay the scheduler walk of every traced selection on its prediction.
  std::vector<double> walk_ns(traced.marks.size());
  for (std::size_t i = 0; i < traced.marks.size(); ++i) {
    const std::size_t r = traced.marks[i].request;
    const serve::SelectRequest& request = stream.requests[r];
    const core::Prediction& prediction =
        reference.predictions[stream.sample_of[r]];
    const std::uint64_t begin = now_ns();
    const core::Scheduler walker{prediction, spec.scheduler};
    const core::Scheduler::Choice choice =
        walker.select_goal(request.goal, request.cap_w);
    walk_ns[i] = static_cast<double>(now_ns() - begin);
    if (choice.config_index != reference.answers[r].config_index) {
      throw Error("scheduler replay disagrees with the reference answer");
    }
  }

  // Rows are averaged over the typical selections: those whose end-to-end
  // time lies between the traced p40 and p60.
  const double p40 = percentile(traced.latency_ns, 0.40);
  const double p50 = percentile(traced.latency_ns, 0.50);
  const double p60 = percentile(traced.latency_ns, 0.60);
  std::array<double, kLayers> mean{};
  std::size_t band = 0;
  for (std::size_t i = 0; i < traced.marks.size(); ++i) {
    const Marks& m = traced.marks[i];
    const double e2e = static_cast<double>(m.end - m.start);
    if (e2e < p40 || e2e > p60) {
      continue;
    }
    ++band;
    const std::array<double, kLayers> v = split(spec.path, m, walk_ns[i]);
    for (std::size_t l = 0; l < kLayers; ++l) {
      mean[l] += v[l];
    }
  }
  for (double& value : mean) {
    value /= static_cast<double>(std::max<std::size_t>(band, 1));
  }
  const double selections = static_cast<double>(traced.latency_ns.size());
  if (spec.path == Path::Storm) {
    // Workers predict and walk alongside the storm; their work per
    // selection is reported beside the (submit, wait) ledger.
    mean[kPredict] =
        static_cast<double>(tracing.probe.busy_ns.load()) / selections;
    mean[kWalk] = std::accumulate(walk_ns.begin(), walk_ns.end(), 0.0) /
                  static_cast<double>(walk_ns.size());
  }

  Ledger ledger;
  const std::vector<Layer> rows = ledger_rows(spec.path);
  double attributed = 0.0;
  for (std::size_t l = 0; l < kLayers; ++l) {
    const bool is_row = std::find(rows.begin(), rows.end(), l) != rows.end();
    (is_row ? ledger.rows : ledger.extras)
        .push_back({kLayerNames[l], mean[l], "ns"});
    attributed += is_row ? mean[l] : 0.0;
  }
  ledger.rows.push_back({"unattributed_ns", p50 - attributed, "ns"});
  ledger.extras.push_back(
      {"predictor.calls_per_sel",
       static_cast<double>(tracing.probe.calls.load()) / selections, "ratio"});
  ledger.extras.push_back({"server.batch_mean", batch_mean, "count"});
  ledger.extras.push_back(
      {"fleet.replica_calls_per_sel",
       static_cast<double>(tracing.replica_calls) / selections, "ratio"});
  return ledger;
}

void write_trace(const std::string& path, const Window& traced,
                 Path workload_path) {
  std::ofstream out{path};
  if (!out) {
    std::cerr << "selbench: cannot write " << path << "\n";
    return;
  }
  const std::size_t n = std::min(traced.marks.size(), kTraceSelections);
  const std::uint64_t epoch = n > 0 ? traced.marks.front().start : 0;
  std::uint64_t span_id = 0;
  out << "{\"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const char* name, std::uint64_t begin,
                        std::uint64_t end, int tid, std::uint64_t trace,
                        std::uint64_t parent) {
    obs::TraceEvent event;
    event.name = name;
    event.category = "selbench";
    event.type = obs::TraceEventType::Complete;
    event.ts_ns = begin - epoch;
    event.dur_ns = end > begin ? end - begin : 0;
    event.tid = tid;
    event.trace_id = trace;
    event.span_id = ++span_id;
    event.parent_id = parent;
    out << (first ? "\n  " : ",\n  ");
    obs::write_trace_event_json(event, 1, out);
    first = false;
    return event.span_id;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const Marks& m = traced.marks[i];
    const std::uint64_t trace = i + 1;
    const char* root = workload_path == Path::Fleet   ? "fleet.select"
                       : workload_path == Path::Storm ? "storm.selection"
                                                      : "client.select";
    const std::uint64_t root_id = emit(root, m.start, m.end, 1, trace, 0);
    for (std::size_t h = 0; h < m.hops; ++h) {
      const Hop& hop = m.hop[h];
      if (workload_path == Path::Storm) {
        emit("server.submit", hop.begin, hop.end, 1, trace, root_id);
        emit("server.wait", hop.end, m.end, 1, trace, root_id);
        continue;
      }
      const std::uint64_t call =
          emit(workload_path == Path::Fleet ? "fleet.replica_call"
                                            : "server.serve_frame",
               hop.begin, hop.end, 1, trace, root_id);
      emit("server.wait", hop.begin, hop.predict_entry, 1, trace, call);
      emit("predictor.predict", hop.predict_entry, hop.predict_exit, 2, trace,
           call);
      emit("server.tail", hop.predict_exit, hop.end, 1, trace, call);
    }
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_dir = ".";
  bool corrupt = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--corrupt-predictor") {
      args.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = std::stoi(value);
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload || args.seconds <= 0.0 ||
      (args.trace != 0 && args.trace != 1)) {
    return std::nullopt;
  }
  return args;
}

core::PredictorPtr train(const World& world, const WorkloadSpec& spec) {
  core::TrainerOptions options;
  options.predictor = spec.predictor;
  options.gp_max_rows = 256;
  return core::train_predictor(world.training, options).predictor;
}

bool tracing_is_off() {
  if (obs::Tracer::global().enabled()) {
    std::cerr << "selbench: refusing to time an untraced window with the "
                 "obs tracer enabled\n";
    return false;
  }
  return true;
}

void print_row(const MetricRow& row) {
  std::printf("  %-28s %14.4f %s\n", row.name.c_str(), row.value,
              row.unit.c_str());
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) {
    std::cerr << "selbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  // Timed numbers are a clean baseline: any ACSEL_FAULTS value, even one
  // that arms nothing, is refused rather than silently measured.
  const char* faults = std::getenv("ACSEL_FAULTS");
  fault::init_from_env();
  if ((faults != nullptr && *faults != '\0') ||
      fault::Injector::global().any_armed()) {
    std::cerr << "selbench: ACSEL_FAULTS is set or a fault site is armed; "
                 "refusing to publish chaos numbers as a baseline\n";
    return 3;
  }

  if (!pin_to_one_cpu()) {
    std::cerr << "selbench: cannot pin to one CPU\n";
    return 3;
  }
  const std::unique_ptr<World> world = make_world();
  const Stream stream = make_stream(*world, *spec, args.seed);

  // Set-up: train + publish + start, repeated; the last rig serves.
  std::vector<double> setup_times;
  core::PredictorPtr model;
  std::unique_ptr<Rig> rig;
  const int setups = args.trace == 0 ? spec->setups : 1;
  for (int i = 0; i < setups; ++i) {
    rig.reset();  // the previous rig stops outside the timed interval
    const std::uint64_t begin = now_ns();
    model = train(*world, *spec);
    core::PredictorPtr served =
        args.corrupt ? std::make_shared<CorruptPredictor>(model) : model;
    rig = start_rig(*spec, std::move(served), nullptr);
    setup_times.push_back(static_cast<double>(now_ns() - begin) * 1e-9);
  }
  const Reference reference =
      make_reference(model, rig->version, stream, spec->scheduler);
  const Quality quality = score(*world, stream, reference);

  if (!tracing_is_off()) {
    return 3;
  }
  Driver driver{*spec, stream, reference, *rig};
  Window checked = driver.run(kWarmupSeconds, false);

  // The traced rig serves the same model through the timing wrappers.
  // Untraced and traced windows alternate, so drift hits both alike.
  Tracing tracing;
  std::unique_ptr<Rig> traced_rig;
  std::optional<Driver> traced_driver;
  if (args.trace == 1) {
    traced_rig = start_rig(
        *spec, std::make_shared<TimedPredictor>(model, tracing.probe),
        &tracing);
    traced_driver.emplace(
        Driver{*spec, stream, reference, *traced_rig, &tracing});
    checked.add(traced_driver->run(kWarmupSeconds, false));
    tracing.probe.calls = 0;
    tracing.probe.busy_ns = 0;
    tracing.replica_calls = 0;
    if (traced_rig->server != nullptr) {
      traced_rig->server->reset_metrics();
    }
  }
  const int rounds = args.trace == 0 ? 1 : 2;
  const double window_s = args.seconds / (rounds * (1 + args.trace));
  Window timed;
  Window traced;
  for (int round = 0; round < rounds; ++round) {
    if (!tracing_is_off()) {
      return 3;
    }
    timed.add(driver.run(window_s, true));
    if (traced_driver) {
      traced.add(traced_driver->run(window_s, true));
    }
  }
  checked.add(timed);
  checked.add(traced);
  const double batch_mean =
      traced_rig != nullptr && traced_rig->server != nullptr
          ? traced_rig->server->metrics_snapshot().mean_batch
          : 0.0;
  traced_rig.reset();
  rig.reset();

  std::printf("selbench %s seed=%llu seconds=%g trace=%d\n",
              std::string(spec->name).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  const std::size_t per_slice =
      timed.samples() / std::max<std::size_t>(timed.slices.size(), 1);
  std::printf("  stream: %zu requests over %zu sample pairs; %zu timed "
              "selections in %zu slices of %.2f s; metrics are means over "
              "the fastest quarter of the slices (%zu samples a slice, %zu "
              "above its p99)\n",
              stream.requests.size(), stream.samples.size(), timed.samples(),
              timed.slices.size(), spec->slice_s, per_slice, per_slice / 100);
  std::vector<MetricRow> end_to_end = {
      {"sel_per_s", timed.over_fast_slices(&SliceStats::rate), "1/s"},
      {"p50_us", timed.over_fast_slices(&SliceStats::p50_us), "us"},
      {"p99_us", timed.over_fast_slices(&SliceStats::p99_us), "us"},
      {"setup_s", median(setup_times), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"cpu_us_per_sel", timed.over_fast_slices(&SliceStats::cpu_us), "us"},
      {"oracle_perf_pct", quality.oracle_perf_pct, "%"},
      {"cap_violation_pct", quality.cap_violation_pct, "%"},
  };
  std::printf(" end-to-end (untraced):\n");
  for (const MetricRow& row : end_to_end) {
    print_row(row);
  }

  std::vector<MetricRow> per_layer;
  if (args.trace == 1) {
    const double traced_p50 = percentile(traced.latency_ns, 0.50);
    const Ledger ledger =
        build_ledger(*spec, stream, reference, traced, tracing, batch_mean);
    std::printf(" per-layer ledger (traced, %zu selections; rows + "
                "unattributed = traced p50 %.1f ns):\n",
                traced.latency_ns.size(), traced_p50);
    double total = 0.0;
    for (const MetricRow& row : ledger.rows) {
      print_row(row);
      total += row.value;
    }
    std::printf("  %-28s %14.4f ns\n", "= sum", total);
    std::printf(" other per-layer metrics:\n");
    for (const MetricRow& row : ledger.extras) {
      print_row(row);
    }
    const MetricRow overhead{
        "trace.overhead_pct",
        100.0 * (traced.over_fast_slices(&SliceStats::p50_us) /
                     timed.over_fast_slices(&SliceStats::p50_us) -
                 1.0),
        "%"};
    print_row(overhead);
    per_layer = ledger.rows;
    per_layer.insert(per_layer.end(), ledger.extras.begin(),
                     ledger.extras.end());
    per_layer.push_back(overhead);

    std::filesystem::create_directories(args.trace_dir);
    const std::string trace_path =
        args.trace_dir + "/" + std::string(spec->name) + "_trace.json";
    write_trace(trace_path, traced, spec->path);
    std::printf(" trace: %s (first %zu selections)\n", trace_path.c_str(),
                std::min(traced.marks.size(), kTraceSelections));
  }

  const std::uint64_t attempted = checked.attempted;
  const std::uint64_t failed = checked.failed;
  std::printf(" answers checked against the reference: %llu attempted, "
              "%llu succeeded, %llu failed\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(attempted - failed),
              static_cast<unsigned long long>(failed));
  const bool correct = failed == 0 && attempted > 0;
  print_result(correct, attempted, failed,
               args.trace == 0 ? end_to_end : per_layer);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::optional<Args> args = parse_args(argc, argv);
    if (!args) {
      std::cerr << "usage: selbench --workload <wire_1x1|cap_storm|"
                   "fleet_4x3|gp_ucb> --seed <n> --seconds <s> --trace <0|1> "
                   "[--trace-dir <dir>] [--corrupt-predictor]\n";
      return 2;
    }
    return run(*args);
  } catch (const std::exception& error) {
    std::cerr << "selbench: " << error.what() << "\n";
    return 1;
  }
}
