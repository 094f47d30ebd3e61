// The adapt control loop: residuals → drift → retrain → canary →
// publish/rollback. One AdaptController owns the whole cycle:
//
//   * observe() streams signed prediction residuals into per-cluster
//     drift detectors and labelled samples into the reservoir;
//   * a fired detector schedules a background retrain on the exec
//     executor over reservoir ∪ seed data — serving never pauses;
//   * the retrained candidate is canaried against the incumbent on live
//     labelled traffic (and shadow-predicts served requests for failure
//     detection); only a by-margin winner is promoted to the registry;
//   * post-promotion, a probation window watches live error and rolls
//     back automatically if the canary's promise is broken.
//
// The controller is serve::AdaptSink, so a serve::Server forwards wire
// feedback and offers served requests for shadowing; built over the
// server's stats registry, its adapt.* rows ride the server's stats
// scrapes. It is equally usable without a server — the
// online runtime's feedback hook calls observe() directly.
//
// Determinism: given the same sequence of observe()/on_served() calls and
// the same options, every decision (reservoir contents, canary sampling,
// verdicts, promotions) is bitwise-identical at any thread count. The
// only asynchrony is *when* a retrain finishes; wait_for_retrain() is the
// synchronization point deterministic callers use.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "adapt/canary.h"
#include "adapt/drift.h"
#include "adapt/promoter.h"
#include "adapt/reservoir.h"
#include "core/characterization.h"
#include "core/scheduler.h"
#include "core/trainer.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "serve/message.h"
#include "serve/registry.h"

namespace acsel::adapt {

/// One observation of the loop: what the model predicted for a kernel,
/// what was then measured, and (when available) the kernel's full
/// characterization as a training label.
struct Feedback {
  core::SamplePair samples;
  double predicted_power_w = 0.0;
  double predicted_performance = 0.0;
  double measured_power_w = 0.0;
  double measured_performance = 0.0;
  /// Cap the selection was made under; nullopt = unconstrained.
  std::optional<double> cap_w;
  /// Full ground truth, when the caller has it (simulation, offline
  /// characterization sweeps). Feeds the reservoir, the canary, and the
  /// probation window; residual-only feedback still drives drift.
  std::optional<core::KernelCharacterization> label;
};

struct AdaptOptions {
  DriftDetector::Options drift;
  ReservoirOptions reservoir;
  CanaryOptions canary;
  PromoterOptions promoter;
  core::TrainerOptions trainer;
  core::SchedulerOptions scheduler;
  /// Goal canary/probation selections are judged under.
  core::SchedulingGoal goal = core::SchedulingGoal::MaxPerformance;
  /// Metric registry for adapt.* rows; nullptr = obs::Registry::global().
  /// A controller attached as a server's adapt sink passes
  /// &server.stats_registry(), so its rows ride the server's stats scrape.
  obs::Registry* metrics = nullptr;
};

/// In-process snapshot of the loop's state. The same figures are
/// published as adapt.* rows in the controller's metric registry, which
/// is how they reach a wire stats scrape.
struct AdaptStats {
  bool canary_active = false;
  bool retrain_inflight = false;
  /// Highest drift score across cluster detectors (1.0 = firing boundary).
  double max_drift_score = 0.0;
  std::uint64_t observations = 0;
  std::uint64_t rejected_residuals = 0;
  std::uint64_t drift_events = 0;
  std::uint64_t retrains = 0;
  std::uint64_t retrain_failures = 0;
  std::uint64_t reservoir_size = 0;
  std::uint64_t canary_evals = 0;
  std::uint64_t shadow_evals = 0;
  std::uint64_t canary_accepted = 0;
  std::uint64_t canary_rejected = 0;
  std::uint64_t promotions = 0;
  std::uint64_t rollbacks = 0;

  bool operator==(const AdaptStats&) const = default;
};

class AdaptController final : public serve::AdaptSink {
 public:
  /// `registry` and `executor` must outlive the controller. `seed_data`
  /// is the offline training set retrains fall back on — a retrain sees
  /// seed ∪ reservoir, so a drifted workload refines the model without
  /// catastrophic forgetting of the original distribution.
  AdaptController(serve::ModelRegistry& registry, exec::Executor& executor,
                  std::vector<core::KernelCharacterization> seed_data,
                  const AdaptOptions& options = {});

  /// Waits for any in-flight retrain.
  ~AdaptController() override;

  AdaptController(const AdaptController&) = delete;
  AdaptController& operator=(const AdaptController&) = delete;

  /// Feeds one observation through the whole loop. Thread-safe.
  void observe(const Feedback& feedback);

  /// Starts a canary for `candidate` against the registry's current
  /// model — the operator's (and the tests') injection point; the loop
  /// itself calls this internally for retrained candidates. Throws when
  /// no model is published or a canary is already running.
  void begin_canary(core::PredictorPtr candidate);

  /// Blocks until no retrain is in flight, stealing executor work while
  /// waiting (so a worker-less executor still finishes). The
  /// synchronization point that makes end-to-end runs deterministic.
  void wait_for_retrain();

  bool retrain_inflight() const {
    return retrain_inflight_.load(std::memory_order_acquire);
  }
  bool canary_active() const;
  std::size_t reservoir_size() const;
  /// Consistent snapshot of every counter and state flag.
  AdaptStats adapt_stats() const;

  // -- serve::AdaptSink ---------------------------------------------------
  void on_feedback(const serve::FeedbackRequest& feedback) override;
  bool on_served(const serve::SelectRequest& request,
                 const serve::SelectResponse& response) override;

 private:
  /// Power + performance detectors for one kernel cluster.
  struct ClusterState {
    std::unique_ptr<DriftDetector> power;
    std::unique_ptr<DriftDetector> performance;
    obs::Gauge* score_gauge = nullptr;
  };

  void maybe_start_canary_locked();
  void finish_canary_locked();
  /// Returns the retrain data set when a retrain should start, nullptr
  /// otherwise. The caller submits the job *after* releasing mu_ (the
  /// executor may decline and run it inline, and run_retrain re-takes
  /// mu_ to park its result).
  std::shared_ptr<std::vector<core::KernelCharacterization>>
  maybe_schedule_retrain_locked();
  void run_retrain(std::shared_ptr<std::vector<core::KernelCharacterization>>
                       data);
  void reset_detectors_locked();
  double max_drift_score_locked() const;

  serve::ModelRegistry* registry_;
  exec::Executor* executor_;
  std::vector<core::KernelCharacterization> seed_data_;
  AdaptOptions options_;
  Promoter promoter_;
  obs::Registry* metrics_;
  obs::Counter* observations_counter_;
  obs::Counter* rejected_counter_;
  obs::Counter* drift_events_counter_;
  obs::Counter* retrains_counter_;
  obs::Counter* retrain_failures_counter_;
  obs::Counter* canary_evals_counter_;
  obs::Counter* shadow_evals_counter_;
  obs::Counter* canary_accepted_counter_;
  obs::Counter* canary_rejected_counter_;
  obs::Counter* promotions_counter_;
  obs::Counter* rollbacks_counter_;
  obs::Gauge* max_score_gauge_;
  obs::Gauge* canary_active_gauge_;
  obs::Gauge* retrain_inflight_gauge_;
  obs::Gauge* reservoir_size_gauge_;
  obs::Histogram* retrain_histogram_;

  mutable std::mutex mu_;
  std::map<std::size_t, ClusterState> clusters_;
  SampleReservoir reservoir_;
  std::unique_ptr<CanaryEvaluator> canary_;
  /// A finished retrain parks its model here; the next observation
  /// starts the canary (so canary start is driven by the deterministic
  /// observation stream, not by retrain completion timing).
  core::PredictorPtr pending_candidate_;
  std::uint64_t observations_ = 0;
  std::uint64_t rejected_residuals_ = 0;
  std::uint64_t drift_events_ = 0;
  std::uint64_t retrains_ = 0;
  std::uint64_t retrain_failures_ = 0;
  std::uint64_t canary_evals_ = 0;
  std::uint64_t shadow_evals_ = 0;
  std::uint64_t canary_accepted_ = 0;
  std::uint64_t canary_rejected_ = 0;

  std::atomic<bool> retrain_inflight_{false};
};

}  // namespace acsel::adapt
