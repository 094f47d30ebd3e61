#include "adapt/controller.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "util/error.h"
#include "util/log.h"

namespace acsel::adapt {

namespace {

/// Signed relative residual, guarded against a near-zero prediction
/// blowing the ratio up.
double relative_residual(double measured, double predicted) {
  return (measured - predicted) / std::max(std::abs(predicted), 1e-9);
}

}  // namespace

AdaptController::AdaptController(
    serve::ModelRegistry& registry, exec::Executor& executor,
    std::vector<core::KernelCharacterization> seed_data,
    const AdaptOptions& options)
    : registry_(&registry),
      executor_(&executor),
      seed_data_(std::move(seed_data)),
      options_(options),
      promoter_(registry, options.promoter),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &obs::Registry::global()),
      observations_counter_(&metrics_->counter("adapt.observations")),
      rejected_counter_(&metrics_->counter("adapt.rejected_residuals")),
      drift_events_counter_(&metrics_->counter("adapt.drift_events")),
      retrains_counter_(&metrics_->counter("adapt.retrains")),
      retrain_failures_counter_(&metrics_->counter("adapt.retrain_failures")),
      canary_evals_counter_(&metrics_->counter("adapt.canary.evals")),
      shadow_evals_counter_(&metrics_->counter("adapt.shadow_evals")),
      canary_accepted_counter_(&metrics_->counter("adapt.canary.accepted")),
      canary_rejected_counter_(&metrics_->counter("adapt.canary.rejected")),
      promotions_counter_(&metrics_->counter("adapt.promotions")),
      rollbacks_counter_(&metrics_->counter("adapt.rollbacks")),
      max_score_gauge_(&metrics_->gauge("adapt.drift.max_score")),
      canary_active_gauge_(&metrics_->gauge("adapt.canary_active")),
      retrain_inflight_gauge_(&metrics_->gauge("adapt.retrain_inflight")),
      reservoir_size_gauge_(&metrics_->gauge("adapt.reservoir_size")),
      retrain_histogram_(&metrics_->histogram("adapt.retrain_ns")),
      reservoir_(options.reservoir) {}

AdaptController::~AdaptController() { wait_for_retrain(); }

void AdaptController::observe(const Feedback& feedback) {
  std::shared_ptr<std::vector<core::KernelCharacterization>> retrain_data;
  {
    std::lock_guard<std::mutex> lock{mu_};
    ++observations_;
    observations_counter_->add();

    // A finished retrain's candidate starts its canary here, on the
    // observation stream, so the decision sequence does not depend on
    // when the background job happened to complete.
    maybe_start_canary_locked();

    // PR-4 guardrail convention: a non-finite reading says nothing about
    // drift — reject it whole, never fold any part into the statistics.
    const bool finite = std::isfinite(feedback.predicted_power_w) &&
                        std::isfinite(feedback.predicted_performance) &&
                        std::isfinite(feedback.measured_power_w) &&
                        std::isfinite(feedback.measured_performance);
    if (!finite) {
      ++rejected_residuals_;
      rejected_counter_->add();
      return;
    }

    const serve::VersionedModel current = registry_->current();
    if (current.model == nullptr) {
      return;  // nothing to judge residuals against yet
    }

    std::size_t cluster = 0;
    try {
      cluster = current.model->classify(feedback.samples);
    } catch (const std::exception&) {
      ++rejected_residuals_;
      rejected_counter_->add();
      return;
    }

    ClusterState& state = clusters_[cluster];
    if (state.power == nullptr) {
      state.power = std::make_unique<DriftDetector>(options_.drift);
      state.performance = std::make_unique<DriftDetector>(options_.drift);
      state.score_gauge =
          &metrics_->gauge("adapt.drift.cluster." + std::to_string(cluster));
    }
    const bool was_fired = state.power->fired() || state.performance->fired();
    state.power->feed(relative_residual(feedback.measured_power_w,
                                        feedback.predicted_power_w));
    state.performance->feed(relative_residual(
        feedback.measured_performance, feedback.predicted_performance));
    const bool now_fired = state.power->fired() || state.performance->fired();
    if (!was_fired && now_fired) {
      ++drift_events_;
      drift_events_counter_->add();
      ACSEL_LOG_WARN("adapt: drift detected in cluster "
                     << cluster << " (score "
                     << std::max(state.power->score(),
                                 state.performance->score())
                     << ")");
    }
    state.score_gauge->set(
        std::max(state.power->score(), state.performance->score()));
    max_score_gauge_->set(max_drift_score_locked());

    if (feedback.label.has_value()) {
      reservoir_.offer(*feedback.label);
      reservoir_size_gauge_->set(static_cast<double>(reservoir_.size()));
    }

    if (canary_ != nullptr && feedback.label.has_value()) {
      if (canary_->offer_labelled(*feedback.label, feedback.cap_w,
                                  options_.goal, options_.scheduler)) {
        ++canary_evals_;
        canary_evals_counter_->add();
      }
      if (canary_->decided()) {
        finish_canary_locked();
      }
    }

    if (promoter_.in_probation() && feedback.label.has_value()) {
      const SelectionQuality live =
          selection_quality(*current.model, *feedback.label, feedback.cap_w,
                            options_.goal, options_.scheduler);
      if (promoter_.observe_live_error(live.error)) {
        rollbacks_counter_->add();
        // The rolled-back model is serving again; it owes (and is owed)
        // a fresh judgement.
        reset_detectors_locked();
      }
    }

    retrain_data = maybe_schedule_retrain_locked();
  }
  if (retrain_data != nullptr) {
    auto job = [this, retrain_data] { run_retrain(retrain_data); };
    if (!executor_->try_submit(job)) {
      job();  // non-blocking contract: a declined submission runs inline
    }
  }
}

void AdaptController::begin_canary(core::PredictorPtr candidate) {
  ACSEL_CHECK_MSG(candidate != nullptr, "cannot canary a null candidate");
  std::lock_guard<std::mutex> lock{mu_};
  ACSEL_CHECK_MSG(canary_ == nullptr, "a canary is already running");
  const serve::VersionedModel incumbent = registry_->current();
  ACSEL_CHECK_MSG(incumbent.model != nullptr,
                  "cannot canary without an incumbent model");
  canary_ = std::make_unique<CanaryEvaluator>(std::move(candidate),
                                              incumbent.model, options_.canary);
  canary_active_gauge_->set(1.0);
}

void AdaptController::wait_for_retrain() {
  while (retrain_inflight_.load(std::memory_order_acquire)) {
    if (!executor_->try_run_one()) {
      std::this_thread::yield();
    }
  }
}

bool AdaptController::canary_active() const {
  std::lock_guard<std::mutex> lock{mu_};
  return canary_ != nullptr;
}

std::size_t AdaptController::reservoir_size() const {
  std::lock_guard<std::mutex> lock{mu_};
  return reservoir_.size();
}

void AdaptController::on_feedback(const serve::FeedbackRequest& feedback) {
  Feedback observation;
  observation.samples = feedback.samples;
  observation.predicted_power_w = feedback.predicted_power_w;
  observation.predicted_performance = feedback.predicted_performance;
  observation.measured_power_w = feedback.measured_power_w;
  observation.measured_performance = feedback.measured_performance;
  observation.cap_w = feedback.cap_w;
  observe(observation);
}

bool AdaptController::on_served(const serve::SelectRequest& request,
                                const serve::SelectResponse& response) {
  (void)response;
  std::lock_guard<std::mutex> lock{mu_};
  maybe_start_canary_locked();
  if (canary_ == nullptr) {
    return false;
  }
  const bool exercised = canary_->offer_shadow(request.samples);
  if (exercised) {
    ++shadow_evals_;
    shadow_evals_counter_->add();
  }
  if (canary_->decided()) {
    finish_canary_locked();
  }
  return exercised;
}

AdaptStats AdaptController::adapt_stats() const {
  std::lock_guard<std::mutex> lock{mu_};
  AdaptStats stats;
  stats.canary_active = canary_ != nullptr;
  stats.retrain_inflight = retrain_inflight_.load(std::memory_order_acquire);
  stats.max_drift_score = max_drift_score_locked();
  stats.observations = observations_;
  stats.rejected_residuals = rejected_residuals_;
  stats.drift_events = drift_events_;
  stats.retrains = retrains_;
  stats.retrain_failures = retrain_failures_;
  stats.reservoir_size = reservoir_.size();
  stats.canary_evals = canary_evals_;
  stats.shadow_evals = shadow_evals_;
  stats.canary_accepted = canary_accepted_;
  stats.canary_rejected = canary_rejected_;
  stats.promotions = promoter_.promotions();
  stats.rollbacks = promoter_.rollbacks();
  return stats;
}

void AdaptController::maybe_start_canary_locked() {
  if (canary_ != nullptr || pending_candidate_ == nullptr) {
    return;
  }
  const serve::VersionedModel incumbent = registry_->current();
  if (incumbent.model == nullptr) {
    // No incumbent to beat: publish directly (cold start).
    promotions_counter_->add();
    promoter_.promote(std::move(pending_candidate_), 0.0);
    pending_candidate_ = nullptr;
    return;
  }
  canary_ = std::make_unique<CanaryEvaluator>(
      std::move(pending_candidate_), incumbent.model, options_.canary);
  canary_active_gauge_->set(1.0);
  pending_candidate_ = nullptr;
}

void AdaptController::finish_canary_locked() {
  const CanaryVerdict& verdict = canary_->verdict();
  if (verdict.accepted) {
    ++canary_accepted_;
    canary_accepted_counter_->add();
    promotions_counter_->add();
    promoter_.promote(canary_->candidate(), verdict.candidate_error);
    ACSEL_LOG_INFO("adapt: canary accepted candidate (error "
                   << verdict.candidate_error << " vs incumbent "
                   << verdict.incumbent_error << ")");
  } else {
    ++canary_rejected_;
    canary_rejected_counter_->add();
    ACSEL_LOG_WARN("adapt: canary rejected candidate: "
                   << verdict.reason << " (error " << verdict.candidate_error
                   << " vs incumbent " << verdict.incumbent_error
                   << ", violations " << verdict.candidate_violation_rate
                   << " vs " << verdict.incumbent_violation_rate << ")");
  }
  canary_.reset();
  canary_active_gauge_->set(0.0);
  // Either way the drift evidence is spent: an accepted model owes a
  // fresh judgement; a rejected candidate must not be re-triggered by the
  // same stale statistics in a tight loop.
  reset_detectors_locked();
}

std::shared_ptr<std::vector<core::KernelCharacterization>>
AdaptController::maybe_schedule_retrain_locked() {
  if (canary_ != nullptr || pending_candidate_ != nullptr ||
      retrain_inflight_.load(std::memory_order_acquire)) {
    return nullptr;
  }
  bool any_fired = false;
  for (const auto& [cluster, state] : clusters_) {
    if (state.power->fired() || state.performance->fired()) {
      any_fired = true;
      break;
    }
  }
  if (!any_fired) {
    return nullptr;
  }
  auto data = std::make_shared<std::vector<core::KernelCharacterization>>(
      seed_data_);
  data->insert(data->end(), reservoir_.items().begin(),
               reservoir_.items().end());
  if (data->size() < options_.trainer.clusters) {
    return nullptr;  // not enough data to train yet; keep collecting
  }
  retrain_inflight_.store(true, std::memory_order_release);
  retrain_inflight_gauge_->set(1.0);
  ++retrains_;
  retrains_counter_->add();
  ACSEL_LOG_INFO("adapt: scheduling background retrain over "
                 << data->size() << " samples (" << reservoir_.size()
                 << " from the reservoir)");
  return data;
}

void AdaptController::run_retrain(
    std::shared_ptr<std::vector<core::KernelCharacterization>> data) {
  const auto start = std::chrono::steady_clock::now();
  core::PredictorPtr candidate;
  try {
    candidate =
        core::train_predictor(*data, options_.trainer, *executor_).predictor;
  } catch (const std::exception& error) {
    ACSEL_LOG_WARN("adapt: retrain failed: " << error.what());
  }
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  retrain_histogram_->record(static_cast<std::uint64_t>(nanos));
  {
    std::lock_guard<std::mutex> lock{mu_};
    if (candidate != nullptr) {
      pending_candidate_ = std::move(candidate);
    } else {
      ++retrain_failures_;
      retrain_failures_counter_->add();
    }
  }
  // Gauge before flag: once wait_for_retrain() returns, a scrape already
  // reads the retrain as finished.
  retrain_inflight_gauge_->set(0.0);
  retrain_inflight_.store(false, std::memory_order_release);
}

void AdaptController::reset_detectors_locked() {
  for (auto& [cluster, state] : clusters_) {
    state.power->reset();
    state.performance->reset();
    state.score_gauge->set(0.0);
  }
  max_score_gauge_->set(0.0);
}

double AdaptController::max_drift_score_locked() const {
  double max_score = 0.0;
  for (const auto& [cluster, state] : clusters_) {
    max_score = std::max(
        max_score, std::max(state.power->score(), state.performance->score()));
  }
  return max_score;
}

}  // namespace acsel::adapt
