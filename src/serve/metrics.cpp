#include "serve/metrics.h"

#include <chrono>

namespace acsel::serve {

ServerMetrics::ServerMetrics()
    : submitted_(&registry_.counter("serve.submitted")),
      completed_(&registry_.counter("serve.completed")),
      shed_(&registry_.counter("serve.shed")),
      shed_by_priority_{&registry_.counter("serve.shed.high"),
                        &registry_.counter("serve.shed.normal"),
                        &registry_.counter("serve.shed.low")},
      deadline_shed_(&registry_.counter("serve.deadline_shed")),
      breaker_rerouted_(&registry_.counter("serve.breaker_rerouted")),
      model_mismatch_(&registry_.counter("serve.model_mismatch")),
      feedback_(&registry_.counter("serve.feedback")),
      shadowed_(&registry_.counter("serve.shadowed")),
      errors_(&registry_.counter("serve.errors")),
      batches_(&registry_.counter("serve.batches")),
      batched_requests_(&registry_.counter("serve.batched_requests")),
      latency_(&registry_.histogram("serve.latency_ns")),
      queue_depth_(&registry_.gauge("serve.queue_depth")),
      window_start_ns_(steady_now_ns()) {}

std::int64_t ServerMetrics::steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ServerMetrics::Snapshot ServerMetrics::snapshot(
    std::size_t queue_depth) const {
  queue_depth_->set(static_cast<double>(queue_depth));
  Snapshot snap;
  snap.submitted = submitted_->value();
  snap.completed = completed_->value();
  snap.shed = shed_->value();
  for (std::size_t p = 0; p < kPriorityClasses; ++p) {
    snap.shed_by_priority[p] = shed_by_priority_[p]->value();
  }
  snap.deadline_shed = deadline_shed_->value();
  snap.breaker_rerouted = breaker_rerouted_->value();
  snap.model_mismatch = model_mismatch_->value();
  snap.feedback = feedback_->value();
  snap.shadowed = shadowed_->value();
  snap.errors = errors_->value();
  snap.batches = batches_->value();
  const std::uint64_t batched = batched_requests_->value();
  snap.mean_batch = snap.batches == 0
                        ? 0.0
                        : static_cast<double>(batched) /
                              static_cast<double>(snap.batches);
  const std::int64_t start = window_start_ns_.load(std::memory_order_relaxed);
  snap.elapsed_s = static_cast<double>(steady_now_ns() - start) / 1e9;
  snap.qps = snap.elapsed_s > 0.0
                 ? static_cast<double>(snap.completed) / snap.elapsed_s
                 : 0.0;
  snap.latency = latency_->snapshot();
  snap.queue_depth = queue_depth;
  return snap;
}

void ServerMetrics::reset() {
  registry_.reset();
  window_start_ns_.store(steady_now_ns(), std::memory_order_relaxed);
}

}  // namespace acsel::serve
