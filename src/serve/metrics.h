// Serving observability, backed by the shared obs metric registry: every
// counter the server keeps is a named obs metric, so the same rows appear
// in the obs exporters (text table, CSV, JSON) and the wire protocol's
// StatsResponse. Hot-path updates go through cached metric
// references (relaxed atomics, no lock, no name lookup); snapshots
// tolerate being a few events torn, which is the standard trade for zero
// hot-path locking.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"
#include "serve/message.h"

namespace acsel::serve {

/// Everything the server counts. One instance per Server, each with its
/// own registry so two servers in one process never share rows.
class ServerMetrics {
 public:
  ServerMetrics();

  // -- hot-path updates --------------------------------------------------
  void on_submitted() { submitted_->add(); }
  void on_shed(Priority priority) {
    shed_->add();
    shed_by_priority_[static_cast<std::size_t>(priority)]->add();
  }
  void on_deadline_shed() { deadline_shed_->add(); }
  void on_breaker_rerouted() { breaker_rerouted_->add(); }
  void on_model_mismatch() { model_mismatch_->add(); }
  void on_feedback() { feedback_->add(); }
  void on_shadowed() { shadowed_->add(); }
  void on_error() { errors_->add(); }
  void on_batch(std::size_t size) {
    batches_->add();
    batched_requests_->add(size);
  }
  void on_completed(std::uint64_t latency_nanos) {
    completed_->add();
    latency_->record(latency_nanos);
  }
  /// Publishes the instantaneous queue depth to the registry gauge (also
  /// done by snapshot(); exposed for the wire scrape path, which reads
  /// the registry without building a Snapshot).
  void publish_queue_depth(std::size_t depth) {
    queue_depth_->set(static_cast<double>(depth));
  }

  struct Snapshot {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;  ///< includes error responses, not sheds
    std::uint64_t shed = 0;
    /// Sheds broken down by request class (indexed by Priority); sums to
    /// `shed`. Under pressure the admission limits shed Low first.
    std::array<std::uint64_t, kPriorityClasses> shed_by_priority{};
    /// Requests whose deadline expired in the queue (answered
    /// DeadlineExceeded, never served).
    std::uint64_t deadline_shed = 0;
    /// Version-0 requests the circuit breaker routed to the previous
    /// model version.
    std::uint64_t breaker_rerouted = 0;
    /// Fingerprint-keyed requests served by another architecture's model
    /// (no exact fingerprint match was published).
    std::uint64_t model_mismatch = 0;
    /// Feedback frames handed to the adapt sink.
    std::uint64_t feedback = 0;
    /// Served requests a live canary candidate shadow-predicted.
    std::uint64_t shadowed = 0;
    std::uint64_t errors = 0;
    std::uint64_t batches = 0;
    double mean_batch = 0.0;  ///< completed requests per worker batch
    double qps = 0.0;         ///< completed / elapsed
    double elapsed_s = 0.0;   ///< since construction or last reset
    obs::Histogram::Snapshot latency;
    std::size_t queue_depth = 0;  ///< sampled at snapshot time
  };

  /// Also publishes `queue_depth` to the "serve.queue_depth" gauge, so a
  /// registry scrape taken after a snapshot sees the same depth.
  Snapshot snapshot(std::size_t queue_depth) const;

  /// Zeroes counters and histogram and restarts the QPS clock. For use
  /// between measurement windows, while the server is quiescent.
  void reset();

  /// The registry backing these metrics — what the wire stats scrape and
  /// the obs exporters read.
  const obs::Registry& registry() const { return registry_; }
  obs::Registry& registry() { return registry_; }

 private:
  static std::int64_t steady_now_ns();

  obs::Registry registry_;
  // Cached references into registry_ (stable for its lifetime).
  obs::Counter* submitted_;
  obs::Counter* completed_;
  obs::Counter* shed_;
  std::array<obs::Counter*, kPriorityClasses> shed_by_priority_;
  obs::Counter* deadline_shed_;
  obs::Counter* breaker_rerouted_;
  obs::Counter* model_mismatch_;
  obs::Counter* feedback_;
  obs::Counter* shadowed_;
  obs::Counter* errors_;
  obs::Counter* batches_;
  obs::Counter* batched_requests_;
  obs::Histogram* latency_;
  obs::Gauge* queue_depth_;
  // Window start in steady-clock nanoseconds. Atomic so reset() racing a
  // snapshot() hands the snapshot either the old window or the new one —
  // never a torn time_point and never a negative elapsed.
  std::atomic<std::int64_t> window_start_ns_;
};

}  // namespace acsel::serve
