// The concurrent configuration-selection service. A fixed pool of worker
// threads drains a bounded request queue; admission is shed-with-error
// once the queue is full (bounded memory, bounded queueing delay — the
// client retries or backs off). Workers pop *batches* and memoize the
// expensive online step (classify + per-configuration model application +
// frontier build, §IV-C) per (model version, sample pair) within the
// batch, so bursts of requests about the same kernel — the common shape
// when a cluster-level controller re-evaluates caps fleet-wide — pay for
// one prediction and many cheap frontier walks.
//
// `workers` is also the number of execution slots: a worker holds one per
// batch, and a synchronous select() that finds the queue empty and a slot
// free holds one while it serves its request on the calling thread,
// skipping the queue and the completion hand-off. Either way at most
// `workers` selections run at once, and one serve_one() body serves them,
// so both paths answer alike.
//
// Model access goes through the ModelRegistry: version 0 requests resolve
// "current" as each request is served, so a publish() hot-swaps the
// serving model without pausing the pool, and responses always name the
// version that produced them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/predictor.h"
#include "obs/trace.h"
#include "serve/breaker.h"
#include "serve/message.h"
#include "serve/metrics.h"
#include "serve/queue.h"
#include "serve/registry.h"

namespace acsel::serve {

struct ServerOptions {
  /// Worker threads draining the queue, and the most selections served at
  /// once (queued or inline on select() callers).
  std::size_t workers = 4;
  /// Bounded queue capacity; submissions beyond it are shed.
  std::size_t queue_capacity = 1024;
  /// Maximum requests a worker drains per pop (the batching window).
  std::size_t max_batch = 32;
  /// Applied to every selection (e.g. risk aversion, §VI).
  core::SchedulerOptions scheduler;
  /// Per-request queueing deadline: a request that waited longer than
  /// this before a worker picked it up is answered DeadlineExceeded
  /// instead of served — under overload, work nobody is still waiting
  /// for is shed rather than processed. Zero disables.
  std::chrono::nanoseconds request_deadline{0};
  /// Circuit breaker around the current model version (version-0
  /// requests); disabled by default.
  BreakerOptions breaker;
};

class Server {
 public:
  /// `registry` must outlive the server. Workers start immediately.
  explicit Server(ModelRegistry& registry, ServerOptions options = {});

  /// Stops and joins the workers; queued requests are drained first.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Asynchronous submission. The future always yields a response: a
  /// selection on success, or a response whose status explains the
  /// failure (Shed when the queue was full — resolved immediately,
  /// without queueing).
  std::future<SelectResponse> submit(SelectRequest request);

  /// Synchronous path. When the queue is open and empty and an execution
  /// slot is free, the request is served on the calling thread; otherwise
  /// it is submitted and waited for, behind everything already queued.
  /// The answer is the same either way.
  SelectResponse select(SelectRequest request);

  /// Wire-level entry point: decodes one request frame, serves it through
  /// select() (so inline when the server is idle), and returns the encoded
  /// response frame. Malformed input yields a MalformedRequest response
  /// frame rather than an exception, so a socket loop can always answer.
  std::vector<std::uint8_t> serve_frame(
      std::span<const std::uint8_t> frame);

  /// Closes the queue, joins the workers once they have drained it, and
  /// waits out any selection still running on a select() caller, so no
  /// selection runs once it returns. Idempotent. Submissions and
  /// selections after stop() are shed.
  void stop();

  ServerMetrics::Snapshot metrics_snapshot() const;

  /// The metric registry backing this server's counters — what a wire
  /// StatsRequest scrapes. Exposed so in-process callers (tests, the
  /// stats parity check) can read the same rows; the mutable overload
  /// lets an attached adapt sink publish its adapt.* rows into the
  /// scrape (AdaptOptions::metrics).
  const obs::Registry& stats_registry() const { return metrics_.registry(); }
  obs::Registry& stats_registry() { return metrics_.registry(); }

  /// Zeroes metrics between measurement windows (call while quiescent).
  void reset_metrics() { metrics_.reset(); }

  const ServerOptions& options() const { return options_; }

  /// The circuit breaker guarding the current model version.
  const Breaker& breaker() const { return breaker_; }

  /// Attaches (or, with nullptr, detaches) the adaptation sink: feedback
  /// frames are forwarded to it and served requests are offered for
  /// canary shadowing. The sink reports its state through registry rows,
  /// so a sink built over stats_registry() shows up in stats scrapes.
  /// The sink must outlive the server or be detached before it dies; it
  /// is called concurrently from worker threads, from select() callers
  /// served inline, and from serve_frame callers.
  void set_adapt_sink(AdaptSink* sink) {
    adapt_sink_.store(sink, std::memory_order_release);
  }

 private:
  /// Queue-depth cap for a class, derived from the admission fractions.
  std::size_t admission_limit(Priority priority) const;

  struct Job {
    SelectRequest request;
    std::promise<SelectResponse> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// The submitter's trace context, captured at submit() and installed
    /// on the worker thread while the job is served — the hop that makes
    /// queue-crossing spans chain into one trace.
    obs::TraceContext trace;
  };

  /// A batch's shared predictions, keyed by model version and sample pair.
  using PredictionMemo = std::unordered_map<std::string, core::Prediction>;

  void worker_loop();

  /// Serves one request, on a worker or inline on the select() caller:
  /// deadline shed, model resolve, breaker, predict and walk, adapt
  /// shadowing, and the completion metrics (recorded before it returns).
  /// `enqueued` is when the request arrived; `memo` is the batch's cache,
  /// or nullptr for a batch of one.
  SelectResponse serve_one(const SelectRequest& request,
                           std::chrono::steady_clock::time_point enqueued,
                           PredictionMemo* memo);

  ModelRegistry* registry_;
  ServerOptions options_;
  ServerMetrics metrics_;
  Breaker breaker_;
  std::atomic<AdaptSink*> adapt_sink_{nullptr};
  BoundedQueue<Job> queue_;
  std::vector<std::thread> workers_;
};

/// Serves one request against a specific model — the single-threaded
/// reference semantics the concurrent server must reproduce byte for
/// byte. Exposed so tests and clients can verify responses independently.
SelectResponse serve_with_model(const core::Predictor& model,
                                std::uint64_t model_version,
                                const SelectRequest& request,
                                const core::SchedulerOptions& scheduler);

}  // namespace acsel::serve
