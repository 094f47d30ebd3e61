#include "serve/server.h"

#include <exception>
#include <string>
#include <unordered_map>
#include <utility>

#include "obs/trace.h"
#include "serve/codec.h"
#include "util/error.h"
#include "util/log.h"

namespace acsel::serve {

namespace {

/// Priority admission: the queue-depth fraction beyond which Low /
/// Normal requests are shed (High always admits up to full capacity).
/// Lower classes give up their share of the queue first, so under
/// sustained pressure the Low shed rate exceeds Normal exceeds High,
/// while the FIFO drain — and thus already-admitted work — is never
/// starved or reordered.
constexpr double kLowPriorityAdmission = 0.50;
constexpr double kNormalPriorityAdmission = 0.80;

/// Batch-local memo key for the prediction cache: the wire encoding of a
/// request's sample pair is a canonical, bit-exact byte representation of
/// everything predict() consumes, so identical samples — and only
/// identical samples — collide.
std::string sample_key(const SelectRequest& request) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(512);
  SelectRequest samples_only;
  samples_only.samples = request.samples;
  encode_request(samples_only, bytes);
  return std::string{reinterpret_cast<const char*>(bytes.data()),
                     bytes.size()};
}

/// The model a version-keyed request names (0 = current).
VersionedModel resolve(const ModelRegistry& registry, std::uint64_t version) {
  if (version == 0) {
    return registry.current();
  }
  VersionedModel entry;
  entry.version = version;
  entry.model = registry.get(version);
  return entry;
}

}  // namespace

AdaptSink::~AdaptSink() = default;

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::Ok:
      return "Ok";
    case ResponseStatus::Shed:
      return "Shed";
    case ResponseStatus::MalformedRequest:
      return "MalformedRequest";
    case ResponseStatus::UnknownModelVersion:
      return "UnknownModelVersion";
    case ResponseStatus::NoModelPublished:
      return "NoModelPublished";
    case ResponseStatus::InternalError:
      return "InternalError";
    case ResponseStatus::DeadlineExceeded:
      return "DeadlineExceeded";
    case ResponseStatus::Unsupported:
      return "Unsupported";
  }
  return "?";
}

const char* to_string(Priority priority) {
  switch (priority) {
    case Priority::High:
      return "high";
    case Priority::Normal:
      return "normal";
    case Priority::Low:
      return "low";
  }
  return "?";
}

SelectResponse serve_with_model(const core::Predictor& model,
                                std::uint64_t model_version,
                                const SelectRequest& request,
                                const core::SchedulerOptions& scheduler) {
  const core::Prediction prediction = model.predict(request.samples);
  const core::Scheduler walker{prediction, scheduler};
  const core::Scheduler::Choice choice =
      walker.select_goal(request.goal, request.cap_w);

  SelectResponse response;
  response.request_id = request.request_id;
  response.status = ResponseStatus::Ok;
  response.model_version = model_version;
  response.config_index = static_cast<std::uint32_t>(choice.config_index);
  response.predicted_power_w = choice.predicted_power_w;
  response.predicted_performance = choice.predicted_performance;
  response.predicted_feasible = choice.predicted_feasible;
  return response;
}

Server::Server(ModelRegistry& registry, ServerOptions options)
    : registry_(&registry),
      options_(options),
      breaker_(options.breaker),
      queue_(options.queue_capacity, options.workers) {
  ACSEL_CHECK_MSG(options_.workers >= 1, "server needs >= 1 worker");
  ACSEL_CHECK_MSG(options_.max_batch >= 1, "server needs max_batch >= 1");
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  ACSEL_LOG_INFO("serve: started " << options_.workers
                                   << " workers, queue capacity "
                                   << options_.queue_capacity);
}

Server::~Server() { stop(); }

std::size_t Server::admission_limit(Priority priority) const {
  // High rides to full capacity; Normal and Low stop short of it, so the
  // headroom above their fraction stays reserved for higher classes. The
  // limit never truncates below 1: a tiny queue (capacity 1-2) degrades
  // to equal treatment rather than shedding a whole class outright.
  const double capacity = static_cast<double>(options_.queue_capacity);
  switch (priority) {
    case Priority::High:
      return options_.queue_capacity;
    case Priority::Normal:
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(capacity * kNormalPriorityAdmission));
    case Priority::Low:
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(capacity * kLowPriorityAdmission));
  }
  return options_.queue_capacity;
}

std::future<SelectResponse> Server::submit(SelectRequest request) {
  metrics_.on_submitted();
  Job job;
  job.request = std::move(request);
  job.enqueued = std::chrono::steady_clock::now();
  job.trace = obs::current_trace_context();
  const std::uint64_t request_id = job.request.request_id;
  const Priority priority = job.request.priority;
  std::future<SelectResponse> future = job.promise.get_future();
  if (!queue_.try_push(std::move(job), admission_limit(priority))) {
    // Shed: resolve immediately so the caller never blocks on a request
    // the server refused to queue.
    metrics_.on_shed(priority);
    SelectResponse response;
    response.request_id = request_id;
    response.status = ResponseStatus::Shed;
    std::promise<SelectResponse> rejected;
    future = rejected.get_future();
    rejected.set_value(response);
  }
  return future;
}

SelectResponse Server::select(SelectRequest request) {
  if (!queue_.try_claim_idle()) {
    return submit(std::move(request)).get();
  }
  // Idle server: serve on this thread, holding the claimed slot, so the
  // request crosses no queue and no promise.
  struct Release {
    BoundedQueue<Job>& queue;
    ~Release() { queue.release(); }
  } release{queue_};
  metrics_.on_submitted();
  metrics_.on_batch(1);
  return serve_one(request, std::chrono::steady_clock::now(), nullptr);
}

std::vector<std::uint8_t> Server::serve_frame(
    std::span<const std::uint8_t> frame) {
  Decoded decoded = decode_frame(frame);
  std::vector<std::uint8_t> out;
  // Adopt the frame's trace context for the duration of the call, and
  // echo it on the response frame so the caller can correlate.
  const obs::ScopedTraceContext traced{
      decoded.has_trace ? decoded.trace : obs::current_trace_context()};
  const obs::TraceContext* echo = decoded.has_trace ? &decoded.trace : nullptr;
  if (decoded.status == DecodeStatus::Ok &&
      decoded.type == MessageType::StatsRequest) {
    // Stats scrapes are answered inline at the frame layer: they never
    // enter the queue, so monitoring cannot be shed by — or add latency
    // to — the selection hot path.
    metrics_.publish_queue_depth(queue_.size());
    StatsResponse stats;
    stats.request_id = decoded.stats_request.request_id;
    stats.status = ResponseStatus::Ok;
    stats.metrics = metrics_.registry().snapshot();
    encode_stats_response(stats, out, echo);
    return out;
  }
  if (decoded.status == DecodeStatus::Ok &&
      decoded.type == MessageType::FeedbackRequest) {
    // Feedback is answered inline like stats: it carries no work for the
    // worker pool, only residuals for the adapt loop.
    FeedbackResponse ack;
    ack.request_id = decoded.feedback.request_id;
    if (AdaptSink* sink = adapt_sink_.load(std::memory_order_acquire)) {
      sink->on_feedback(decoded.feedback);
      metrics_.on_feedback();
      ack.status = ResponseStatus::Ok;
    } else {
      ack.status = ResponseStatus::Unsupported;
    }
    encode_feedback_response(ack, out, echo);
    return out;
  }
  SelectResponse response;
  if (decoded.status != DecodeStatus::Ok ||
      decoded.type != MessageType::SelectRequest) {
    response.status = ResponseStatus::MalformedRequest;
    if (decoded.status == DecodeStatus::Ok) {
      // A well-formed frame of the wrong type still echoes nothing useful.
      ACSEL_LOG_WARN("serve_frame: non-request frame rejected");
    }
  } else {
    response = select(std::move(decoded.request));
  }
  encode_response(response, out, echo);
  return out;
}

void Server::stop() {
  queue_.close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  // Selections served on their callers' threads hold slots outside the
  // queue; none may still run once stop() returns.
  queue_.wait_idle();
}

ServerMetrics::Snapshot Server::metrics_snapshot() const {
  return metrics_.snapshot(queue_.size());
}

void Server::worker_loop() {
  std::vector<Job> batch;
  batch.reserve(options_.max_batch);
  while (true) {
    batch.clear();
    if (queue_.pop_batch(batch, options_.max_batch) == 0) {
      return;  // closed and drained
    }
    ACSEL_OBS_SPAN("serve.batch", "serve");
    metrics_.on_batch(batch.size());
    // A batch of one has nothing to share, so it skips the memo.
    PredictionMemo memo;
    PredictionMemo* shared = batch.size() > 1 ? &memo : nullptr;
    for (Job& job : batch) {
      // Re-enter the submitter's trace on this worker thread: spans below
      // chain under the caller's span even though the queue was crossed.
      const obs::ScopedTraceContext traced{job.trace};
#ifndef ACSEL_OBS_NO_TRACING
      // Each request's time in the queue, backdated onto the trace
      // timeline so the wait span abuts the processing span.
      if (obs::Tracer& tracer = obs::Tracer::global(); tracer.enabled()) {
        const auto waited =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - job.enqueued)
                .count();
        const std::uint64_t wait_ns = static_cast<std::uint64_t>(waited);
        const std::uint64_t end_ns = tracer.now_ns();
        tracer.record_complete("serve.queue_wait", "serve",
                               end_ns > wait_ns ? end_ns - wait_ns : 0,
                               wait_ns);
      }
#endif
      job.promise.set_value(serve_one(job.request, job.enqueued, shared));
    }
    queue_.release();
  }
}

SelectResponse Server::serve_one(
    const SelectRequest& request,
    std::chrono::steady_clock::time_point enqueued, PredictionMemo* memo) {
  ACSEL_OBS_SPAN("serve.request", "serve");
  SelectResponse response;
  response.request_id = request.request_id;

  // Deadline shed: a request that expired while queued is answered, never
  // served — under overload the pool must not burn worker time on answers
  // nobody is waiting for anymore.
  if (options_.request_deadline.count() > 0 &&
      std::chrono::steady_clock::now() - enqueued >
          options_.request_deadline) {
    response.status = ResponseStatus::DeadlineExceeded;
    metrics_.on_deadline_shed();
    return response;
  }

  // The breaker only guards "serve with the current model" requests;
  // pinned-version requests asked for that exact model and get it, and
  // fingerprint-keyed requests have their own fallback chain (nearest
  // architecture), which a reroute to previous_of() would silently cross.
  const bool keyed =
      request.model_version == 0 && request.fingerprint.has_value();
  const bool guarded =
      request.model_version == 0 && !keyed && options_.breaker.enabled;
  bool feed_breaker = false;
  try {
    VersionedModel vm;
    if (keyed) {
      FingerprintMatch match = registry_->current_for(*request.fingerprint);
      if (!match.exact && match.model.model != nullptr) {
        // Served, but by another architecture's model.
        metrics_.on_model_mismatch();
      }
      vm = std::move(match.model);
    } else {
      vm = resolve(*registry_, request.model_version);
    }
    if (guarded && vm.model != nullptr) {
      feed_breaker = breaker_.allow();
      if (!feed_breaker) {
        // Open (or probing at quota): reroute to the version published
        // before the suspect one, when there is one.
        VersionedModel previous = registry_->previous_of(vm.version);
        if (previous.model != nullptr) {
          vm = std::move(previous);
          metrics_.on_breaker_rerouted();
        } else {
          feed_breaker = true;  // nowhere to go; serve current
        }
      }
    }
    if (vm.model == nullptr) {
      response.status = request.model_version == 0
                            ? ResponseStatus::NoModelPublished
                            : ResponseStatus::UnknownModelVersion;
      metrics_.on_error();
    } else {
      const auto serve_start = std::chrono::steady_clock::now();
      core::Prediction own_prediction;
      const core::Prediction* prediction = &own_prediction;
      if (memo == nullptr) {
        own_prediction = vm.model->predict(request.samples);
      } else {
        const std::string key =
            std::to_string(vm.version) + '|' + sample_key(request);
        auto memoized = memo->find(key);
        if (memoized == memo->end()) {
          memoized =
              memo->emplace(key, vm.model->predict(request.samples)).first;
        }
        prediction = &memoized->second;
      }
      const core::Scheduler walker{*prediction, options_.scheduler};
      const core::Scheduler::Choice choice =
          walker.select_goal(request.goal, request.cap_w);
      response.status = ResponseStatus::Ok;
      response.model_version = vm.version;
      response.config_index = static_cast<std::uint32_t>(choice.config_index);
      response.predicted_power_w = choice.predicted_power_w;
      response.predicted_performance = choice.predicted_performance;
      response.predicted_feasible = choice.predicted_feasible;
      if (feed_breaker) {
        const auto served_ns =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - serve_start)
                .count();
        breaker_.on_success(static_cast<std::uint64_t>(served_ns));
      }
    }
  } catch (const std::exception& error) {
    // Not only acsel::Error: a predictor throwing std::out_of_range or
    // std::bad_alloc must still resolve this request, not escape the
    // worker thread and terminate the process.
    response.status = ResponseStatus::InternalError;
    metrics_.on_error();
    if (feed_breaker) {
      breaker_.on_failure();
    }
    ACSEL_LOG_WARN("serve: request " << request.request_id
                                     << " failed: " << error.what());
  }
  if (response.status == ResponseStatus::Ok) {
    if (AdaptSink* sink = adapt_sink_.load(std::memory_order_acquire)) {
      if (sink->on_served(request, response)) {
        metrics_.on_shadowed();
      }
    }
  }
  const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - enqueued)
                         .count();
  // Metrics first, completion second: once a client observes its
  // response, any stats scrape it issues already counts the request.
  metrics_.on_completed(static_cast<std::uint64_t>(nanos));
  return response;
}

}  // namespace acsel::serve
