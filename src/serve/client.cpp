#include "serve/client.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "fault/fault.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/log.h"

namespace acsel::serve {

namespace {

/// Retry-budget bucket capacity: quiet periods cannot bank unlimited
/// retries.
constexpr double kRetryBudgetCap = 64.0;

}  // namespace

Client::Client(Transport transport, ClientOptions options)
    : transport_(std::move(transport)),
      options_(std::move(options)),
      rng_(options_.seed),
      retry_tokens_(options_.retry_budget_initial),
      exhausted_counter_(&obs::Registry::global().counter(
          "serve.client.retry_budget_exhausted")) {
  ACSEL_CHECK_MSG(transport_ != nullptr, "client needs a transport");
  ACSEL_CHECK(options_.max_attempts >= 1);
  ACSEL_CHECK(options_.backoff_base.count() >= 0);
  ACSEL_CHECK(options_.backoff_max >= options_.backoff_base);
  ACSEL_CHECK_MSG(options_.retry_budget_initial >= 0.0,
                  "retry budget tokens must be non-negative");
}

bool Client::conclusive(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::Ok:
    case ResponseStatus::UnknownModelVersion:
    case ResponseStatus::NoModelPublished:
    case ResponseStatus::InternalError:
    case ResponseStatus::Unsupported:
      return true;  // retrying would return the same answer
    case ResponseStatus::Shed:
    case ResponseStatus::MalformedRequest:
    case ResponseStatus::DeadlineExceeded:
      return false;  // transient: queue pressure or wire corruption
  }
  return true;
}

std::chrono::microseconds Client::backoff_delay(int attempt) {
  std::chrono::microseconds delay = options_.backoff_base;
  for (int i = 0; i < attempt && delay < options_.backoff_max; ++i) {
    delay *= 2;
  }
  delay = std::min(delay, options_.backoff_max);
  const double jitter = 0.5 + rng_.uniform();  // [0.5, 1.5)
  return std::chrono::microseconds{static_cast<std::int64_t>(
      static_cast<double>(delay.count()) * jitter)};
}

void Client::deposit_retry_tokens() {
  ++calls_;
  if (options_.retry_budget_ratio <= 0.0) {
    return;
  }
  retry_tokens_ = std::min(retry_tokens_ + options_.retry_budget_ratio,
                           kRetryBudgetCap);
}

bool Client::spend_retry_token() {
  if (options_.retry_budget_ratio <= 0.0) {
    return true;  // budget disabled
  }
  if (retry_tokens_ < 1.0) {
    ++budget_exhausted_;
    exhausted_counter_->add();
    return false;
  }
  retry_tokens_ -= 1.0;
  return true;
}

void Client::wait(std::chrono::microseconds delay) {
  if (options_.sleep) {
    options_.sleep(delay);
  } else {
    std::this_thread::sleep_for(delay);
  }
}

template <typename Response, typename Encode>
Response Client::call(std::uint64_t request_id, MessageType reply_type,
                      Response Decoded::*answer, const Encode& encode) {
  deposit_retry_tokens();
  Response last;
  last.request_id = request_id;
  last.status = ResponseStatus::MalformedRequest;
  for (int attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      if (!spend_retry_token()) {
        // Bucket dry: a fleet under brownout must see its shed wave die
        // out, not come back amplified by backoff retries.
        ACSEL_LOG_DEBUG("client: retry budget exhausted; returning "
                        << to_string(last.status));
        return last;
      }
      ++retries_;
      wait(backoff_delay(attempt - 1));
    }
    std::vector<std::uint8_t> frame;
    const obs::TraceContext ctx = obs::current_trace_context();
    encode(frame, ctx.active() ? &ctx : nullptr);
    const std::vector<std::uint8_t> reply = transport_(frame);
    const Decoded decoded = decode_frame(reply);
    if (decoded.status != DecodeStatus::Ok || decoded.type != reply_type) {
      ACSEL_LOG_DEBUG("client: undecodable reply (attempt " << attempt
                                                            << "); retrying");
      continue;
    }
    last = decoded.*answer;
    if (conclusive(last.status)) {
      return last;
    }
    ACSEL_LOG_DEBUG("client: transient " << to_string(last.status)
                                         << " (attempt " << attempt << ")");
  }
  return last;
}

SelectResponse Client::select(const SelectRequest& request) {
  // Root a deterministic trace when sampling selects this request and no
  // trace is already in progress; a caller's active trace is joined
  // as-is. The root context carries span id 0, so the client.select span
  // below becomes the trace's root span.
  obs::TraceContext root = obs::current_trace_context();
  if (!root.active() && options_.trace_sample_den > 0 &&
      request.request_id % options_.trace_sample_den == 0) {
    root = obs::TraceContext{};
    // A deterministic, well-mixed trace id from the (client seed,
    // request id) pair.
    root.trace_id =
        splitmix64(options_.seed ^ splitmix64(request.request_id));
    if (root.trace_id == 0) {
      root.trace_id = 1;
    }
    root.sampled = true;
  }
  const obs::ScopedTraceContext rooted{root};
  ACSEL_OBS_SPAN("client.select", "client");
  return call(request.request_id, MessageType::SelectResponse,
              &Decoded::response,
              [&request](std::vector<std::uint8_t>& frame,
                         const obs::TraceContext* trace) {
                encode_request(request, frame, trace);
                if (ACSEL_FAULT_ARMED() && ACSEL_FAULT_FIRE("wire.corrupt")) {
                  frame[0] ^= 0xff;  // ruin the magic: the server sees BadMagic
                }
              });
}

StatsResponse Client::stats(const StatsRequest& request) {
  return call(request.request_id, MessageType::StatsResponse,
              &Decoded::stats_response,
              [&request](std::vector<std::uint8_t>& frame,
                         const obs::TraceContext* trace) {
                encode_stats_request(request, frame, trace);
              });
}

}  // namespace acsel::serve
