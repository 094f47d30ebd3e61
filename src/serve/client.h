// Wire client for the selection service: frames requests, decodes
// responses, and retries transient failures (shed, deadline-shed,
// corrupted frames) with jittered exponential backoff so a fleet of
// clients hammered by the same shed wave doesn't retry in lockstep.
//
// The transport is a callable (request frame bytes -> response frame
// bytes), so the same client drives an in-process Server::serve_frame
// today and a socket tomorrow. The sleep hook is injectable for the same
// reason: tests record the backoff schedule instead of waiting it out.
//
// Fault site "wire.corrupt": when armed, the first byte of an outgoing
// request frame is flipped before transmission — the server sees a
// BadMagic frame and answers MalformedRequest, which the client treats as
// a transient wire fault and retries.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "serve/codec.h"
#include "serve/message.h"
#include "util/rng.h"

namespace acsel::serve {

/// Sends one request frame, returns the response frame.
using Transport =
    std::function<std::vector<std::uint8_t>(std::span<const std::uint8_t>)>;

struct ClientOptions {
  /// Total attempts per request (first try + retries).
  int max_attempts = 4;
  /// Backoff before retry k is min(base * 2^k, max), scaled by a jitter
  /// factor uniform in [0.5, 1.5).
  std::chrono::microseconds backoff_base{200};
  std::chrono::microseconds backoff_max{5000};
  /// Seeds the jitter stream (deterministic per client).
  std::uint64_t seed = 0xc11e57ull;
  /// Distributed-tracing sample rate: roots a trace on every request
  /// whose id is divisible by this (1 = trace everything, 100 = 1%);
  /// 0 disables rooting. Requests arriving with a trace already active
  /// join it regardless. Trace ids are a deterministic mix of the client
  /// seed and the request id, so a fleet-wide trace is reproducible.
  std::uint64_t trace_sample_den = 0;
  /// Called to wait out a backoff; defaults to sleep_for. Tests inject a
  /// recorder so retry schedules are assertable without real sleeping.
  std::function<void(std::chrono::microseconds)> sleep;
  /// Retry budget (token bucket): every select()/stats() call deposits
  /// this many tokens and each retry spends one, so at steady state at
  /// most ~ratio of requests may retry. When the bucket is dry the client
  /// returns the last failure instead of retrying — a brownout's shed
  /// wave cannot be amplified into a retry storm that outlives it.
  /// Non-positive disables the budget (retries bounded by max_attempts
  /// only).
  double retry_budget_ratio = 0.1;
  /// Tokens in the bucket at construction — slack for cold-start bursts
  /// before deposits accumulate.
  double retry_budget_initial = 8.0;
};

class Client {
 public:
  explicit Client(Transport transport, ClientOptions options = {});

  /// Selects with retry. Returns the first conclusive response; after
  /// max_attempts inconclusive tries, returns the last failure (a
  /// MalformedRequest status when not even one response frame decoded).
  SelectResponse select(const SelectRequest& request);

  /// Stats scrape with the same retry policy (no fault injection — the
  /// scrape path is for diagnosing the faults).
  StatsResponse stats(const StatsRequest& request);

  /// Retries performed across all calls so far.
  std::uint64_t retries() const { return retries_; }

  /// select()/stats() calls made so far (the deposit stream — with
  /// `retries()` this bounds-checks the budget: retries <= initial +
  /// ratio * calls).
  std::uint64_t calls() const { return calls_; }

  /// Retries skipped because the token bucket was dry. Also exported as
  /// the global "serve.client.retry_budget_exhausted" counter.
  std::uint64_t retry_budget_exhausted() const { return budget_exhausted_; }

 private:
  /// Whether a decoded response settles the call (false = retry).
  static bool conclusive(ResponseStatus status);
  /// Deposits the per-call tokens (called once per select()/stats()).
  void deposit_retry_tokens();
  /// Spends one token; false (and counts exhaustion) when the bucket is
  /// dry and the budget is enabled.
  bool spend_retry_token();
  std::chrono::microseconds backoff_delay(int attempt);
  void wait(std::chrono::microseconds delay);
  /// The retry loop behind select() and stats(): per attempt, `encode`s
  /// a frame under the current trace context, sends it, and settles on
  /// the first conclusive `answer` of a `reply_type` reply.
  template <typename Response, typename Encode>
  Response call(std::uint64_t request_id, MessageType reply_type,
                Response Decoded::*answer, const Encode& encode);

  Transport transport_;
  ClientOptions options_;
  Rng rng_;
  std::uint64_t retries_ = 0;
  std::uint64_t calls_ = 0;
  std::uint64_t budget_exhausted_ = 0;
  double retry_tokens_ = 0.0;
  obs::Counter* exhausted_counter_ = nullptr;
};

}  // namespace acsel::serve
