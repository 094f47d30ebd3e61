// Request/response types of the configuration-selection service. A
// SelectRequest carries everything the online stage needs about a kernel —
// its two sample-configuration measurements (§III-C) — plus the scheduling
// goal and power cap; a SelectResponse carries the selected configuration
// and the predictions it was chosen on, tagged with the model version that
// produced them so clients can reason about hot-swaps.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/characterization.h"
#include "core/scheduler.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace acsel::serve {

/// Outcome of serving one request.
enum class ResponseStatus : std::uint8_t {
  Ok = 0,
  /// Rejected at the door: the request queue was full (backpressure —
  /// the server sheds rather than growing without bound).
  Shed = 1,
  /// The wire frame decoded but violated the request contract.
  MalformedRequest = 2,
  /// The request pinned a model version the registry does not hold.
  UnknownModelVersion = 3,
  /// No model has been published to the registry yet.
  NoModelPublished = 4,
  /// Prediction/selection threw (e.g. a corrupt model).
  InternalError = 5,
  /// The request's deadline expired before a worker picked it up; the
  /// server shed it instead of serving a stale answer.
  DeadlineExceeded = 6,
  /// The server understood the message but has no handler for it (e.g. a
  /// FeedbackRequest with no adapt sink attached).
  Unsupported = 7,
};

const char* to_string(ResponseStatus status);

/// Overload-control class of a request. Under queue pressure the server
/// sheds Low first, then Normal; High is only shed when the queue is
/// truly full. The fleet's brownout stages shed Low at the router before
/// any replica sees the request. Encoded on the wire as an optional frame
/// extension entry; an absent entry means Normal, so Normal requests are
/// byte-identical to frames from builds that predate priorities.
enum class Priority : std::uint8_t {
  High = 0,
  Normal = 1,
  Low = 2,
};

inline constexpr std::size_t kPriorityClasses = 3;

const char* to_string(Priority priority);

/// Stable identity of a machine architecture, carried on requests so the
/// registry can serve the model trained for the requester's hardware.
/// `hash` is computed by zoo::fingerprint_of from the canonical
/// serialization of core counts, frequency grids and power-curve
/// coefficients; the descriptor fields are a coarse embedding used to pick
/// the *nearest* architecture when no exact hash match is published.
/// Defined here (not in zoo) because the codec and registry must handle
/// it, and serve never depends on the layers above it. Encoded on the
/// wire as an optional frame extension entry; absent entry =
/// fingerprint-less request, byte-identical to older builds.
struct HardwareFingerprint {
  std::uint64_t hash = 0;  ///< canonical spec hash; 0 = "no fingerprint"
  std::uint32_t cpu_cores = 0;
  std::uint32_t gpu_cores = 0;
  double cpu_peak_ghz = 0.0;
  double gpu_peak_mhz = 0.0;
  double idle_power_w = 0.0;
  double peak_power_w = 0.0;

  /// Architectural identity is the hash; the descriptor only breaks ties.
  bool operator==(const HardwareFingerprint& other) const {
    return hash == other.hash;
  }

  /// Relative L2 distance between descriptors — scale-free so a 3 GHz/45 W
  /// delta counts the same on an edge SoC and an HPC node.
  double distance_to(const HardwareFingerprint& other) const;
};

struct SelectRequest {
  /// Client-chosen correlation id, echoed back verbatim.
  std::uint64_t request_id = 0;
  /// Model version to serve with; 0 means "the registry's current
  /// version at processing time" (the common case).
  std::uint64_t model_version = 0;
  core::SchedulingGoal goal = core::SchedulingGoal::MaxPerformance;
  /// Power cap in watts; nullopt selects unconstrained.
  std::optional<double> cap_w;
  /// Absolute deadline on the originating request's clock, in ns; 0 means
  /// no deadline. Propagated through the fleet so derived work (hedges,
  /// reroutes) cannot outlive a deadline the caller has already blown.
  std::uint64_t deadline_ns = 0;
  /// Overload-control class; Normal when the client does not care.
  Priority priority = Priority::Normal;
  /// Architecture the requester runs on; nullopt = the legacy
  /// single-machine flow (serve whatever model is current).
  std::optional<HardwareFingerprint> fingerprint;
  /// The kernel's two sample runs — the online stage's whole world.
  core::SamplePair samples;
};

struct SelectResponse {
  std::uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::Ok;
  /// The model version that actually served the request (resolved from
  /// "current" for version-0 requests); 0 when no model was applied.
  std::uint64_t model_version = 0;
  /// Index into hw::ConfigSpace order.
  std::uint32_t config_index = 0;
  double predicted_power_w = 0.0;
  double predicted_performance = 0.0;
  /// Mirrors core::Scheduler::Choice::predicted_feasible.
  bool predicted_feasible = false;
};

/// Pulls the server's metric registry over the wire. Answered inline at
/// the frame layer — a stats scrape never enters the request queue, so
/// monitoring cannot add latency to (or be shed by) the select hot path.
struct StatsRequest {
  /// Client-chosen correlation id, echoed back verbatim.
  std::uint64_t request_id = 0;
};

/// A client reporting what actually happened after acting on a selection:
/// the predictions it was handed and the powers/performance it then
/// measured, plus the sample pair so the adapt loop can re-classify. This
/// is the residual stream that drives drift detection server-side.
struct FeedbackRequest {
  /// Client-chosen correlation id, echoed back verbatim.
  std::uint64_t request_id = 0;
  /// The model version whose prediction this feedback judges.
  std::uint64_t model_version = 0;
  core::SchedulingGoal goal = core::SchedulingGoal::MaxPerformance;
  /// The cap the selection was made under; nullopt = unconstrained.
  std::optional<double> cap_w;
  double predicted_power_w = 0.0;
  double predicted_performance = 0.0;
  double measured_power_w = 0.0;
  double measured_performance = 0.0;
  /// The kernel's sample runs, for cluster attribution of the residual.
  core::SamplePair samples;
};

struct FeedbackResponse {
  std::uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::Ok;
};

struct StatsResponse {
  std::uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::Ok;
  /// The responder's registry rows, sorted by metric name. Layers above
  /// serve (adapt, fleet, series, SLO) publish their state here as
  /// ordinary counter/gauge rows.
  std::vector<obs::MetricSnapshot> metrics;
  /// Every SLO alert fired so far, in fire order (empty when the
  /// responder runs no SloEngine).
  std::vector<obs::Alert> alerts;
};

/// What the server calls into when adaptation is wired up — implemented
/// by adapt::AdaptController. Defined here (not in adapt) so serve never
/// depends on the adapt library; the dependency points the other way.
/// Implementations must be safe to call from any server worker thread.
class AdaptSink {
 public:
  virtual ~AdaptSink();

  /// A client's measured-vs-predicted feedback arrived on the wire.
  virtual void on_feedback(const FeedbackRequest& feedback) = 0;

  /// A request was served Ok; a live canary may shadow-predict it.
  /// Returns whether the candidate actually exercised this request.
  virtual bool on_served(const SelectRequest& request,
                         const SelectResponse& response) = 0;
};

}  // namespace acsel::serve
