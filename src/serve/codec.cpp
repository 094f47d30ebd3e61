#include "serve/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "util/error.h"

namespace acsel::serve {
namespace {

// ---- primitive writers (little-endian) ---------------------------------

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

void put_string(std::vector<std::uint8_t>& out, const std::string& s) {
  ACSEL_CHECK_MSG(s.size() <= 0xffff, "wire string too long: " + s);
  put_u16(out, static_cast<std::uint16_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/// Overwrites the `width`-byte little-endian field at `at`: a length that
/// is known only once what it measures has been written.
void patch(std::vector<std::uint8_t>& out, std::size_t at, std::size_t v,
           std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// ---- primitive readers --------------------------------------------------

/// Internal decode failure; caught at the frame boundary and mapped to
/// DecodeStatus::MalformedPayload. Never escapes this file.
struct PayloadError {};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  /// A 0/1 byte; any other value is not something an encoder writes.
  bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) {
      throw PayloadError{};
    }
    return v == 1;
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(
                                                       i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    const std::span<const std::uint8_t> s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::string string() {
    const std::span<const std::uint8_t> s = bytes(u16());
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  bool exhausted() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) {
    if (data_.size() - pos_ < n) {
      throw PayloadError{};
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

// ---- record / request / response payloads ------------------------------

void put_record(std::vector<std::uint8_t>& out,
                const profile::KernelRecord& record) {
  put_string(out, record.benchmark);
  put_string(out, record.input);
  put_string(out, record.kernel);
  put_u8(out, record.config.device == hw::Device::Gpu ? 1 : 0);
  put_u8(out, static_cast<std::uint8_t>(record.config.cpu_pstate));
  put_u8(out, static_cast<std::uint8_t>(record.config.threads));
  put_u8(out, static_cast<std::uint8_t>(record.config.gpu_pstate));
  put_u8(out, record.config.mapping == hw::CoreMapping::Scatter ? 1 : 0);
  put_f64(out, record.time_ms);
  put_f64(out, record.cpu_power_w);
  put_f64(out, record.nbgpu_power_w);
  put_f64(out, record.energy_j);
  const soc::CounterBlock& c = record.counters;
  for (const double v :
       {c.instructions, c.l1d_misses, c.l2d_misses, c.tlb_misses, c.branches,
        c.vector_insts, c.stalled_cycles, c.core_cycles, c.reference_cycles,
        c.idle_fpu_cycles, c.interrupts, c.dram_accesses}) {
    put_f64(out, v);
  }
}

profile::KernelRecord read_record(Reader& r) {
  profile::KernelRecord record;
  record.benchmark = r.string();
  record.input = r.string();
  record.kernel = r.string();
  record.config.device = r.boolean() ? hw::Device::Gpu : hw::Device::Cpu;
  record.config.cpu_pstate = r.u8();
  record.config.threads = r.u8();
  record.config.gpu_pstate = r.u8();
  record.config.mapping =
      r.boolean() ? hw::CoreMapping::Scatter : hw::CoreMapping::Compact;
  try {
    record.config.validate();
  } catch (const Error&) {
    throw PayloadError{};
  }
  record.time_ms = r.f64();
  record.cpu_power_w = r.f64();
  record.nbgpu_power_w = r.f64();
  record.energy_j = r.f64();
  soc::CounterBlock& c = record.counters;
  for (double* v :
       {&c.instructions, &c.l1d_misses, &c.l2d_misses, &c.tlb_misses,
        &c.branches, &c.vector_insts, &c.stalled_cycles, &c.core_cycles,
        &c.reference_cycles, &c.idle_fpu_cycles, &c.interrupts,
        &c.dram_accesses}) {
    *v = r.f64();
  }
  return record;
}

// Goal and optional cap, shared by SelectRequest and FeedbackRequest. A
// cap that is present must be finite and positive, the scheduler's own
// precondition: refused here, a bad cap can neither throw inside a worker
// (charged to the circuit breaker) nor be served as uncapped.
void read_goal_and_cap(Reader& r, core::SchedulingGoal& goal,
                       std::optional<double>& cap_w) {
  const std::uint8_t raw_goal = r.u8();
  if (raw_goal > static_cast<std::uint8_t>(
                     core::SchedulingGoal::MinEnergyDelay)) {
    throw PayloadError{};
  }
  goal = static_cast<core::SchedulingGoal>(raw_goal);
  const bool has_cap = r.boolean();
  const double cap = r.f64();
  if (has_cap) {
    if (!(std::isfinite(cap) && cap > 0.0)) {
      throw PayloadError{};
    }
    cap_w = cap;
  }
}

void put_request_payload(std::vector<std::uint8_t>& out,
                         const SelectRequest& request) {
  put_u64(out, request.request_id);
  put_u64(out, request.model_version);
  put_u8(out, static_cast<std::uint8_t>(request.goal));
  put_u8(out, request.cap_w.has_value() ? 1 : 0);
  put_f64(out, request.cap_w.value_or(0.0));
  put_u64(out, request.deadline_ns);
  put_record(out, request.samples.cpu);
  put_record(out, request.samples.gpu);
}

// Fills the payload fields of `request`; priority and fingerprint come
// from the frame's extension entries, decoded before the payload.
void read_request_payload(Reader& r, SelectRequest& request) {
  request.request_id = r.u64();
  request.model_version = r.u64();
  read_goal_and_cap(r, request.goal, request.cap_w);
  request.deadline_ns = r.u64();
  request.samples.cpu = read_record(r);
  request.samples.gpu = read_record(r);
}

void put_response_payload(std::vector<std::uint8_t>& out,
                          const SelectResponse& response) {
  put_u64(out, response.request_id);
  put_u8(out, static_cast<std::uint8_t>(response.status));
  put_u64(out, response.model_version);
  put_u32(out, response.config_index);
  put_f64(out, response.predicted_power_w);
  put_f64(out, response.predicted_performance);
  put_u8(out, response.predicted_feasible ? 1 : 0);
}

SelectResponse read_response_payload(Reader& r) {
  SelectResponse response;
  response.request_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(ResponseStatus::Unsupported)) {
    throw PayloadError{};
  }
  response.status = static_cast<ResponseStatus>(status);
  response.model_version = r.u64();
  response.config_index = r.u32();
  response.predicted_power_w = r.f64();
  response.predicted_performance = r.f64();
  response.predicted_feasible = r.boolean();
  return response;
}

void put_stats_request_payload(std::vector<std::uint8_t>& out,
                               const StatsRequest& request) {
  put_u64(out, request.request_id);
}

StatsRequest read_stats_request_payload(Reader& r) {
  StatsRequest request;
  request.request_id = r.u64();
  return request;
}

void put_stats_response_payload(std::vector<std::uint8_t>& out,
                                const StatsResponse& response) {
  put_u64(out, response.request_id);
  put_u8(out, static_cast<std::uint8_t>(response.status));
  put_u32(out, static_cast<std::uint32_t>(response.metrics.size()));
  for (const obs::MetricSnapshot& metric : response.metrics) {
    put_string(out, metric.name);
    put_u8(out, static_cast<std::uint8_t>(metric.kind));
    put_u64(out, metric.count);
    put_f64(out, metric.value);
    put_f64(out, metric.p50_us);
    put_f64(out, metric.p99_us);
    put_f64(out, metric.max_us);
  }
  put_u32(out, static_cast<std::uint32_t>(response.alerts.size()));
  for (const obs::Alert& alert : response.alerts) {
    put_string(out, alert.slo);
    put_u64(out, alert.fired_tick);
    put_u64(out, alert.cleared_tick);
    put_f64(out, alert.fast_burn);
    put_f64(out, alert.slow_burn);
    put_f64(out, alert.worst_value);
    put_f64(out, alert.membership_transitions);
    put_f64(out, alert.promotions);
    put_f64(out, alert.rollbacks);
    put_u32(out, static_cast<std::uint32_t>(alert.exemplar_trace_ids.size()));
    for (const std::uint64_t trace_id : alert.exemplar_trace_ids) {
      put_u64(out, trace_id);
    }
  }
}

StatsResponse read_stats_response_payload(Reader& r) {
  StatsResponse response;
  response.request_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(ResponseStatus::Unsupported)) {
    throw PayloadError{};
  }
  response.status = static_cast<ResponseStatus>(status);
  const std::uint32_t count = r.u32();
  // A metric entry is at least 43 bytes on the wire; a count the payload
  // cannot possibly hold is malformed (and would otherwise let a 4-byte
  // field demand gigabytes of vector).
  if (count > kMaxPayloadBytes / 43) {
    throw PayloadError{};
  }
  response.metrics.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    obs::MetricSnapshot metric;
    metric.name = r.string();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(obs::MetricKind::Histogram)) {
      throw PayloadError{};
    }
    metric.kind = static_cast<obs::MetricKind>(kind);
    metric.count = r.u64();
    metric.value = r.f64();
    metric.p50_us = r.f64();
    metric.p99_us = r.f64();
    metric.max_us = r.f64();
    response.metrics.push_back(std::move(metric));
  }
  const std::uint32_t alert_count = r.u32();
  // An alert entry is at least 70 bytes on the wire.
  if (alert_count > kMaxPayloadBytes / 70) {
    throw PayloadError{};
  }
  response.alerts.reserve(alert_count);
  for (std::uint32_t i = 0; i < alert_count; ++i) {
    obs::Alert alert;
    alert.slo = r.string();
    alert.fired_tick = r.u64();
    alert.cleared_tick = r.u64();
    // An alert that never fired, or cleared before it fired, cannot have
    // been produced by the engine.
    if (alert.fired_tick == 0 ||
        (alert.cleared_tick != 0 && alert.cleared_tick < alert.fired_tick)) {
      throw PayloadError{};
    }
    alert.fast_burn = r.f64();
    alert.slow_burn = r.f64();
    alert.worst_value = r.f64();
    alert.membership_transitions = r.f64();
    alert.promotions = r.f64();
    alert.rollbacks = r.f64();
    for (const double v :
         {alert.fast_burn, alert.slow_burn, alert.worst_value,
          alert.membership_transitions, alert.promotions, alert.rollbacks}) {
      if (!std::isfinite(v)) {
        throw PayloadError{};
      }
    }
    const std::uint32_t exemplar_count = r.u32();
    if (exemplar_count > kMaxPayloadBytes / 8) {
      throw PayloadError{};
    }
    alert.exemplar_trace_ids.reserve(exemplar_count);
    for (std::uint32_t e = 0; e < exemplar_count; ++e) {
      alert.exemplar_trace_ids.push_back(r.u64());
    }
    response.alerts.push_back(std::move(alert));
  }
  return response;
}

void put_feedback_request_payload(std::vector<std::uint8_t>& out,
                                  const FeedbackRequest& feedback) {
  put_u64(out, feedback.request_id);
  put_u64(out, feedback.model_version);
  put_u8(out, static_cast<std::uint8_t>(feedback.goal));
  put_u8(out, feedback.cap_w.has_value() ? 1 : 0);
  put_f64(out, feedback.cap_w.value_or(0.0));
  put_f64(out, feedback.predicted_power_w);
  put_f64(out, feedback.predicted_performance);
  put_f64(out, feedback.measured_power_w);
  put_f64(out, feedback.measured_performance);
  put_record(out, feedback.samples.cpu);
  put_record(out, feedback.samples.gpu);
}

FeedbackRequest read_feedback_request_payload(Reader& r) {
  FeedbackRequest feedback;
  feedback.request_id = r.u64();
  feedback.model_version = r.u64();
  read_goal_and_cap(r, feedback.goal, feedback.cap_w);
  // Non-finite residual inputs are rejected at the wire — the adapt loop
  // would discard them anyway, and a NaN here is a client bug, not drift.
  feedback.predicted_power_w = r.f64();
  feedback.predicted_performance = r.f64();
  feedback.measured_power_w = r.f64();
  feedback.measured_performance = r.f64();
  for (const double v :
       {feedback.predicted_power_w, feedback.predicted_performance,
        feedback.measured_power_w, feedback.measured_performance}) {
    if (!std::isfinite(v)) {
      throw PayloadError{};
    }
  }
  feedback.samples.cpu = read_record(r);
  feedback.samples.gpu = read_record(r);
  return feedback;
}

void put_feedback_response_payload(std::vector<std::uint8_t>& out,
                                   const FeedbackResponse& response) {
  put_u64(out, response.request_id);
  put_u8(out, static_cast<std::uint8_t>(response.status));
}

FeedbackResponse read_feedback_response_payload(Reader& r) {
  FeedbackResponse response;
  response.request_id = r.u64();
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(ResponseStatus::Unsupported)) {
    throw PayloadError{};
  }
  response.status = static_cast<ResponseStatus>(status);
  return response;
}

// Extension-entry types (see codec.h).
enum Extension : std::uint8_t {
  kTraceEntry = 1,
  kPriorityEntry = 2,
  kFingerprintEntry = 3,
};

void put_entry(std::vector<std::uint8_t>& out, Extension type,
               std::size_t length) {
  put_u8(out, type);
  put_u8(out, static_cast<std::uint8_t>(length));
}

// Appends one frame to `out` in place: the header, an extension entry for
// each non-null field, then the payload `put_payload` writes. The two
// length fields are back-patched once what they measure is written.
template <typename Message>
void put_frame(std::vector<std::uint8_t>& out, MessageType type,
               void (*put_payload)(std::vector<std::uint8_t>&,
                                   const Message&),
               const Message& message, const obs::TraceContext* trace,
               const Priority* priority = nullptr,
               const HardwareFingerprint* fingerprint = nullptr) {
  ACSEL_CHECK_MSG(fingerprint == nullptr || fingerprint->hash != 0,
                  "a zero-hash fingerprint cannot go on the wire");
  const std::size_t start = out.size();
  put_u32(out, kWireMagic);
  put_u8(out, kWireVersion);
  put_u8(out, static_cast<std::uint8_t>(type));
  put_u16(out, 0);  // extension bytes
  put_u32(out, 0);  // payload length
  if (trace != nullptr) {
    put_entry(out, kTraceEntry, kTraceBlockBytes);
    put_u64(out, trace->trace_id);
    put_u64(out, trace->span_id);
    put_u64(out, trace->parent_id);
    put_u8(out, trace->sampled ? 1 : 0);
  }
  if (priority != nullptr) {
    put_entry(out, kPriorityEntry, kPriorityBlockBytes);
    put_u8(out, static_cast<std::uint8_t>(*priority));
  }
  if (fingerprint != nullptr) {
    put_entry(out, kFingerprintEntry, kFingerprintBlockBytes);
    put_u64(out, fingerprint->hash);
    put_u32(out, fingerprint->cpu_cores);
    put_u32(out, fingerprint->gpu_cores);
    put_f64(out, fingerprint->cpu_peak_ghz);
    put_f64(out, fingerprint->gpu_peak_mhz);
    put_f64(out, fingerprint->idle_power_w);
    put_f64(out, fingerprint->peak_power_w);
  }
  const std::size_t payload_start = out.size();
  put_payload(out, message);
  const std::size_t payload_bytes = out.size() - payload_start;
  if (payload_bytes > kMaxPayloadBytes) {
    out.resize(start);  // leave `out` as the caller passed it
  }
  ACSEL_CHECK_MSG(payload_bytes <= kMaxPayloadBytes,
                  "encoded payload exceeds kMaxPayloadBytes");
  patch(out, start + 6, payload_start - start - kFrameHeaderBytes, 2);
  patch(out, start + 8, payload_bytes, 4);
}

// Decodes the frame's extension list into `result`. An unknown type is
// skipped by its length; a known one must be exactly its layout's length
// and appear at most once. A violation, or an entry running past the
// list, throws PayloadError — the frame is framed, so it stays skippable.
void read_extensions(Reader list, Decoded& result) {
  constexpr std::size_t kEntryBytes[] = {0, kTraceBlockBytes,
                                         kPriorityBlockBytes,
                                         kFingerprintBlockBytes};
  unsigned seen = 0;
  while (!list.exhausted()) {
    const std::uint8_t type = list.u8();
    const std::uint8_t length = list.u8();
    Reader entry{list.bytes(length)};
    if (type < kTraceEntry || type > kFingerprintEntry) {
      continue;  // a field from a newer build: skipped by its length
    }
    if (length != kEntryBytes[type] || (seen & (1u << type)) != 0) {
      throw PayloadError{};
    }
    seen |= 1u << type;
    switch (type) {
      case kTraceEntry:
        result.trace.trace_id = entry.u64();
        result.trace.span_id = entry.u64();
        result.trace.parent_id = entry.u64();
        result.trace.sampled = entry.boolean();
        result.has_trace = true;
        break;
      case kPriorityEntry: {
        const std::uint8_t priority = entry.u8();
        if (priority > static_cast<std::uint8_t>(Priority::Low)) {
          throw PayloadError{};
        }
        result.request.priority = static_cast<Priority>(priority);
        break;
      }
      case kFingerprintEntry: {
        HardwareFingerprint& fp = result.request.fingerprint.emplace();
        fp.hash = entry.u64();
        fp.cpu_cores = entry.u32();
        fp.gpu_cores = entry.u32();
        fp.cpu_peak_ghz = entry.f64();
        fp.gpu_peak_mhz = entry.f64();
        fp.idle_power_w = entry.f64();
        fp.peak_power_w = entry.f64();
        // No encoder writes a zero hash or a non-finite/negative
        // descriptor.
        bool valid = fp.hash != 0;
        for (const double v : {fp.cpu_peak_ghz, fp.gpu_peak_mhz,
                               fp.idle_power_w, fp.peak_power_w}) {
          valid = valid && std::isfinite(v) && v >= 0.0;
        }
        if (!valid) {
          throw PayloadError{};
        }
        break;
      }
    }
  }
}

}  // namespace

const char* to_string(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::Ok:
      return "Ok";
    case DecodeStatus::NeedMoreData:
      return "NeedMoreData";
    case DecodeStatus::BadMagic:
      return "BadMagic";
    case DecodeStatus::UnsupportedVersion:
      return "UnsupportedVersion";
    case DecodeStatus::OversizedFrame:
      return "OversizedFrame";
    case DecodeStatus::UnknownType:
      return "UnknownType";
    case DecodeStatus::MalformedPayload:
      return "MalformedPayload";
  }
  return "?";
}

void encode_request(const SelectRequest& request,
                    std::vector<std::uint8_t>& out,
                    const obs::TraceContext* trace) {
  // Normal priority and a missing fingerprint emit no entry, so a request
  // that sets neither encodes exactly as builds that predate them.
  put_frame(out, MessageType::SelectRequest, put_request_payload, request,
            trace,
            request.priority != Priority::Normal ? &request.priority : nullptr,
            request.fingerprint.has_value() ? &*request.fingerprint
                                            : nullptr);
}

void encode_response(const SelectResponse& response,
                     std::vector<std::uint8_t>& out,
                     const obs::TraceContext* trace) {
  put_frame(out, MessageType::SelectResponse, put_response_payload, response,
            trace);
}

void encode_stats_request(const StatsRequest& request,
                          std::vector<std::uint8_t>& out,
                          const obs::TraceContext* trace) {
  put_frame(out, MessageType::StatsRequest, put_stats_request_payload,
            request, trace);
}

void encode_stats_response(const StatsResponse& response,
                           std::vector<std::uint8_t>& out,
                           const obs::TraceContext* trace) {
  put_frame(out, MessageType::StatsResponse, put_stats_response_payload,
            response, trace);
}

void encode_feedback_request(const FeedbackRequest& feedback,
                             std::vector<std::uint8_t>& out,
                             const obs::TraceContext* trace) {
  put_frame(out, MessageType::FeedbackRequest, put_feedback_request_payload,
            feedback, trace);
}

void encode_feedback_response(const FeedbackResponse& response,
                              std::vector<std::uint8_t>& out,
                              const obs::TraceContext* trace) {
  put_frame(out, MessageType::FeedbackResponse, put_feedback_response_payload,
            response, trace);
}

Decoded decode_frame(std::span<const std::uint8_t> buffer,
                     std::size_t max_payload_bytes) {
  const std::size_t payload_cap = std::min(max_payload_bytes, kMaxPayloadBytes);
  Decoded result;
  if (buffer.size() < kFrameHeaderBytes) {
    result.status = DecodeStatus::NeedMoreData;
    return result;
  }
  Reader header{buffer.first(kFrameHeaderBytes)};
  if (header.u32() != kWireMagic) {
    result.status = DecodeStatus::BadMagic;
    return result;
  }
  if (header.u8() != kWireVersion) {
    result.status = DecodeStatus::UnsupportedVersion;
    return result;
  }
  const std::uint8_t raw_type = header.u8();
  const std::uint16_t extension_bytes = header.u16();
  const std::uint32_t payload_size = header.u32();
  // Rejected from the header alone — an adversarial length prefix (up to
  // the full 4 GiB a u32 can declare) never causes buffering or
  // allocation, and all-0xff prefixes cannot overflow the size math
  // below, which is done in 64 bits.
  if (payload_size > payload_cap) {
    result.status = DecodeStatus::OversizedFrame;
    return result;
  }
  if (raw_type < static_cast<std::uint8_t>(MessageType::SelectRequest) ||
      raw_type > static_cast<std::uint8_t>(MessageType::FeedbackResponse)) {
    result.status = DecodeStatus::UnknownType;
    return result;
  }
  result.type = static_cast<MessageType>(raw_type);
  const std::uint64_t frame_size =
      std::uint64_t{kFrameHeaderBytes} + extension_bytes + payload_size;
  if (buffer.size() < frame_size) {
    result.status = DecodeStatus::NeedMoreData;
    return result;
  }
  // The header sized the frame, so whatever fails below leaves it
  // skippable.
  result.bytes_consumed = frame_size;
  Reader payload{
      buffer.subspan(kFrameHeaderBytes + extension_bytes, payload_size)};
  try {
    read_extensions(Reader{buffer.subspan(kFrameHeaderBytes, extension_bytes)},
                    result);
    switch (result.type) {
      case MessageType::SelectRequest:
        read_request_payload(payload, result.request);
        break;
      case MessageType::SelectResponse:
        result.response = read_response_payload(payload);
        break;
      case MessageType::StatsRequest:
        result.stats_request = read_stats_request_payload(payload);
        break;
      case MessageType::StatsResponse:
        result.stats_response = read_stats_response_payload(payload);
        break;
      case MessageType::FeedbackRequest:
        result.feedback = read_feedback_request_payload(payload);
        break;
      case MessageType::FeedbackResponse:
        result.feedback_response = read_feedback_response_payload(payload);
        break;
    }
    if (!payload.exhausted()) {
      throw PayloadError{};
    }
    result.status = DecodeStatus::Ok;
  } catch (const PayloadError&) {
    result.status = DecodeStatus::MalformedPayload;
  }
  return result;
}

}  // namespace acsel::serve
