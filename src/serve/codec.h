// Length-prefixed binary wire codec for the selection service, so the
// server can later sit behind a real socket. Framing (version 2):
//
//   u32  magic          "ACSL" (0x4C534341 little-endian)
//   u8   protocol version (currently 2)
//   u8   message type   (1 = SelectRequest, 2 = SelectResponse,
//                        3 = StatsRequest, 4 = StatsResponse,
//                        5 = FeedbackRequest, 6 = FeedbackResponse)
//   u16  flags          (bit 0 = trace-context block present, bit 1 =
//                        priority block present, bit 2 = hardware-
//                        fingerprint block present; all other bits
//                        reserved, must be 0)
//   u32  payload length (hard-capped at kMaxPayloadBytes; excludes the
//                        optional blocks)
//   [trace block — 25 bytes, present iff flags bit 0]
//     u64 trace_id, u64 span_id, u64 parent_id, u8 sampled (0/1)
//   [priority block — 1 byte, present iff flags bit 1]
//     u8 priority (0 = High, 1 = Normal, 2 = Low)
//   [fingerprint block — 49 bytes, present iff flags bit 2]
//     u8 block version (currently 1; any other value refuses the frame
//        as UnsupportedVersion, since a future layout may change the
//        block's size), u64 hash (must be nonzero), u32 cpu_cores,
//     u32 gpu_cores, f64 cpu_peak_ghz, f64 gpu_peak_mhz,
//     f64 idle_power_w, f64 peak_power_w
//   ...  payload
//
// Version history: v1 had the same 12-byte header with the u16 as an
// always-zero reserved field and no trace block; v2 repurposed it as
// flags and appended deadline_ns to the SelectRequest payload. The
// priority block (bit 1) and the fingerprint block (bit 2) arrived later
// within v2 under one compatibility rule: a request with neither block
// is a Normal-priority, fingerprint-less request, byte-identical to the
// builds that predate them. The StatsResponse payload is the registry
// rows followed by the alert rows; its earlier layout (bespoke adapt,
// fleet, series and slo blocks after the rows) decodes as
// MalformedPayload. The decoder speaks only the current version — v1
// frames report UnsupportedVersion, as do frames setting flag bits this
// build does not know (a frame whose size cannot be determined must not
// be resynchronized by guesswork).
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// patterns, so predictions round-trip bit-exactly. Decoding never throws:
// short input reports NeedMoreData (the streaming "read more bytes" case)
// and every malformed condition maps to an explicit status so a server can
// reject without dying.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/trace.h"
#include "serve/message.h"

namespace acsel::serve {

inline constexpr std::uint32_t kWireMagic = 0x4C534341u;  // "ACSL"
inline constexpr std::uint8_t kWireVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 12;
/// Header flags (the u16 that was reserved-zero in v1).
inline constexpr std::uint16_t kFlagTraceContext = 0x0001;
inline constexpr std::uint16_t kFlagPriority = 0x0002;
inline constexpr std::uint16_t kFlagFingerprint = 0x0004;
inline constexpr std::uint16_t kKnownFlags =
    kFlagTraceContext | kFlagPriority | kFlagFingerprint;
/// Trace block: trace_id + span_id + parent_id + sampled.
inline constexpr std::size_t kTraceBlockBytes = 25;
/// Priority block: one Priority byte.
inline constexpr std::size_t kPriorityBlockBytes = 1;
/// Fingerprint block: block version + hash + core counts + 4 descriptor
/// doubles. The leading version byte lets the block grow without minting
/// a new flag bit.
inline constexpr std::uint8_t kFingerprintBlockVersion = 1;
inline constexpr std::size_t kFingerprintBlockBytes = 1 + 8 + 4 + 4 + 4 * 8;
/// A sample pair encodes in well under 1 KiB; anything near this limit is
/// garbage or an attack, not a request.
inline constexpr std::size_t kMaxPayloadBytes = 64 * 1024;

enum class MessageType : std::uint8_t {
  SelectRequest = 1,
  SelectResponse = 2,
  StatsRequest = 3,
  StatsResponse = 4,
  FeedbackRequest = 5,
  FeedbackResponse = 6,
};

enum class DecodeStatus {
  Ok,
  /// The buffer holds a valid prefix of a frame; read more and retry.
  NeedMoreData,
  BadMagic,
  UnsupportedVersion,
  /// Declared payload length exceeds kMaxPayloadBytes.
  OversizedFrame,
  UnknownType,
  /// Frame was complete but its payload did not parse (truncated field,
  /// out-of-range enum, trailing bytes, invalid configuration).
  MalformedPayload,
};

const char* to_string(DecodeStatus status);

/// Appends one complete frame carrying `request` / `response` to `out`.
/// A non-null `trace` rides in the frame's trace-context block (flags bit
/// 0), tying the frame into a distributed trace; nullptr emits no block.
void encode_request(const SelectRequest& request,
                    std::vector<std::uint8_t>& out,
                    const obs::TraceContext* trace = nullptr);
void encode_response(const SelectResponse& response,
                     std::vector<std::uint8_t>& out,
                     const obs::TraceContext* trace = nullptr);
void encode_stats_request(const StatsRequest& request,
                          std::vector<std::uint8_t>& out,
                          const obs::TraceContext* trace = nullptr);
void encode_stats_response(const StatsResponse& response,
                           std::vector<std::uint8_t>& out,
                           const obs::TraceContext* trace = nullptr);
void encode_feedback_request(const FeedbackRequest& feedback,
                             std::vector<std::uint8_t>& out,
                             const obs::TraceContext* trace = nullptr);
void encode_feedback_response(const FeedbackResponse& response,
                              std::vector<std::uint8_t>& out,
                              const obs::TraceContext* trace = nullptr);

struct Decoded {
  DecodeStatus status = DecodeStatus::NeedMoreData;
  MessageType type = MessageType::SelectRequest;
  /// Bytes to remove from the front of the stream: the full frame for Ok
  /// and MalformedPayload (a framed-but-bad payload is skippable), 0 for
  /// everything else (header-level corruption — resynchronization is the
  /// transport's problem, typically "drop the connection").
  std::size_t bytes_consumed = 0;
  /// Trace context carried by the frame's trace block (flags bit 0);
  /// `has_trace` is false when the frame carried none.
  bool has_trace = false;
  obs::TraceContext trace;
  /// Valid when status == Ok, type == SelectRequest. The frame's priority
  /// block (flags bit 1) decodes into `request.priority`, Normal when
  /// absent; its fingerprint block (flags bit 2) into
  /// `request.fingerprint`, nullopt when absent.
  SelectRequest request;
  SelectResponse response;  ///< valid when status == Ok, type == SelectResponse
  StatsRequest stats_request;    ///< valid when Ok, type == StatsRequest
  StatsResponse stats_response;  ///< valid when Ok, type == StatsResponse
  FeedbackRequest feedback;      ///< valid when Ok, type == FeedbackRequest
  FeedbackResponse feedback_response;  ///< valid when Ok, FeedbackResponse
};

/// Decodes the frame at the front of `buffer`. `max_payload_bytes`
/// (clamped to kMaxPayloadBytes) lets a deployment tighten the size cap:
/// an adversarial length prefix is rejected as OversizedFrame from the
/// 12-byte header alone, before any payload is buffered or allocated.
Decoded decode_frame(std::span<const std::uint8_t> buffer,
                     std::size_t max_payload_bytes = kMaxPayloadBytes);

}  // namespace acsel::serve
