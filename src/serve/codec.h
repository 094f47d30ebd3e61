// Length-prefixed binary wire codec for the selection service, so the
// server can later sit behind a real socket. Framing (version 2):
//
//   u32  magic           "ACSL" (0x4C534341 little-endian)
//   u8   protocol version (currently 2)
//   u8   message type    (1 = SelectRequest, 2 = SelectResponse,
//                         3 = StatsRequest, 4 = StatsResponse,
//                         5 = FeedbackRequest, 6 = FeedbackResponse)
//   u16  extension bytes (length of the extension list below)
//   u32  payload length  (hard-capped at kMaxPayloadBytes)
//   ...  extension list: entries of u8 type, u8 length, `length` bytes
//     type 1, trace (25 bytes): u64 trace_id, u64 span_id, u64 parent_id,
//       u8 sampled (0/1)
//     type 2, priority (1 byte): u8 priority (0 = High, 1 = Normal,
//       2 = Low)
//     type 3, fingerprint (48 bytes): u64 hash (must be nonzero),
//       u32 cpu_cores, u32 gpu_cores, f64 cpu_peak_ghz, f64 gpu_peak_mhz,
//       f64 idle_power_w, f64 peak_power_w
//   ...  payload
//
// Every frame's size is 12 + extension bytes + payload length, known from
// the header alone. An entry of a type this build does not know is
// skipped by its length, so a new field is one new entry type and old
// peers still decode the frame. A known type with the wrong length, a
// second entry of one type, or an entry running past the list makes the
// frame MalformedPayload (framed, so skippable). Encoders write entries in
// type order and only for fields that differ from the default: a request
// without trace, priority or fingerprint has an empty list.
//
// Version history: v1 had the same 12-byte header with the u16 as an
// always-zero reserved field; v2 appended deadline_ns to the SelectRequest
// payload. Earlier v2 builds used the u16 as flag bits, each gating a
// fixed-size block. Their frames with a bit set no longer decode (the
// bits now read as a list length), so every peer must be built from this
// tree; their frames without one are byte-identical to today's
// extension-less frames. The StatsResponse payload is the registry rows
// followed by the alert rows; its earlier layout (bespoke adapt, fleet,
// series and slo blocks after the rows) decodes as MalformedPayload. The
// decoder speaks only the current version — v1 frames report
// UnsupportedVersion.
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
/// Extension-entry bodies, excluding the 2-byte type/length prefix.
inline constexpr std::size_t kTraceBlockBytes = 25;
inline constexpr std::size_t kPriorityBlockBytes = 1;
inline constexpr std::size_t kFingerprintBlockBytes = 8 + 4 + 4 + 4 * 8;
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
  /// Frame was complete but its extension list or payload did not parse
  /// (truncated field, out-of-range enum, trailing bytes, invalid
  /// configuration, wrong-length or duplicate extension entry).
  MalformedPayload,
};

const char* to_string(DecodeStatus status);

/// Appends one complete frame carrying `request` / `response` to `out`.
/// A non-null `trace` rides in the frame's trace entry, tying the frame
/// into a distributed trace; nullptr emits no entry.
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
  /// and MalformedPayload (a framed-but-bad extension list or payload is
  /// skippable), 0 for everything else (header-level corruption —
  /// resynchronization is the transport's problem, typically "drop the
  /// connection").
  std::size_t bytes_consumed = 0;
  /// Trace context carried by the frame's trace entry; `has_trace` is
  /// false when the frame carried none.
  bool has_trace = false;
  obs::TraceContext trace;
  /// Valid when status == Ok, type == SelectRequest. The frame's priority
  /// entry decodes into `request.priority`, Normal when absent; its
  /// fingerprint entry into `request.fingerprint`, nullopt when absent.
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
