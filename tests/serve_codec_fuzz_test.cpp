// Seeded fuzz sweep of the wire decoder, in soc_fuzz_test's style: no
// corpus, fixed seeds, every case reproducible from its seed and index.
//  - Round-trip: random valid frames of all six message types, carrying
//    random subsets of the trace, priority and fingerprint extensions plus
//    unknown-type entries the decoder must skip, decode to themselves and
//    consume exactly their bytes.
//  - Mutation: bit flips, truncations, and edits to the header's
//    extension-bytes and payload-length fields and to entry lengths yield
//    only a typed DecodeStatus — never an exception — and never consume
//    more than the buffer holds.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hw/config_space.h"
#include "serve/codec.h"
#include "util/rng.h"

namespace acsel::serve {
namespace {

constexpr int kCasesPerSeed = 2500;

std::uint8_t byte(Rng& rng) {
  return static_cast<std::uint8_t>(rng.uniform_index(256));
}

double value(Rng& rng) { return rng.uniform(-1e6, 1e6); }

std::string random_string(Rng& rng) {
  std::string s(static_cast<std::size_t>(rng.uniform_index(24)), '\0');
  for (char& c : s) {
    c = static_cast<char>(byte(rng));
  }
  return s;
}

profile::KernelRecord random_record(Rng& rng) {
  static const hw::ConfigSpace space;
  profile::KernelRecord record;
  record.benchmark = random_string(rng);
  record.input = random_string(rng);
  record.kernel = random_string(rng);
  record.config = space.at(
      static_cast<std::size_t>(rng.uniform_index(space.size())));
  record.time_ms = value(rng);
  record.cpu_power_w = value(rng);
  record.nbgpu_power_w = value(rng);
  record.energy_j = value(rng);
  record.counters.instructions = value(rng);
  record.counters.dram_accesses = value(rng);
  record.counters.interrupts = value(rng);
  return record;
}

core::SchedulingGoal random_goal(Rng& rng) {
  return static_cast<core::SchedulingGoal>(rng.uniform_index(3));
}

std::optional<double> random_cap(Rng& rng) {
  if (rng.uniform() < 0.3) {
    return std::nullopt;
  }
  return rng.uniform(0.5, 200.0);
}

ResponseStatus random_status(Rng& rng) {
  return static_cast<ResponseStatus>(
      rng.uniform_index(static_cast<std::uint64_t>(ResponseStatus::Unsupported) +
                        1));
}

StatsResponse random_stats_response(Rng& rng) {
  StatsResponse response;
  response.request_id = rng.next_u64();
  response.status = random_status(rng);
  response.metrics.resize(static_cast<std::size_t>(rng.uniform_index(4)));
  for (obs::MetricSnapshot& metric : response.metrics) {
    metric.name = random_string(rng);
    metric.kind = static_cast<obs::MetricKind>(rng.uniform_index(3));
    metric.count = rng.next_u64();
    metric.value = value(rng);
    metric.p50_us = value(rng);
    metric.p99_us = value(rng);
    metric.max_us = value(rng);
  }
  response.alerts.resize(static_cast<std::size_t>(rng.uniform_index(3)));
  for (obs::Alert& alert : response.alerts) {
    alert.slo = random_string(rng);
    alert.fired_tick = 1 + rng.uniform_index(1000);
    alert.cleared_tick =
        rng.uniform() < 0.5 ? 0 : alert.fired_tick + rng.uniform_index(1000);
    alert.fast_burn = value(rng);
    alert.slow_burn = value(rng);
    alert.worst_value = value(rng);
    alert.membership_transitions = value(rng);
    alert.promotions = value(rng);
    alert.rollbacks = value(rng);
    alert.exemplar_trace_ids.resize(
        static_cast<std::size_t>(rng.uniform_index(4)));
    for (std::uint64_t& trace_id : alert.exemplar_trace_ids) {
      trace_id = rng.next_u64();
    }
  }
  return response;
}

/// Appends one random valid frame of a random message type to `out`; a
/// trace rides along half the time, and a SelectRequest draws its
/// priority and fingerprint at random too.
void encode_random_frame(Rng& rng, std::vector<std::uint8_t>& out) {
  obs::TraceContext trace;
  trace.trace_id = rng.next_u64();
  trace.span_id = rng.next_u64();
  trace.parent_id = rng.next_u64();
  trace.sampled = rng.uniform() < 0.5;
  const obs::TraceContext* traced = rng.uniform() < 0.5 ? &trace : nullptr;
  switch (rng.uniform_index(6)) {
    case 0: {
      SelectRequest request;
      request.request_id = rng.next_u64();
      request.model_version = rng.next_u64();
      request.goal = random_goal(rng);
      request.cap_w = random_cap(rng);
      request.deadline_ns = rng.next_u64();
      request.priority = static_cast<Priority>(rng.uniform_index(3));
      if (rng.uniform() < 0.5) {
        HardwareFingerprint& fp = request.fingerprint.emplace();
        fp.hash = rng.next_u64() | 1;  // never the reserved zero
        fp.cpu_cores = static_cast<std::uint32_t>(rng.next_u64());
        fp.gpu_cores = static_cast<std::uint32_t>(rng.next_u64());
        fp.cpu_peak_ghz = rng.uniform(0.0, 5.0);
        fp.gpu_peak_mhz = rng.uniform(0.0, 2000.0);
        fp.idle_power_w = rng.uniform(0.0, 50.0);
        fp.peak_power_w = rng.uniform(0.0, 500.0);
      }
      request.samples.cpu = random_record(rng);
      request.samples.gpu = random_record(rng);
      encode_request(request, out, traced);
      break;
    }
    case 1: {
      SelectResponse response;
      response.request_id = rng.next_u64();
      response.status = random_status(rng);
      response.model_version = rng.next_u64();
      response.config_index = static_cast<std::uint32_t>(rng.next_u64());
      response.predicted_power_w = value(rng);
      response.predicted_performance = value(rng);
      response.predicted_feasible = rng.uniform() < 0.5;
      encode_response(response, out, traced);
      break;
    }
    case 2: {
      StatsRequest request;
      request.request_id = rng.next_u64();
      encode_stats_request(request, out, traced);
      break;
    }
    case 3:
      encode_stats_response(random_stats_response(rng), out, traced);
      break;
    case 4: {
      FeedbackRequest feedback;
      feedback.request_id = rng.next_u64();
      feedback.model_version = rng.next_u64();
      feedback.goal = random_goal(rng);
      feedback.cap_w = random_cap(rng);
      feedback.predicted_power_w = value(rng);
      feedback.predicted_performance = value(rng);
      feedback.measured_power_w = value(rng);
      feedback.measured_performance = value(rng);
      feedback.samples.cpu = random_record(rng);
      feedback.samples.gpu = random_record(rng);
      encode_feedback_request(feedback, out, traced);
      break;
    }
    default: {
      FeedbackResponse response;
      response.request_id = rng.next_u64();
      response.status = random_status(rng);
      encode_feedback_response(response, out, traced);
      break;
    }
  }
}

/// Re-encodes what decode_frame produced: byte-equal to the original frame
/// exactly when every field, extension included, round-tripped.
std::vector<std::uint8_t> reencode(const Decoded& decoded) {
  std::vector<std::uint8_t> out;
  const obs::TraceContext* trace = decoded.has_trace ? &decoded.trace : nullptr;
  switch (decoded.type) {
    case MessageType::SelectRequest:
      encode_request(decoded.request, out, trace);
      break;
    case MessageType::SelectResponse:
      encode_response(decoded.response, out, trace);
      break;
    case MessageType::StatsRequest:
      encode_stats_request(decoded.stats_request, out, trace);
      break;
    case MessageType::StatsResponse:
      encode_stats_response(decoded.stats_response, out, trace);
      break;
    case MessageType::FeedbackRequest:
      encode_feedback_request(decoded.feedback, out, trace);
      break;
    case MessageType::FeedbackResponse:
      encode_feedback_response(decoded.feedback_response, out, trace);
      break;
  }
  return out;
}

std::size_t extension_bytes(const std::vector<std::uint8_t>& frame) {
  return static_cast<std::size_t>(frame[6] | (frame[7] << 8));
}

/// Offset of the `index`-th entry of the frame's extension list, or of
/// the list's end when it has fewer entries.
std::size_t entry_offset(const std::vector<std::uint8_t>& frame,
                         std::size_t index) {
  const std::size_t end = kFrameHeaderBytes + extension_bytes(frame);
  std::size_t at = kFrameHeaderBytes;
  for (std::size_t i = 0; i < index && at < end && at + 1 < frame.size();
       ++i) {
    at += 2 + frame[at + 1];
  }
  return at;
}

/// Inserts an entry of an unknown `type` with a random body before the
/// `index`-th entry, growing the header's extension-bytes field.
void insert_unknown_entry(Rng& rng, std::vector<std::uint8_t>& frame,
                          std::size_t index, std::uint8_t type) {
  std::vector<std::uint8_t> entry{type, byte(rng)};
  entry.resize(2 + std::size_t{entry[1]});
  for (std::size_t i = 2; i < entry.size(); ++i) {
    entry[i] = byte(rng);
  }
  const std::size_t at = entry_offset(frame, index);
  frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(at), entry.begin(),
               entry.end());
  const std::size_t grown = extension_bytes(frame) + entry.size();
  frame[6] = static_cast<std::uint8_t>(grown & 0xff);
  frame[7] = static_cast<std::uint8_t>(grown >> 8);
}

/// Types 1-3 are the known extensions; every other byte is unknown.
std::uint8_t unknown_type(Rng& rng) {
  const std::uint8_t type = byte(rng);
  return type >= 1 && type <= 3 ? static_cast<std::uint8_t>(type + 3) : type;
}

void put_le(std::vector<std::uint8_t>& frame, std::size_t at,
            std::uint64_t v, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    frame[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

class FuzzFrame : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzFrame, ValidFramesWithUnknownEntriesRoundTrip) {
  Rng rng{Rng::mix_seeds(0xc0dec, GetParam())};
  for (int c = 0; c < kCasesPerSeed; ++c) {
    std::vector<std::uint8_t> canonical;
    encode_random_frame(rng, canonical);
    std::vector<std::uint8_t> frame = canonical;
    for (std::uint64_t n = rng.uniform_index(4); n > 0; --n) {
      insert_unknown_entry(rng, frame,
                           static_cast<std::size_t>(rng.uniform_index(4)),
                           unknown_type(rng));
    }
    const Decoded decoded = decode_frame(frame);
    ASSERT_EQ(decoded.status, DecodeStatus::Ok) << "case " << c;
    ASSERT_EQ(decoded.bytes_consumed, frame.size()) << "case " << c;
    ASSERT_EQ(reencode(decoded), canonical) << "case " << c;
  }
}

TEST_P(FuzzFrame, MutatedFramesYieldOnlyTypedStatuses) {
  Rng rng{Rng::mix_seeds(0xbadc0de, GetParam())};
  for (int c = 0; c < kCasesPerSeed; ++c) {
    std::vector<std::uint8_t> frame;
    encode_random_frame(rng, frame);
    if (rng.uniform() < 0.5) {
      insert_unknown_entry(rng, frame, 0, unknown_type(rng));
    }
    const std::uint64_t kind = rng.uniform_index(6);
    if (kind == 0) {
      // A strict prefix of a valid frame is always an incomplete read.
      frame.resize(static_cast<std::size_t>(rng.uniform_index(frame.size())));
      const Decoded decoded = decode_frame(frame);
      ASSERT_EQ(decoded.status, DecodeStatus::NeedMoreData) << "case " << c;
      ASSERT_EQ(decoded.bytes_consumed, 0u) << "case " << c;
      continue;
    }
    for (std::uint64_t n = 1 + rng.uniform_index(3); n > 0; --n) {
      switch (rng.uniform_index(5)) {
        case 0: {  // flip one bit anywhere
          const auto at = static_cast<std::size_t>(
              rng.uniform_index(frame.size()));
          frame[at] = static_cast<std::uint8_t>(
              frame[at] ^ (1u << rng.uniform_index(8)));
          break;
        }
        case 1:  // extension bytes: nudged or arbitrary
          put_le(frame, 6,
                 rng.uniform() < 0.5
                     ? extension_bytes(frame) + rng.uniform_index(9) - 4
                     : rng.next_u64(),
                 2);
          break;
        case 2: {  // one entry's length byte
          const std::size_t at =
              entry_offset(frame, static_cast<std::size_t>(
                                      rng.uniform_index(4)));
          if (at + 1 < frame.size()) {
            frame[at + 1] = byte(rng);
          }
          break;
        }
        case 3: {  // payload length: nudged or arbitrary
          const std::uint64_t declared =
              frame[8] | (frame[9] << 8) | (frame[10] << 16) |
              (std::uint64_t{frame[11]} << 24);
          put_le(frame, 8,
                 rng.uniform() < 0.5 ? declared + rng.uniform_index(17) - 8
                                     : rng.next_u64(),
                 4);
          break;
        }
        default:  // trailing bytes: the next frame of a stream
          frame.resize(frame.size() +
                       static_cast<std::size_t>(rng.uniform_index(16)));
          break;
      }
    }
    if (rng.uniform() < 0.3) {
      frame.resize(static_cast<std::size_t>(rng.uniform_index(frame.size())));
    }
    Decoded decoded;
    try {
      decoded = decode_frame(frame);
    } catch (...) {
      FAIL() << "decode_frame threw on case " << c;
    }
    ASSERT_STRNE(to_string(decoded.status), "?") << "case " << c;
    ASSERT_LE(decoded.bytes_consumed, frame.size()) << "case " << c;
    switch (decoded.status) {
      case DecodeStatus::Ok:
      case DecodeStatus::MalformedPayload: {
        // Framed statuses consume exactly the size the header declares.
        ASSERT_GE(frame.size(), kFrameHeaderBytes) << "case " << c;
        const std::size_t declared =
            kFrameHeaderBytes + extension_bytes(frame) +
            static_cast<std::size_t>(frame[8] | (frame[9] << 8) |
                                     (frame[10] << 16) |
                                     (std::size_t{frame[11]} << 24));
        ASSERT_EQ(decoded.bytes_consumed, declared) << "case " << c;
        break;
      }
      case DecodeStatus::NeedMoreData:
      case DecodeStatus::BadMagic:
      case DecodeStatus::UnsupportedVersion:
      case DecodeStatus::OversizedFrame:
      case DecodeStatus::UnknownType:
        ASSERT_EQ(decoded.bytes_consumed, 0u) << "case " << c;
        break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzFrame,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace acsel::serve
