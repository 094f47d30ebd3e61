// Wire-codec tests: encode/decode round-trips and table-driven rejection
// of malformed frames — no sockets involved, the codec is pure bytes.
// Also the text-format side of forward compatibility: the registry's
// publish_file path must reject foreign or newer predictor envelopes with
// typed errors instead of publishing garbage.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/predictor.h"
#include "hw/config_space.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/codec.h"
#include "serve/registry.h"

namespace acsel::serve {
namespace {

profile::KernelRecord make_record(const hw::Configuration& config,
                                  double seed) {
  profile::KernelRecord record;
  record.benchmark = "LULESH";
  record.input = "Large";
  record.kernel = "CalcFBHourglassForce";
  record.config = config;
  record.time_ms = 1.25 * seed;
  record.cpu_power_w = 13.5 + seed;
  record.nbgpu_power_w = 9.75 + seed;
  record.energy_j = 0.03125 * seed;
  record.counters.instructions = 1e9 * seed;
  record.counters.l1d_misses = 3e6 * seed;
  record.counters.l2d_misses = 7e5 * seed;
  record.counters.tlb_misses = 1.5e4 * seed;
  record.counters.branches = 2e8 * seed;
  record.counters.vector_insts = 4e7 * seed;
  record.counters.stalled_cycles = 6e8 * seed;
  record.counters.core_cycles = 3.7e9 * seed;
  record.counters.reference_cycles = 3.7e9 * seed;
  record.counters.idle_fpu_cycles = 1e8 * seed;
  record.counters.interrupts = 123.0 * seed;
  record.counters.dram_accesses = 5e6 * seed;
  return record;
}

SelectRequest make_request() {
  const hw::ConfigSpace space;
  SelectRequest request;
  request.request_id = 0xfeedfacecafebeefULL;
  request.model_version = 7;
  request.goal = core::SchedulingGoal::MinEnergy;
  request.cap_w = 27.25;
  request.samples.cpu = make_record(space.cpu_sample(), 1.0);
  request.samples.gpu = make_record(space.gpu_sample(), 2.0);
  return request;
}

TEST(ServeCodec, RequestRoundTrip) {
  const SelectRequest request = make_request();
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);

  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.type, MessageType::SelectRequest);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());

  const SelectRequest& out = decoded.request;
  EXPECT_EQ(out.request_id, request.request_id);
  EXPECT_EQ(out.model_version, request.model_version);
  EXPECT_EQ(out.goal, request.goal);
  ASSERT_TRUE(out.cap_w.has_value());
  EXPECT_EQ(*out.cap_w, *request.cap_w);  // bit-exact by construction
  EXPECT_EQ(out.samples.cpu.benchmark, request.samples.cpu.benchmark);
  EXPECT_EQ(out.samples.cpu.kernel, request.samples.cpu.kernel);
  EXPECT_EQ(out.samples.cpu.config, request.samples.cpu.config);
  EXPECT_EQ(out.samples.gpu.config, request.samples.gpu.config);
  EXPECT_EQ(out.samples.cpu.time_ms, request.samples.cpu.time_ms);
  EXPECT_EQ(out.samples.gpu.cpu_power_w, request.samples.gpu.cpu_power_w);
  EXPECT_EQ(out.samples.cpu.counters.dram_accesses,
            request.samples.cpu.counters.dram_accesses);
  EXPECT_EQ(out.samples.gpu.counters.instructions,
            request.samples.gpu.counters.instructions);
}

TEST(ServeCodec, RequestWithoutCapRoundTrips) {
  SelectRequest request = make_request();
  request.cap_w.reset();
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_FALSE(decoded.request.cap_w.has_value());
}

TEST(ServeCodec, ExtensionlessRequestHeaderIsPinnedToLiteralBytes) {
  // The header every peer has always written for a plain request: magic,
  // version 2, type 1, an empty extension list, the payload length.
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes);
  const std::size_t payload = bytes.size() - kFrameHeaderBytes;
  const std::vector<std::uint8_t> header{
      'A', 'C', 'S', 'L', 2, 1, 0x00, 0x00,
      static_cast<std::uint8_t>(payload & 0xff),
      static_cast<std::uint8_t>((payload >> 8) & 0xff), 0x00, 0x00};
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(),
                                      bytes.begin() + kFrameHeaderBytes),
            header);
}

TEST(ServeCodec, BadRequestCapIsMalformedButSkippable) {
  // A present cap must be finite and positive; anything else is refused
  // at the wire rather than thrown inside the scheduler.
  for (const double cap : {std::numeric_limits<double>::quiet_NaN(), 0.0,
                           -1.0, std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SelectRequest request = make_request();
    request.cap_w = cap;
    std::vector<std::uint8_t> bytes;
    encode_request(request, bytes);
    const Decoded decoded = decode_frame(bytes);
    EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload) << cap;
    EXPECT_EQ(decoded.bytes_consumed, bytes.size()) << cap;
  }
}

TEST(ServeCodec, ResponseRoundTrip) {
  SelectResponse response;
  response.request_id = 42;
  response.status = ResponseStatus::Ok;
  response.model_version = 3;
  response.config_index = 17;
  response.predicted_power_w = 23.4375;
  response.predicted_performance = 812.5;
  response.predicted_feasible = true;

  std::vector<std::uint8_t> bytes;
  encode_response(response, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.type, MessageType::SelectResponse);
  EXPECT_EQ(decoded.response.request_id, response.request_id);
  EXPECT_EQ(decoded.response.status, response.status);
  EXPECT_EQ(decoded.response.model_version, response.model_version);
  EXPECT_EQ(decoded.response.config_index, response.config_index);
  EXPECT_EQ(decoded.response.predicted_power_w, response.predicted_power_w);
  EXPECT_EQ(decoded.response.predicted_performance,
            response.predicted_performance);
  EXPECT_TRUE(decoded.response.predicted_feasible);
}

TEST(ServeCodec, BackToBackFramesDecodeInSequence) {
  const SelectRequest request = make_request();
  std::vector<std::uint8_t> stream;
  encode_request(request, stream);
  const std::size_t first_size = stream.size();
  encode_request(request, stream);

  const Decoded first = decode_frame(stream);
  ASSERT_EQ(first.status, DecodeStatus::Ok);
  EXPECT_EQ(first.bytes_consumed, first_size);
  const Decoded second = decode_frame(
      std::span<const std::uint8_t>{stream}.subspan(first.bytes_consumed));
  ASSERT_EQ(second.status, DecodeStatus::Ok);
  EXPECT_EQ(second.request.request_id, request.request_id);
}

TEST(ServeCodec, ShortReadsReportNeedMoreData) {
  const SelectRequest request = make_request();
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);
  // Every strict prefix is either an incomplete header or an incomplete
  // payload — never an error, never a successful decode.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, kFrameHeaderBytes - 1,
        kFrameHeaderBytes, kFrameHeaderBytes + 5, bytes.size() - 1}) {
    const Decoded decoded =
        decode_frame(std::span<const std::uint8_t>{bytes.data(), cut});
    EXPECT_EQ(decoded.status, DecodeStatus::NeedMoreData)
        << "prefix length " << cut;
    EXPECT_EQ(decoded.bytes_consumed, 0u) << "prefix length " << cut;
  }
}

// Table-driven header corruption: each case mutates one header field and
// names the status the decoder must report.
struct HeaderCase {
  const char* name;
  std::size_t offset;
  std::uint8_t value;
  DecodeStatus expected;
};

// gtest would print an unprintable parameter as its raw bytes, address of
// the name literal included, so the listed test names would shift with the
// binary's layout. Print the mutation itself instead.
void PrintTo(const HeaderCase& test, std::ostream* os) {
  *os << "byte " << test.offset << " := " << static_cast<int>(test.value);
}

class ServeCodecHeader : public ::testing::TestWithParam<HeaderCase> {};

TEST_P(ServeCodecHeader, RejectsCorruptHeader) {
  const HeaderCase& test = GetParam();
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes);
  bytes[test.offset] = test.value;
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, test.expected);
  if (test.expected != DecodeStatus::MalformedPayload) {
    EXPECT_EQ(decoded.bytes_consumed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corruptions, ServeCodecHeader,
    ::testing::Values(
        HeaderCase{"bad_magic_byte0", 0, 0x00, DecodeStatus::BadMagic},
        HeaderCase{"bad_magic_byte3", 3, 0xff, DecodeStatus::BadMagic},
        HeaderCase{"future_version", 4, 99,
                   DecodeStatus::UnsupportedVersion},
        HeaderCase{"unknown_type_0", 5, 0, DecodeStatus::UnknownType},
        HeaderCase{"unknown_type_200", 5, 200, DecodeStatus::UnknownType},
        // Oversized: setting the length's high byte declares ~4 GiB.
        HeaderCase{"oversized_frame", 11, 0xff,
                   DecodeStatus::OversizedFrame}),
    [](const ::testing::TestParamInfo<HeaderCase>& param_info) {
      return std::string{param_info.param.name};
    });

TEST(ServeCodec, RejectsTruncatedPayloadDeclaredShort) {
  // Shrink the declared payload length: decode sees a complete (shorter)
  // frame whose payload no longer parses.
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes);
  const std::size_t payload = bytes.size() - kFrameHeaderBytes;
  const std::size_t shortened = payload - 8;
  bytes[8] = static_cast<std::uint8_t>(shortened & 0xff);
  bytes[9] = static_cast<std::uint8_t>((shortened >> 8) & 0xff);
  bytes.resize(kFrameHeaderBytes + shortened);
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, RejectsTrailingGarbageInPayload) {
  // Grow the declared payload length and append bytes: the payload must
  // be fully consumed, so trailing garbage is malformed.
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes);
  const std::size_t payload = bytes.size() - kFrameHeaderBytes + 4;
  bytes[8] = static_cast<std::uint8_t>(payload & 0xff);
  bytes[9] = static_cast<std::uint8_t>((payload >> 8) & 0xff);
  bytes.insert(bytes.end(), {1, 2, 3, 4});
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
}

TEST(ServeCodec, RejectsOutOfRangeEnumsInPayload) {
  // goal byte sits right after request_id + model_version.
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes);
  bytes[kFrameHeaderBytes + 16] = 77;  // goal out of range
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
}

TEST(ServeCodec, RejectsInvalidConfigurationInPayload) {
  // Find the CPU sample record's device byte by re-encoding with a
  // poisoned device value: corrupt the config's cpu_pstate to 250, which
  // Configuration::validate() rejects.
  SelectRequest request = make_request();
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);
  // Locate the first record: payload starts with 8+8+1+1+8+8 = 34 fixed
  // bytes (request_id, model_version, goal, has_cap, cap_w, deadline_ns),
  // then benchmark "LULESH" (2+6), input "Large" (2+5), kernel
  // "CalcFBHourglassForce" (2+20), then the 5 config bytes (device,
  // cpu_pstate, threads, gpu_pstate, mapping).
  const std::size_t record_start = kFrameHeaderBytes + 34;
  const std::size_t config_offset = record_start + 2 + 6 + 2 + 5 + 2 + 20;
  bytes[config_offset + 1] = 250;  // cpu_pstate far out of range
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
}

// ----------------------------------------------------------- stats ------

obs::MetricSnapshot make_metric(const char* name, obs::MetricKind kind) {
  obs::MetricSnapshot metric;
  metric.name = name;
  metric.kind = kind;
  return metric;
}

StatsResponse make_stats_response() {
  StatsResponse response;
  response.request_id = 99;
  response.status = ResponseStatus::Ok;
  obs::MetricSnapshot counter =
      make_metric("serve.submitted", obs::MetricKind::Counter);
  counter.count = 12345;
  obs::MetricSnapshot gauge =
      make_metric("serve.queue_depth", obs::MetricKind::Gauge);
  gauge.value = 17.5;
  obs::MetricSnapshot hist =
      make_metric("serve.latency_ns", obs::MetricKind::Histogram);
  hist.count = 1000;
  hist.p50_us = 12.625;
  hist.p99_us = 99.5;
  hist.max_us = 130.0;
  response.metrics = {counter, gauge, hist};
  return response;
}

TEST(ServeCodec, StatsRequestRoundTrip) {
  StatsRequest request;
  request.request_id = 0x1122334455667788ULL;
  std::vector<std::uint8_t> bytes;
  encode_stats_request(request, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.type, MessageType::StatsRequest);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  EXPECT_EQ(decoded.stats_request.request_id, request.request_id);
}

TEST(ServeCodec, StatsResponseRoundTripIsExact) {
  const StatsResponse response = make_stats_response();
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.type, MessageType::StatsResponse);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  EXPECT_EQ(decoded.stats_response.request_id, response.request_id);
  EXPECT_EQ(decoded.stats_response.status, response.status);
  // Doubles travel as IEEE-754 bits, so the whole snapshot compares
  // bit-exactly through MetricSnapshot's fieldwise equality.
  EXPECT_EQ(decoded.stats_response.metrics, response.metrics);
}

TEST(ServeCodec, EmptyStatsResponseRoundTrips) {
  StatsResponse response;
  response.request_id = 1;
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_TRUE(decoded.stats_response.metrics.empty());
}

TEST(ServeCodec, RejectsShortStatsRequestPayload) {
  StatsRequest request;
  std::vector<std::uint8_t> bytes;
  encode_stats_request(request, bytes);
  bytes[8] = 4;  // declare a 4-byte payload; request_id needs 8
  bytes.resize(kFrameHeaderBytes + 4);
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, RejectsTrailingGarbageInStatsRequest) {
  StatsRequest request;
  std::vector<std::uint8_t> bytes;
  encode_stats_request(request, bytes);
  bytes[8] = 12;  // 8 real bytes + 4 garbage
  bytes.insert(bytes.end(), {1, 2, 3, 4});
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
}

// Table-driven stats-payload corruption, mirroring the header table: each
// case pokes one byte of an encoded single-metric StatsResponse. Payload
// layout: request_id u64 @12, status u8 @20, count u32 @21, then the
// metric (name len u16 @25, name "m" @27, kind u8 @28, count u64 @29,
// four f64s @37), then the alert count u32 @69.
struct StatsCase {
  const char* name;
  std::size_t offset;
  std::uint8_t value;
};

class ServeCodecStats : public ::testing::TestWithParam<StatsCase> {};

TEST_P(ServeCodecStats, RejectsCorruptStatsPayload) {
  StatsResponse response;
  response.request_id = 7;
  response.metrics = {make_metric("m", obs::MetricKind::Counter)};
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  const StatsCase& test = GetParam();
  bytes[test.offset] = test.value;
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

INSTANTIATE_TEST_SUITE_P(
    Corruptions, ServeCodecStats,
    ::testing::Values(
        StatsCase{"status_out_of_range", 20, 200},
        StatsCase{"kind_out_of_range", 28, 9},
        StatsCase{"count_exceeds_metrics_present", 21, 2},
        // count's high byte declares ~16M metrics — more than any
        // payload under the size cap can hold.
        StatsCase{"absurd_metric_count", 24, 0xff},
        // name length beyond the remaining payload.
        StatsCase{"name_overruns_payload", 26, 0xff},
        StatsCase{"alert_count_exceeds_alerts_present", 69, 1},
        // The count's high byte declares ~16M alerts.
        StatsCase{"absurd_alert_count", 72, 0xff}),
    [](const ::testing::TestParamInfo<StatsCase>& param_info) {
      return std::string{param_info.param.name};
    });

TEST(ServeCodec, LegacyStatsLayoutIsMalformed) {
  // The layout before alert rows: metric rows, then fixed adapt (107
  // bytes), fleet (201), series (21) and slo (13) blocks, all zero when
  // detached. The decoder reads the adapt block's first bytes as an alert
  // count of 0 and rejects the rest as trailing bytes.
  StatsResponse response;
  response.request_id = 7;
  response.metrics = {make_metric("m", obs::MetricKind::Counter)};
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  bytes.resize(bytes.size() - 4);  // drop the alert count
  bytes.insert(bytes.end(), 107 + 201 + 21 + 13, 0);
  const std::size_t payload = bytes.size() - kFrameHeaderBytes;
  bytes[8] = static_cast<std::uint8_t>(payload & 0xff);
  bytes[9] = static_cast<std::uint8_t>((payload >> 8) & 0xff);
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, ToStringCoversStatuses) {
  EXPECT_STREQ(to_string(DecodeStatus::Ok), "Ok");
  EXPECT_STREQ(to_string(DecodeStatus::BadMagic), "BadMagic");
  EXPECT_STREQ(to_string(DecodeStatus::OversizedFrame), "OversizedFrame");
  EXPECT_STREQ(to_string(ResponseStatus::Shed), "Shed");
  EXPECT_STREQ(to_string(ResponseStatus::MalformedRequest),
               "MalformedRequest");
  EXPECT_STREQ(to_string(ResponseStatus::DeadlineExceeded),
               "DeadlineExceeded");
}

// ---- feedback ----------------------------------------------------------

FeedbackRequest make_feedback() {
  const hw::ConfigSpace space;
  FeedbackRequest feedback;
  feedback.request_id = 0xabad1deaU;
  feedback.model_version = 4;
  feedback.goal = core::SchedulingGoal::MaxPerformance;
  feedback.cap_w = 22.5;
  feedback.predicted_power_w = 19.25;
  feedback.predicted_performance = 640.0;
  feedback.measured_power_w = 21.0;
  feedback.measured_performance = 587.5;
  feedback.samples.cpu = make_record(space.cpu_sample(), 1.0);
  feedback.samples.gpu = make_record(space.gpu_sample(), 2.0);
  return feedback;
}

TEST(ServeCodec, FeedbackRequestRoundTrip) {
  const FeedbackRequest feedback = make_feedback();
  std::vector<std::uint8_t> bytes;
  encode_feedback_request(feedback, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.type, MessageType::FeedbackRequest);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  const FeedbackRequest& out = decoded.feedback;
  EXPECT_EQ(out.request_id, feedback.request_id);
  EXPECT_EQ(out.model_version, feedback.model_version);
  EXPECT_EQ(out.goal, feedback.goal);
  ASSERT_TRUE(out.cap_w.has_value());
  EXPECT_EQ(*out.cap_w, *feedback.cap_w);
  EXPECT_EQ(out.predicted_power_w, feedback.predicted_power_w);
  EXPECT_EQ(out.predicted_performance, feedback.predicted_performance);
  EXPECT_EQ(out.measured_power_w, feedback.measured_power_w);
  EXPECT_EQ(out.measured_performance, feedback.measured_performance);
  EXPECT_EQ(out.samples.cpu.kernel, feedback.samples.cpu.kernel);
  EXPECT_EQ(out.samples.gpu.config, feedback.samples.gpu.config);
  EXPECT_EQ(out.samples.cpu.counters.instructions,
            feedback.samples.cpu.counters.instructions);
}

TEST(ServeCodec, FeedbackRequestWithoutCapRoundTrips) {
  FeedbackRequest feedback = make_feedback();
  feedback.cap_w.reset();
  std::vector<std::uint8_t> bytes;
  encode_feedback_request(feedback, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_FALSE(decoded.feedback.cap_w.has_value());
}

TEST(ServeCodec, FeedbackResponseRoundTripsEveryStatus) {
  for (const ResponseStatus status :
       {ResponseStatus::Ok, ResponseStatus::Shed,
        ResponseStatus::MalformedRequest, ResponseStatus::UnknownModelVersion,
        ResponseStatus::NoModelPublished, ResponseStatus::InternalError,
        ResponseStatus::DeadlineExceeded, ResponseStatus::Unsupported}) {
    FeedbackResponse response;
    response.request_id = 11;
    response.status = status;
    std::vector<std::uint8_t> bytes;
    encode_feedback_response(response, bytes);
    const Decoded decoded = decode_frame(bytes);
    ASSERT_EQ(decoded.status, DecodeStatus::Ok) << to_string(status);
    EXPECT_EQ(decoded.type, MessageType::FeedbackResponse);
    EXPECT_EQ(decoded.feedback_response.request_id, 11u);
    EXPECT_EQ(decoded.feedback_response.status, status);
  }
}

TEST(ServeCodec, FeedbackResponseRejectsAStatusBeyondTheEnum) {
  FeedbackResponse response;
  std::vector<std::uint8_t> bytes;
  encode_feedback_response(response, bytes);
  bytes[kFrameHeaderBytes + 8] = 8;  // one past Unsupported
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
}

// Non-finite measurements are a client bug, not drift — the codec rejects
// them so the adapt loop never has to. Each case poisons one field.
struct FeedbackNonFiniteCase {
  const char* name;
  double FeedbackRequest::* field;
};

void PrintTo(const FeedbackNonFiniteCase& test, std::ostream* os) {
  *os << test.name;
}

class ServeCodecFeedbackNonFinite
    : public ::testing::TestWithParam<FeedbackNonFiniteCase> {};

TEST_P(ServeCodecFeedbackNonFinite, IsRejected) {
  for (const double poison :
       {std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity()}) {
    FeedbackRequest feedback = make_feedback();
    feedback.*GetParam().field = poison;
    std::vector<std::uint8_t> bytes;
    encode_feedback_request(feedback, bytes);
    const Decoded decoded = decode_frame(bytes);
    EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
    EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Fields, ServeCodecFeedbackNonFinite,
    ::testing::Values(
        FeedbackNonFiniteCase{"predicted_power",
                              &FeedbackRequest::predicted_power_w},
        FeedbackNonFiniteCase{"predicted_performance",
                              &FeedbackRequest::predicted_performance},
        FeedbackNonFiniteCase{"measured_power",
                              &FeedbackRequest::measured_power_w},
        FeedbackNonFiniteCase{"measured_performance",
                              &FeedbackRequest::measured_performance}),
    [](const ::testing::TestParamInfo<FeedbackNonFiniteCase>& param_info) {
      return std::string{param_info.param.name};
    });

TEST(ServeCodec, FeedbackRequestRejectsANonFiniteCap) {
  for (const double cap : {std::numeric_limits<double>::infinity(), 0.0}) {
    FeedbackRequest feedback = make_feedback();
    feedback.cap_w = cap;
    std::vector<std::uint8_t> bytes;
    encode_feedback_request(feedback, bytes);
    EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload)
        << cap;
  }
}

TEST(ServeCodec, FeedbackRequestRejectsCorruptEnumBytes) {
  // Payload layout: request_id u64, model_version u64, goal u8 @ +16,
  // has_cap u8 @ +17.
  {
    std::vector<std::uint8_t> bytes;
    encode_feedback_request(make_feedback(), bytes);
    bytes[kFrameHeaderBytes + 16] = 3;  // goal past MinEnergyDelay
    EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
  }
  {
    std::vector<std::uint8_t> bytes;
    encode_feedback_request(make_feedback(), bytes);
    bytes[kFrameHeaderBytes + 17] = 2;  // has_cap is a boolean
    EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
  }
}

TEST(ServeCodec, FeedbackRequestDeclaredShortIsMalformed) {
  std::vector<std::uint8_t> bytes;
  encode_feedback_request(make_feedback(), bytes);
  const std::size_t payload = bytes.size() - kFrameHeaderBytes;
  const std::size_t shortened = payload - 8;
  bytes[8] = static_cast<std::uint8_t>(shortened & 0xff);
  bytes[9] = static_cast<std::uint8_t>((shortened >> 8) & 0xff);
  bytes.resize(kFrameHeaderBytes + shortened);
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, FeedbackRequestWithTrailingBytesIsMalformed) {
  std::vector<std::uint8_t> bytes;
  encode_feedback_request(make_feedback(), bytes);
  const std::size_t payload = bytes.size() - kFrameHeaderBytes + 4;
  bytes[8] = static_cast<std::uint8_t>(payload & 0xff);
  bytes[9] = static_cast<std::uint8_t>((payload >> 8) & 0xff);
  bytes.insert(bytes.end(), {9, 9, 9, 9});
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
}

// ---- adversarial length prefixes ---------------------------------------

/// A header-only frame with an arbitrary declared payload length.
std::vector<std::uint8_t> make_header(MessageType type,
                                      std::uint32_t payload_length) {
  std::vector<std::uint8_t> frame;
  const auto put_u32 = [&frame](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put_u32(kWireMagic);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<std::uint8_t>(type));
  frame.push_back(0);  // extension bytes
  frame.push_back(0);
  put_u32(payload_length);
  return frame;
}

TEST(ServeCodec, AllOnesLengthPrefixIsRejectedFromTheHeaderAlone) {
  // 0xffffffff declared payload: must be rejected before any buffering,
  // and the 64-bit frame-size math must not wrap into "NeedMoreData".
  const auto frame = make_header(MessageType::SelectRequest, 0xffffffffu);
  const Decoded decoded = decode_frame(frame);
  EXPECT_EQ(decoded.status, DecodeStatus::OversizedFrame);
  EXPECT_EQ(decoded.bytes_consumed, 0u);
}

TEST(ServeCodec, ZeroLengthSelectRequestIsMalformedPayload) {
  // A complete frame whose payload is empty: framed (and therefore
  // skippable), but the payload cannot parse.
  const auto frame = make_header(MessageType::SelectRequest, 0);
  const Decoded decoded = decode_frame(frame);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, kFrameHeaderBytes);
}

TEST(ServeCodec, ZeroLengthStatsRequestIsMalformedPayload) {
  const auto frame = make_header(MessageType::StatsRequest, 0);
  const Decoded decoded = decode_frame(frame);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, kFrameHeaderBytes);
}

// ------------------------------------------- trace context (wire v2) ----

obs::TraceContext make_trace() {
  obs::TraceContext trace;
  trace.trace_id = 0xaaaa0000bbbb1111ULL;
  trace.span_id = 0x2222cccc3333ddddULL;
  trace.parent_id = 0x4444eeee5555ffffULL;
  trace.sampled = true;
  return trace;
}

TEST(ServeCodec, TraceContextRoundTripsOnRequestFrames) {
  const obs::TraceContext trace = make_trace();
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes, &trace);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  ASSERT_TRUE(decoded.has_trace);
  EXPECT_EQ(decoded.trace, trace);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  // The trace costs exactly its entry: type, length, body.
  std::vector<std::uint8_t> untraced;
  encode_request(make_request(), untraced);
  EXPECT_EQ(bytes.size(), untraced.size() + 2 + kTraceBlockBytes);
}

TEST(ServeCodec, TraceContextRoundTripsOnEveryMessageType) {
  const obs::TraceContext trace = make_trace();
  std::vector<std::vector<std::uint8_t>> frames{{}, {}, {}, {}, {}, {}};
  encode_request(make_request(), frames[0], &trace);
  encode_response(SelectResponse{}, frames[1], &trace);
  encode_stats_request(StatsRequest{}, frames[2], &trace);
  encode_stats_response(StatsResponse{}, frames[3], &trace);
  FeedbackRequest feedback;
  feedback.samples = make_request().samples;
  encode_feedback_request(feedback, frames[4], &trace);
  encode_feedback_response(FeedbackResponse{}, frames[5], &trace);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Decoded decoded = decode_frame(frames[i]);
    ASSERT_EQ(decoded.status, DecodeStatus::Ok) << "frame " << i;
    EXPECT_TRUE(decoded.has_trace) << "frame " << i;
    EXPECT_EQ(decoded.trace, trace) << "frame " << i;
  }
}

TEST(ServeCodec, FramesWithoutTraceReportNoTrace) {
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_FALSE(decoded.has_trace);
  EXPECT_EQ(decoded.trace, obs::TraceContext{});
}

TEST(ServeCodec, UnsampledTraceContextRoundTrips) {
  obs::TraceContext trace = make_trace();
  trace.sampled = false;
  std::vector<std::uint8_t> bytes;
  encode_response(SelectResponse{}, bytes, &trace);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  ASSERT_TRUE(decoded.has_trace);
  EXPECT_FALSE(decoded.trace.sampled);
  EXPECT_EQ(decoded.trace.trace_id, trace.trace_id);
}

TEST(ServeCodec, TracedAndUntracedFramesInterleaveInOneStream) {
  const obs::TraceContext trace = make_trace();
  std::vector<std::uint8_t> stream;
  encode_request(make_request(), stream, &trace);
  const std::size_t first = stream.size();
  encode_response(SelectResponse{}, stream);
  std::span<const std::uint8_t> cursor{stream};
  const Decoded a = decode_frame(cursor);
  ASSERT_EQ(a.status, DecodeStatus::Ok);
  EXPECT_TRUE(a.has_trace);
  EXPECT_EQ(a.bytes_consumed, first);
  const Decoded b = decode_frame(cursor.subspan(a.bytes_consumed));
  ASSERT_EQ(b.status, DecodeStatus::Ok);
  EXPECT_FALSE(b.has_trace);
  EXPECT_EQ(a.bytes_consumed + b.bytes_consumed, stream.size());
}

TEST(ServeCodec, VersionOneFramesAreUnsupported) {
  // v1 frames carried a shorter SelectRequest payload; a v1 peer is told
  // to upgrade rather than have its bytes misread.
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes);
  bytes[4] = 1;
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::UnsupportedVersion);
  EXPECT_EQ(decoded.bytes_consumed, 0u);
}

/// Inserts an extension entry of `type` carrying `body` at the end of the
/// frame's extension list and grows the header's extension-bytes field.
void append_entry(std::vector<std::uint8_t>& frame, std::uint8_t type,
                  const std::vector<std::uint8_t>& body) {
  const std::size_t extension_bytes =
      static_cast<std::size_t>(frame[6] | (frame[7] << 8));
  std::vector<std::uint8_t> entry{type,
                                  static_cast<std::uint8_t>(body.size())};
  entry.insert(entry.end(), body.begin(), body.end());
  frame.insert(frame.begin() + static_cast<std::ptrdiff_t>(
                                   kFrameHeaderBytes + extension_bytes),
               entry.begin(), entry.end());
  const std::size_t grown = extension_bytes + entry.size();
  frame[6] = static_cast<std::uint8_t>(grown & 0xff);
  frame[7] = static_cast<std::uint8_t>(grown >> 8);
}

TEST(ServeCodec, UnknownExtensionTypeIsSkippedByItsLength) {
  // An entry type this build does not know — a newer peer's field — is
  // stepped over, and the known entries around it still decode.
  const obs::TraceContext trace = make_trace();
  SelectRequest request = make_request();
  request.priority = Priority::Low;
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes, &trace);
  append_entry(bytes, 0, {});
  append_entry(bytes, 4, {9, 9, 9});
  append_entry(bytes, 255, std::vector<std::uint8_t>(255, 0xee));
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  EXPECT_TRUE(decoded.has_trace);
  EXPECT_EQ(decoded.trace, trace);
  EXPECT_EQ(decoded.request.priority, Priority::Low);
  EXPECT_EQ(decoded.request.request_id, request.request_id);
}

TEST(ServeCodec, WrongLengthExtensionEntryIsMalformedButSkippable) {
  // A known type's length is its layout; any other length — including the
  // 49-byte fingerprint block of earlier builds — is not from an encoder.
  for (const auto& [type, length] :
       {std::pair<std::uint8_t, std::size_t>{1, kTraceBlockBytes - 1},
        {1, kTraceBlockBytes + 1},
        {2, 0},
        {2, 2},
        {3, kFingerprintBlockBytes + 1}}) {
    std::vector<std::uint8_t> bytes;
    encode_request(make_request(), bytes);
    append_entry(bytes, type, std::vector<std::uint8_t>(length, 1));
    const Decoded decoded = decode_frame(bytes);
    EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload)
        << "type " << int{type} << " length " << length;
    EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  }
}

TEST(ServeCodec, DuplicateExtensionEntryIsMalformedButSkippable) {
  SelectRequest request = make_request();
  request.priority = Priority::High;
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);
  append_entry(bytes, 2, {static_cast<std::uint8_t>(Priority::Low)});
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, ExtensionEntryRunningPastTheListIsMalformedButSkippable) {
  const obs::TraceContext trace = make_trace();
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes, &trace);
  // The trace entry's length claims one byte more than the list holds.
  bytes[kFrameHeaderBytes + 1] = kTraceBlockBytes + 1;
  Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  // A lone type byte with no length byte after it.
  bytes.clear();
  encode_request(make_request(), bytes);
  bytes.insert(bytes.begin() + kFrameHeaderBytes, 1);
  bytes[6] = 1;
  decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, FlagBitTraceFramesOfEarlierBuildsAreMalformed) {
  // Earlier builds set flags bit 0 and appended a bare 25-byte trace
  // block. That bit now reads as a 1-byte extension list, too short for
  // an entry, so the frame is refused; the header sizes it 24 bytes short,
  // which is why every peer must be built from the same tree.
  const obs::TraceContext trace = make_trace();
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes, &trace);
  bytes.erase(bytes.begin() + kFrameHeaderBytes,
              bytes.begin() + kFrameHeaderBytes + 2);  // drop type, length
  bytes[6] = 0x01;
  bytes[7] = 0x00;
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size() - (kTraceBlockBytes - 1));
}

TEST(ServeCodec, TruncatedTraceBlockIsNeedMoreData) {
  const obs::TraceContext trace = make_trace();
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes, &trace);
  for (const std::size_t cut :
       {kFrameHeaderBytes, kFrameHeaderBytes + 1,
        kFrameHeaderBytes + 2 + kTraceBlockBytes - 1}) {
    const Decoded decoded =
        decode_frame(std::span<const std::uint8_t>{bytes.data(), cut});
    EXPECT_EQ(decoded.status, DecodeStatus::NeedMoreData) << "cut " << cut;
    EXPECT_EQ(decoded.bytes_consumed, 0u);
  }
}

TEST(ServeCodec, CorruptSampledByteIsMalformedButSkippable) {
  const obs::TraceContext trace = make_trace();
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes, &trace);
  // sampled, the entry's last byte, must be 0/1
  bytes[kFrameHeaderBytes + 2 + kTraceBlockBytes - 1] = 2;
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  // The frame is correctly sized, so a stream can skip past it.
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, RequestDeadlineRoundTrips) {
  SelectRequest request = make_request();
  request.deadline_ns = 2'500'000;
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.request.deadline_ns, 2'500'000u);
}

// ------------------------------------------------------- alert rows ----

StatsResponse make_alert_response() {
  StatsResponse response = make_stats_response();
  obs::Alert alert;
  alert.slo = "fleet.delivered";
  alert.fired_tick = 61;
  alert.cleared_tick = 0;  // active
  alert.fast_burn = 400.0;
  alert.slow_burn = 33.3;
  alert.worst_value = 0.5;
  alert.membership_transitions = 2.0;
  alert.promotions = 1.0;
  alert.rollbacks = 0.0;
  alert.exemplar_trace_ids = {0x1234567890abcdefULL, 42};
  obs::Alert cleared = alert;
  cleared.slo = "fleet.p99";
  cleared.cleared_tick = 90;
  response.alerts = {alert, cleared};
  return response;
}

TEST(ServeCodec, StatsResponseCarriesAlertRowsExactly) {
  const StatsResponse response = make_alert_response();
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.stats_response.metrics, response.metrics);
  EXPECT_EQ(decoded.stats_response.alerts, response.alerts);
}

TEST(ServeCodec, AlertThatNeverFiredIsRejected) {
  StatsResponse response = make_alert_response();
  response.alerts[0].fired_tick = 0;
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
}

TEST(ServeCodec, AlertClearedBeforeItFiredIsRejected) {
  StatsResponse response = make_alert_response();
  response.alerts[1].cleared_tick = response.alerts[1].fired_tick - 1;
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
}

TEST(ServeCodec, NonFiniteBurnRateIsRejected) {
  StatsResponse response = make_alert_response();
  response.alerts[0].fast_burn =
      std::numeric_limits<double>::infinity();
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::MalformedPayload);
}

TEST(ServeCodec, ExemplarCountBeyondThePayloadIsRejected) {
  StatsResponse response = make_alert_response();
  response.alerts.resize(1);
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  // The exemplar count u32 sits just before the alert's two trace ids;
  // its high byte declares ~16M exemplars.
  bytes[bytes.size() - 16 - 1] = 0xff;
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, StatsResponseTruncatedInsideAnAlertRowIsMalformed) {
  const StatsResponse response = make_alert_response();
  std::vector<std::uint8_t> bytes;
  encode_stats_response(response, bytes);
  // Re-declare the payload length to end mid-way through the last alert:
  // the rows are not optional, so a short frame must not decode.
  const std::size_t payload = bytes.size() - kFrameHeaderBytes;
  const std::size_t shortened = payload - 40;
  bytes[8] = static_cast<std::uint8_t>(shortened & 0xff);
  bytes[9] = static_cast<std::uint8_t>((shortened >> 8) & 0xff);
  bytes.resize(kFrameHeaderBytes + shortened);
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, ConfigurableMaxFrameBytesTightensTheCap) {
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes);
  // Well-formed under the default cap...
  EXPECT_EQ(decode_frame(bytes).status, DecodeStatus::Ok);
  // ...but rejected, from the header alone, under a tightened one.
  const Decoded tightened = decode_frame(bytes, 16);
  EXPECT_EQ(tightened.status, DecodeStatus::OversizedFrame);
  EXPECT_EQ(tightened.bytes_consumed, 0u);
  // A cap beyond kMaxPayloadBytes is clamped, never widened.
  const auto huge = make_header(MessageType::SelectRequest,
                                static_cast<std::uint32_t>(kMaxPayloadBytes) + 1);
  EXPECT_EQ(decode_frame(huge, std::size_t{1} << 40).status,
            DecodeStatus::OversizedFrame);
}

// ---- predictor text-envelope rejections (forward compatibility) --------

/// Writes `text` to a temp file and returns its path.
std::string write_temp_model(const std::string& name,
                             const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out{path};
  out << text;
  return path;
}

TEST(PredictorEnvelope, PublishFileRejectsAnUnknownKindWithItsTag) {
  ModelRegistry registry;
  const std::string path = write_temp_model(
      "unknown_kind.model", "acsel-predictor transformer-v9 v1\nclusters 1\n");
  try {
    registry.publish_file(path);
    FAIL() << "unknown predictor kind must not publish";
  } catch (const core::UnknownPredictorKindError& error) {
    EXPECT_EQ(error.predictor_kind(), "transformer-v9");
  }
  EXPECT_EQ(registry.current().version, 0u);
  std::remove(path.c_str());
}

TEST(PredictorEnvelope, PublishFileRejectsANewerFormatVersion) {
  ModelRegistry registry;
  const std::string path = write_temp_model(
      "newer_version.model", "acsel-predictor cluster-cart v99\nclusters 1\n");
  EXPECT_THROW(registry.publish_file(path),
               core::UnsupportedPredictorVersionError);
  EXPECT_EQ(registry.current().version, 0u);
  std::remove(path.c_str());
}

TEST(PredictorEnvelope, PublishFileRejectsAMalformedEnvelope) {
  ModelRegistry registry;
  for (const char* text : {"", "garbage\n", "acsel-predictor\n",
                           "acsel-predictor cluster-cart one\n"}) {
    const std::string path = write_temp_model("malformed.model", text);
    EXPECT_THROW(registry.publish_file(path), core::PredictorFormatError)
        << "text: " << text;
    std::remove(path.c_str());
  }
  EXPECT_EQ(registry.current().version, 0u);
}

TEST(PredictorEnvelope, TypedRejectionsRemainPlainErrorsToOldCatchSites) {
  ModelRegistry registry;
  const std::string path = write_temp_model(
      "foreign.model", "acsel-predictor quantum v1\nwhatever\n");
  EXPECT_THROW(registry.publish_file(path), Error);
  std::remove(path.c_str());
}

// ---- priority extension ------------------------------------------------

TEST(ServeCodec, PriorityBlockRoundTripsHighAndLow) {
  for (const Priority priority : {Priority::High, Priority::Low}) {
    SelectRequest request = make_request();
    request.priority = priority;
    std::vector<std::uint8_t> bytes;
    encode_request(request, bytes);

    const Decoded decoded = decode_frame(bytes);
    ASSERT_EQ(decoded.status, DecodeStatus::Ok);
    EXPECT_EQ(decoded.request.priority, priority);
  }
}

TEST(ServeCodec, NormalPriorityOmitsTheBlockByteIdentically) {
  // A Normal request must encode exactly as a pre-priority build would:
  // no extension entry — so byte-keyed caches (the server's batch
  // memoization) are unmoved.
  SelectRequest request = make_request();
  request.priority = Priority::Normal;
  std::vector<std::uint8_t> with_normal;
  encode_request(request, with_normal);

  std::vector<std::uint8_t> default_encoded;
  encode_request(make_request(), default_encoded);
  EXPECT_EQ(with_normal, default_encoded);

  const Decoded decoded = decode_frame(with_normal);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.request.priority, Priority::Normal);
  // The extension list is empty on the wire.
  EXPECT_EQ(with_normal[6], 0);
  EXPECT_EQ(with_normal[7], 0);
}

TEST(ServeCodec, BadPriorityByteIsMalformedButSkippable) {
  SelectRequest request = make_request();
  request.priority = Priority::High;
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);
  // No trace entry, so the priority entry is the list's first: its byte
  // follows the entry's type and length.
  bytes[kFrameHeaderBytes + 2] = 3;  // beyond Priority::Low
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  // Framed-but-bad: the stream can skip the whole frame and resume.
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, PriorityBlockCoexistsWithATraceBlock) {
  SelectRequest request = make_request();
  request.priority = Priority::Low;
  obs::TraceContext trace;
  trace.trace_id = 0x1111;
  trace.span_id = 0x2222;
  trace.parent_id = 0x3333;
  trace.sampled = true;
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes, &trace);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_TRUE(decoded.has_trace);
  EXPECT_EQ(decoded.trace.trace_id, 0x1111u);
  EXPECT_EQ(decoded.request.priority, Priority::Low);
}

// ---- fingerprint extension ---------------------------------------------

HardwareFingerprint make_fingerprint() {
  HardwareFingerprint fp;
  fp.hash = 0x1badc0de5eedf00dULL;
  fp.cpu_cores = 4;
  fp.gpu_cores = 384;
  fp.cpu_peak_ghz = 3.2;
  fp.gpu_peak_mhz = 686.0;
  fp.idle_power_w = 5.5;
  fp.peak_power_w = 62.25;
  return fp;
}

TEST(ServeCodec, FingerprintBlockRoundTripsOnRequestFrames) {
  SelectRequest request = make_request();
  request.fingerprint = make_fingerprint();
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  ASSERT_TRUE(decoded.request.fingerprint.has_value());
  const HardwareFingerprint& fp = *decoded.request.fingerprint;
  EXPECT_EQ(fp.hash, request.fingerprint->hash);
  EXPECT_EQ(fp.cpu_cores, request.fingerprint->cpu_cores);
  EXPECT_EQ(fp.gpu_cores, request.fingerprint->gpu_cores);
  EXPECT_EQ(fp.cpu_peak_ghz, request.fingerprint->cpu_peak_ghz);
  EXPECT_EQ(fp.gpu_peak_mhz, request.fingerprint->gpu_peak_mhz);
  EXPECT_EQ(fp.idle_power_w, request.fingerprint->idle_power_w);
  EXPECT_EQ(fp.peak_power_w, request.fingerprint->peak_power_w);
  // The fingerprint costs exactly its entry: type, length, body.
  std::vector<std::uint8_t> unkeyed;
  encode_request(make_request(), unkeyed);
  EXPECT_EQ(bytes.size(), unkeyed.size() + 2 + kFingerprintBlockBytes);
}

TEST(ServeCodec, FingerprintlessFramesAreByteIdenticalToLegacy) {
  // A request without a fingerprint must not pay for an entry — old and
  // new builds produce the same bytes.
  std::vector<std::uint8_t> bytes;
  encode_request(make_request(), bytes);
  EXPECT_EQ(bytes[6], 0);  // empty extension list
  EXPECT_EQ(bytes[7], 0);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_FALSE(decoded.request.fingerprint.has_value());
}

TEST(ServeCodec, TruncatedFingerprintBlockIsNeedMoreData) {
  SelectRequest request = make_request();
  request.fingerprint = make_fingerprint();
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);
  for (const std::size_t cut :
       {kFrameHeaderBytes, kFrameHeaderBytes + 1,
        kFrameHeaderBytes + 2 + kFingerprintBlockBytes - 1}) {
    const Decoded decoded =
        decode_frame(std::span<const std::uint8_t>{bytes.data(), cut});
    EXPECT_EQ(decoded.status, DecodeStatus::NeedMoreData) << "cut " << cut;
    EXPECT_EQ(decoded.bytes_consumed, 0u);
  }
}

TEST(ServeCodec, ZeroHashFingerprintIsMalformedButSkippable) {
  // 0 means "no fingerprint" internally, so no encoder puts it on the
  // wire; a frame carrying one is corrupt but correctly sized.
  SelectRequest request = make_request();
  request.fingerprint = make_fingerprint();
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes);
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[kFrameHeaderBytes + 2 + i] = 0;  // hash u64 opens the entry
  }
  const Decoded decoded = decode_frame(bytes);
  EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload);
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
}

TEST(ServeCodec, NonFiniteFingerprintDescriptorIsRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), -1.0}) {
    SelectRequest request = make_request();
    request.fingerprint = make_fingerprint();
    request.fingerprint->idle_power_w = bad;
    std::vector<std::uint8_t> bytes;
    encode_request(request, bytes);
    const Decoded decoded = decode_frame(bytes);
    EXPECT_EQ(decoded.status, DecodeStatus::MalformedPayload)
        << "descriptor " << bad;
    EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  }
}

TEST(ServeCodec, ZeroHashFingerprintCannotBeEncoded) {
  SelectRequest request = make_request();
  request.fingerprint = make_fingerprint();
  request.fingerprint->hash = 0;
  std::vector<std::uint8_t> bytes;
  EXPECT_THROW(encode_request(request, bytes), Error);
}

TEST(ServeCodec, FingerprintCoexistsWithTraceAndPriorityBlocks) {
  SelectRequest request = make_request();
  request.priority = Priority::High;
  request.fingerprint = make_fingerprint();
  obs::TraceContext trace;
  trace.trace_id = 0x7777;
  trace.span_id = 0x8888;
  trace.parent_id = 0x9999;
  trace.sampled = true;
  std::vector<std::uint8_t> bytes;
  encode_request(request, bytes, &trace);
  const Decoded decoded = decode_frame(bytes);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_TRUE(decoded.has_trace);
  EXPECT_EQ(decoded.trace.trace_id, 0x7777u);
  EXPECT_EQ(decoded.request.priority, Priority::High);
  ASSERT_TRUE(decoded.request.fingerprint.has_value());
  EXPECT_EQ(decoded.request.fingerprint->hash, request.fingerprint->hash);
}

TEST(ServeCodec, KeyedAndUnkeyedFramesInterleaveInOneStream) {
  SelectRequest keyed = make_request();
  keyed.fingerprint = make_fingerprint();
  std::vector<std::uint8_t> stream;
  encode_request(keyed, stream);
  const std::size_t first = stream.size();
  encode_request(make_request(), stream);
  std::span<const std::uint8_t> cursor{stream};
  const Decoded a = decode_frame(cursor);
  ASSERT_EQ(a.status, DecodeStatus::Ok);
  EXPECT_TRUE(a.request.fingerprint.has_value());
  EXPECT_EQ(a.bytes_consumed, first);
  const Decoded b = decode_frame(cursor.subspan(a.bytes_consumed));
  ASSERT_EQ(b.status, DecodeStatus::Ok);
  EXPECT_FALSE(b.request.fingerprint.has_value());
  EXPECT_EQ(a.bytes_consumed + b.bytes_consumed, stream.size());
}

TEST(PredictorEnvelope, PublishFileErrorsNameTheOffendingPath) {
  // A fleet-wide model push hits dozens of files; the error must say
  // *which* one refused to load, and keep its type while saying so.
  ModelRegistry registry;
  const struct {
    const char* text;
    const char* name;
  } rows[] = {
      {"acsel-predictor transformer-v9 v1\nclusters 1\n", "path_kind.model"},
      {"acsel-predictor cluster-cart v99\nclusters 1\n", "path_ver.model"},
      {"garbage\n", "path_fmt.model"},
  };
  for (const auto& row : rows) {
    const std::string path = write_temp_model(row.name, row.text);
    try {
      registry.publish_file(path);
      FAIL() << "must throw for " << row.name;
    } catch (const core::PredictorFormatError& error) {
      EXPECT_NE(std::string(error.what()).find(path), std::string::npos)
          << "message must carry the path: " << error.what();
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace acsel::serve
