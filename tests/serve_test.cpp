// Tests for the concurrent configuration-selection service: registry
// hot-swap/rollback, bounded-queue shedding, the latency histogram, and —
// the core contract — N worker threads returning byte-identical decisions
// to the single-threaded reference loop, including across a mid-stream
// model hot-swap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "eval/characterize.h"
#include "obs/metrics.h"
#include "serve/codec.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "soc/machine.h"
#include "util/error.h"
#include "workloads/suite.h"

namespace acsel::serve {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  // One characterization pass shared by every test; two differently-shaped
  // models so a hot-swap visibly changes decisions.
  static void SetUpTestSuite() {
    soc::Machine machine{soc::MachineSpec{}, 4242};
    const auto suite = workloads::Suite::standard();
    characterizations_ = new std::vector<core::KernelCharacterization>{};
    for (const auto& instance : suite.instances()) {
      characterizations_->push_back(
          eval::characterize_instance(machine, instance));
      if (characterizations_->size() == 12) {
        break;
      }
    }
    core::TrainerOptions options_a;
    options_a.clusters = 3;
    model_a_ = core::make_predictor(
        core::train(*characterizations_, options_a).model);
    core::TrainerOptions options_b;
    options_b.clusters = 2;
    model_b_ = core::make_predictor(
        core::train(*characterizations_, options_b).model);
  }

  static void TearDownTestSuite() {
    model_b_.reset();
    model_a_.reset();
    delete characterizations_;
  }

  /// A deterministic mixed request stream: rotates kernels, goals and
  /// caps. `salt` decorrelates streams of different tests.
  static SelectRequest make_request(std::uint64_t id, std::uint64_t salt) {
    static const double caps[] = {18.0, 22.0, 26.0, 30.0, 40.0};
    const std::uint64_t mix = id * 2654435761u + salt;
    SelectRequest request;
    request.request_id = id;
    request.samples =
        (*characterizations_)[mix % characterizations_->size()].samples;
    request.goal = static_cast<core::SchedulingGoal>(mix % 3);
    if (mix % 7 != 0) {  // every 7th request is unconstrained
      request.cap_w = caps[mix % 5];
    }
    return request;
  }

  static std::vector<core::KernelCharacterization>* characterizations_;
  static core::PredictorPtr model_a_;
  static core::PredictorPtr model_b_;
};

std::vector<core::KernelCharacterization>* ServeTest::characterizations_ =
    nullptr;
core::PredictorPtr ServeTest::model_a_;
core::PredictorPtr ServeTest::model_b_;

// ---- registry ----------------------------------------------------------

TEST_F(ServeTest, RegistryPublishesAndResolvesVersions) {
  ModelRegistry registry;
  EXPECT_EQ(registry.current().version, 0u);
  EXPECT_EQ(registry.current().model, nullptr);
  EXPECT_EQ(registry.get(1), nullptr);

  const std::uint64_t v1 = registry.publish(model_a_);
  const std::uint64_t v2 = registry.publish(model_b_);
  EXPECT_EQ(v1, 1u);
  EXPECT_EQ(v2, 2u);
  EXPECT_EQ(registry.current().version, v2);
  EXPECT_EQ(registry.version_count(), 2u);
  EXPECT_EQ(registry.get(v1)->cluster_count(), model_a_->cluster_count());
  EXPECT_EQ(registry.get(v2)->cluster_count(), model_b_->cluster_count());
  EXPECT_EQ(registry.versions(), (std::vector<std::uint64_t>{1, 2}));
}

TEST_F(ServeTest, AdoptModelAcceptsNewerVersionsAndInterleavesWithPublish) {
  ModelRegistry registry;
  // Fleet hand-off: a coordinator assigns version numbers; the replica
  // adopts them as-is.
  EXPECT_EQ(registry.adopt_model(5, model_a_), 5u);
  EXPECT_EQ(registry.current().version, 5u);
  EXPECT_EQ(registry.adopt_model(9, model_b_), 9u);
  EXPECT_EQ(registry.current().version, 9u);
  EXPECT_EQ(registry.versions(), (std::vector<std::uint64_t>{5, 9}));
  // publish() continues from the adopted history.
  EXPECT_EQ(registry.publish(model_a_), 10u);
  // previous_of keeps its version-order meaning across adopted entries.
  EXPECT_EQ(registry.previous_of(10).version, 9u);
}

TEST_F(ServeTest, AdoptModelRejectsOlderVersionWithoutRollbackFlag) {
  ModelRegistry registry;
  registry.adopt_model(7, model_a_);
  // The version-skew guard: a lagging fleet node replaying an old
  // publish must not displace the newer model.
  EXPECT_THROW(registry.adopt_model(3, model_b_), Error);
  EXPECT_EQ(registry.current().version, 7u);
  EXPECT_EQ(registry.version_count(), 1u);
}

TEST_F(ServeTest, AdoptModelAllowRollbackOverridesTheGuard) {
  ModelRegistry registry;
  registry.adopt_model(7, model_a_);
  // Explicit operator override: the older version is adopted and becomes
  // current, inserted in version order.
  EXPECT_EQ(registry.adopt_model(3, model_b_, /*allow_rollback=*/true), 3u);
  EXPECT_EQ(registry.current().version, 3u);
  EXPECT_EQ(registry.versions(), (std::vector<std::uint64_t>{3, 7}));
  // The newer model is still resolvable; re-adopting it moves forward.
  EXPECT_EQ(registry.adopt_model(7, model_a_), 7u);
  EXPECT_EQ(registry.current().version, 7u);
  EXPECT_EQ(registry.version_count(), 2u);  // re-pointed, not duplicated
}

TEST_F(ServeTest, AdoptModelReAdoptingCurrentIsIdempotent) {
  ModelRegistry registry;
  registry.adopt_model(4, model_a_);
  EXPECT_EQ(registry.adopt_model(4, model_b_), 4u);  // no-op, keeps model
  EXPECT_EQ(registry.version_count(), 1u);
  EXPECT_EQ(registry.current().model->cluster_count(),
            model_a_->cluster_count());
}

TEST_F(ServeTest, RegistryRollbackStepsBack) {
  ModelRegistry registry;
  registry.publish(model_a_);
  const std::uint64_t v2 = registry.publish(model_b_);
  EXPECT_EQ(registry.current().version, v2);
  EXPECT_EQ(registry.rollback(), 1u);
  EXPECT_EQ(registry.current().version, 1u);
  // The rolled-back-from version stays resolvable for pinned requests.
  EXPECT_NE(registry.get(v2), nullptr);
  EXPECT_THROW(registry.rollback(), Error);
  // Publishing after a rollback continues the version sequence.
  EXPECT_EQ(registry.publish(model_b_), 3u);
  EXPECT_EQ(registry.current().version, 3u);
}

TEST_F(ServeTest, RegistryPublishFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/serve_registry_model.txt";
  model_a_->save(path);
  ModelRegistry registry;
  const std::uint64_t version = registry.publish_file(path);
  const auto loaded = registry.get(version);
  ASSERT_NE(loaded, nullptr);
  // The loaded model must reproduce the original's predictions exactly
  // (17-significant-digit serialization round-trips doubles bit-exactly).
  const auto& samples = (*characterizations_)[0].samples;
  const core::Prediction a = model_a_->predict(samples);
  const core::Prediction b = loaded->predict(samples);
  ASSERT_EQ(a.per_config.size(), b.per_config.size());
  for (std::size_t i = 0; i < a.per_config.size(); ++i) {
    EXPECT_EQ(a.per_config[i].power_w, b.per_config[i].power_w);
    EXPECT_EQ(a.per_config[i].performance, b.per_config[i].performance);
  }
}

// ---- bounded queue -----------------------------------------------------

TEST(ServeQueue, ShedsWhenFullAndDrainsOnClose) {
  BoundedQueue<int> queue{2};
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_FALSE(queue.try_push(3));  // full -> shed
  EXPECT_EQ(queue.size(), 2u);

  queue.close();
  EXPECT_FALSE(queue.try_push(4));  // closed -> shed
  int out = 0;
  EXPECT_TRUE(queue.pop(out));
  EXPECT_EQ(out, 1);
  std::vector<int> batch;
  EXPECT_EQ(queue.pop_batch(batch, 8), 1u);  // drains the remainder
  EXPECT_EQ(batch, (std::vector<int>{2}));
  EXPECT_EQ(queue.pop_batch(batch, 8), 0u);  // closed and empty
}

TEST(ServeQueue, PopBatchTakesAtMostMaxItems) {
  BoundedQueue<int> queue{8};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.try_push(i));
  }
  std::vector<int> batch;
  EXPECT_EQ(queue.pop_batch(batch, 3), 3u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.size(), 2u);
}

// ---- latency histogram -------------------------------------------------

TEST(ServeMetrics, HistogramBucketBoundsContainSamples) {
  for (const std::uint64_t nanos :
       {0ull, 1ull, 3ull, 4ull, 7ull, 100ull, 999ull, 1000ull, 123456ull,
        1000000ull, 987654321ull}) {
    const std::size_t bucket = obs::Histogram::bucket_of(nanos);
    EXPECT_LE(nanos, obs::Histogram::bucket_upper_nanos(bucket)) << nanos;
    if (bucket + 1 < obs::Histogram::kBuckets) {
      EXPECT_LT(obs::Histogram::bucket_upper_nanos(bucket),
                obs::Histogram::bucket_upper_nanos(bucket + 1));
    }
  }
}

TEST(ServeMetrics, HistogramQuantilesAreOrderedAndTight) {
  obs::Histogram histogram;
  for (int i = 0; i < 99; ++i) {
    histogram.record(1000);  // ~1 us
  }
  histogram.record(1000000);  // one 1 ms outlier
  const auto snap = histogram.snapshot();
  EXPECT_EQ(snap.count, 100u);
  // Quarter-octave buckets overestimate by < 28%.
  EXPECT_GE(snap.p50_us, 1.0);
  EXPECT_LE(snap.p50_us, 1.28);
  EXPECT_LE(snap.p50_us, snap.p99_us);
  EXPECT_EQ(snap.max_us, 1000.0);  // max is exact, not bucketed
}

// ---- server ------------------------------------------------------------

TEST_F(ServeTest, ServesNoModelPublishedWhenRegistryEmpty) {
  ModelRegistry registry;
  ServerOptions options;
  options.workers = 1;
  Server server{registry, options};
  const SelectResponse response = server.select(make_request(1, 0));
  EXPECT_EQ(response.status, ResponseStatus::NoModelPublished);
  EXPECT_EQ(response.request_id, 1u);
}

TEST_F(ServeTest, ServesUnknownModelVersion) {
  ModelRegistry registry;
  registry.publish(model_a_);
  ServerOptions options;
  options.workers = 1;
  Server server{registry, options};
  SelectRequest request = make_request(2, 0);
  request.model_version = 99;
  EXPECT_EQ(server.select(request).status,
            ResponseStatus::UnknownModelVersion);
}

TEST_F(ServeTest, SingleRequestMatchesReferenceExactly) {
  ModelRegistry registry;
  const std::uint64_t version = registry.publish(model_a_);
  ServerOptions options;
  options.workers = 2;
  Server server{registry, options};
  const SelectRequest request = make_request(3, 1);
  const SelectResponse served = server.select(request);
  const SelectResponse reference =
      serve_with_model(*model_a_, version, request, {});
  // Byte-identical: compare the encoded frames.
  std::vector<std::uint8_t> served_bytes;
  std::vector<std::uint8_t> reference_bytes;
  encode_response(served, served_bytes);
  encode_response(reference, reference_bytes);
  EXPECT_EQ(served_bytes, reference_bytes);
}

TEST_F(ServeTest, ConcurrentStreamMatchesReferenceAcrossHotSwap) {
  ModelRegistry registry;
  const std::uint64_t v1 = registry.publish(model_a_);

  ServerOptions options;
  options.workers = 4;
  options.queue_capacity = 4096;
  options.max_batch = 16;
  Server server{registry, options};

  constexpr std::uint64_t kPerClient = 250;
  constexpr std::size_t kClients = 4;
  std::vector<std::pair<SelectRequest, std::future<SelectResponse>>>
      in_flight[kClients];
  std::atomic<std::uint64_t> submitted_count{0};
  std::atomic<std::uint64_t> v2{0};

  // The swap is sequenced, not raced: every client submits its first
  // half, then waits for v2 to be published before submitting the rest,
  // so both versions serve however the threads are scheduled.
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        if (i == kPerClient / 2) {
          while (v2.load() == 0) {
            std::this_thread::yield();
          }
        }
        SelectRequest request =
            make_request(c * kPerClient + i, 7 + c);
        // A slice of requests pins version 1 explicitly — they must be
        // served by v1 even after the swap.
        if (i % 11 == 0) {
          request.model_version = v1;
        }
        in_flight[c].emplace_back(request, server.submit(request));
        ++submitted_count;
      }
    });
  }
  // Hot-swap mid-stream, once every client's first half is in.
  std::thread swapper{[&] {
    while (submitted_count.load() < kClients * kPerClient / 2) {
      std::this_thread::yield();
    }
    v2.store(registry.publish(model_b_));
  }};
  for (auto& client : clients) {
    client.join();
  }
  swapper.join();

  std::size_t served_by_v2 = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    for (auto& [request, future] : in_flight[c]) {
      const SelectResponse response = future.get();
      ASSERT_EQ(response.status, ResponseStatus::Ok);
      // Responses must name a version the registry holds...
      const auto model = registry.get(response.model_version);
      ASSERT_NE(model, nullptr) << "version " << response.model_version;
      // ...honor explicit pins...
      if (request.model_version != 0) {
        EXPECT_EQ(response.model_version, request.model_version);
      }
      served_by_v2 += response.model_version == v2.load() ? 1 : 0;
      // ...and match the single-threaded reference loop byte for byte.
      const SelectResponse reference = serve_with_model(
          *model, response.model_version, request, server.options().scheduler);
      std::vector<std::uint8_t> served_bytes;
      std::vector<std::uint8_t> reference_bytes;
      encode_response(response, served_bytes);
      encode_response(reference, reference_bytes);
      ASSERT_EQ(served_bytes, reference_bytes)
          << "request " << request.request_id;
    }
  }
  // The swap happened mid-stream, so both versions must have served.
  EXPECT_GT(served_by_v2, 0u);
  EXPECT_LT(served_by_v2, kClients * kPerClient);

  const auto snapshot = server.metrics_snapshot();
  EXPECT_EQ(snapshot.submitted, kClients * kPerClient);
  EXPECT_EQ(snapshot.completed + snapshot.shed, snapshot.submitted);
  EXPECT_EQ(snapshot.shed, 0u);  // queue was deep enough for the stream
  EXPECT_EQ(snapshot.errors, 0u);
  EXPECT_GE(snapshot.batches, 1u);
  EXPECT_GE(snapshot.mean_batch, 1.0);
}

/// Delegates to a real model, but its first predict() throws a
/// non-acsel exception — what a predictor bug looks like in production.
class ThrowsOnceOutOfRange final : public core::Predictor {
 public:
  explicit ThrowsOnceOutOfRange(core::PredictorPtr inner)
      : inner_(std::move(inner)) {}
  std::string_view kind() const override { return inner_->kind(); }
  std::size_t cluster_count() const override {
    return inner_->cluster_count();
  }
  const hw::ConfigSpace& config_space() const override {
    return inner_->config_space();
  }
  std::size_t classify(const core::SamplePair& samples) const override {
    return inner_->classify(samples);
  }
  core::Prediction predict(const core::SamplePair& samples) const override {
    if (!thrown_.exchange(true)) {
      throw std::out_of_range{"cluster index out of range"};
    }
    return inner_->predict(samples);
  }
  std::string serialize_body() const override {
    return inner_->serialize_body();
  }

 private:
  core::PredictorPtr inner_;
  mutable std::atomic<bool> thrown_{false};
};

TEST_F(ServeTest, NonAcselExceptionFromPredictResolvesAsInternalError) {
  ModelRegistry registry;
  registry.publish(std::make_shared<ThrowsOnceOutOfRange>(model_a_));
  ServerOptions options;
  options.workers = 1;
  Server server{registry, options};
  // The throw resolves the request instead of killing the worker...
  EXPECT_EQ(server.select(make_request(1, 5)).status,
            ResponseStatus::InternalError);
  // ...so the next request is still served.
  EXPECT_EQ(server.select(make_request(2, 5)).status, ResponseStatus::Ok);
  EXPECT_EQ(server.metrics_snapshot().errors, 1u);
}

TEST_F(ServeTest, ShedsWithErrorWhenQueueIsFull) {
  ModelRegistry registry;
  registry.publish(model_a_);
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 1;  // nearly every burst submission sheds
  options.max_batch = 1;
  Server server{registry, options};

  constexpr std::size_t kClients = 4;
  constexpr std::uint64_t kPerClient = 100;
  std::atomic<std::uint64_t> shed_seen{0};
  std::atomic<std::uint64_t> ok_seen{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::future<SelectResponse>> futures;
      for (std::uint64_t i = 0; i < kPerClient; ++i) {
        futures.push_back(server.submit(make_request(c * kPerClient + i, 3)));
      }
      for (auto& future : futures) {
        const SelectResponse response = future.get();
        if (response.status == ResponseStatus::Shed) {
          ++shed_seen;
        } else if (response.status == ResponseStatus::Ok) {
          ++ok_seen;
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  // Every request resolved one way or the other; nothing hung or vanished.
  EXPECT_EQ(shed_seen + ok_seen, kClients * kPerClient);
  EXPECT_GT(shed_seen.load(), 0u);
  EXPECT_GT(ok_seen.load(), 0u);

  const auto snapshot = server.metrics_snapshot();
  EXPECT_EQ(snapshot.shed, shed_seen.load());
  EXPECT_EQ(snapshot.completed, ok_seen.load());
  EXPECT_EQ(snapshot.submitted, kClients * kPerClient);
}

TEST_F(ServeTest, SubmissionsAfterStopAreShed) {
  ModelRegistry registry;
  registry.publish(model_a_);
  ServerOptions options;
  options.workers = 1;
  Server server{registry, options};
  server.stop();
  EXPECT_EQ(server.select(make_request(5, 0)).status, ResponseStatus::Shed);
}

// ---- wire path ---------------------------------------------------------

TEST_F(ServeTest, ServeFrameRoundTripsThroughTheWire) {
  ModelRegistry registry;
  const std::uint64_t version = registry.publish(model_a_);
  ServerOptions options;
  options.workers = 2;
  Server server{registry, options};

  const SelectRequest request = make_request(6, 2);
  std::vector<std::uint8_t> frame;
  encode_request(request, frame);
  const std::vector<std::uint8_t> reply = server.serve_frame(frame);

  const Decoded decoded = decode_frame(reply);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  ASSERT_EQ(decoded.type, MessageType::SelectResponse);
  EXPECT_EQ(decoded.response.request_id, request.request_id);
  EXPECT_EQ(decoded.response.status, ResponseStatus::Ok);
  EXPECT_EQ(decoded.response.model_version, version);

  const SelectResponse reference =
      serve_with_model(*model_a_, version, request, {});
  EXPECT_EQ(decoded.response.config_index, reference.config_index);
  EXPECT_EQ(decoded.response.predicted_power_w,
            reference.predicted_power_w);
}

TEST_F(ServeTest, ServeFrameRejectsMalformedInput) {
  ModelRegistry registry;
  registry.publish(model_a_);
  ServerOptions options;
  options.workers = 1;
  Server server{registry, options};

  const std::vector<std::uint8_t> garbage{1, 2, 3, 4, 5, 6, 7, 8,
                                          9, 10, 11, 12, 13};
  const std::vector<std::uint8_t> reply = server.serve_frame(garbage);
  const Decoded decoded = decode_frame(reply);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  EXPECT_EQ(decoded.response.status, ResponseStatus::MalformedRequest);

  // A response frame sent to the request endpoint is equally rejected.
  std::vector<std::uint8_t> response_frame;
  encode_response(SelectResponse{}, response_frame);
  const Decoded wrong_type = decode_frame(server.serve_frame(response_frame));
  ASSERT_EQ(wrong_type.status, DecodeStatus::Ok);
  EXPECT_EQ(wrong_type.response.status, ResponseStatus::MalformedRequest);
}

TEST_F(ServeTest, BadWireCapIsMalformedAndNeverChargedToTheBreaker) {
  // A NaN, non-positive or infinite cap is refused at the wire. Decoded,
  // it would throw in the scheduler under MaxPerformance — an
  // InternalError charged to the breaker, which then reroutes good
  // traffic to the previous model — or be served uncapped.
  ModelRegistry registry;
  registry.publish(model_a_);
  const std::uint64_t current = registry.publish(model_b_);
  ServerOptions options;
  options.workers = 1;
  options.breaker.enabled = true;
  options.breaker.failure_threshold = 3;
  Server server{registry, options};

  std::uint64_t id = 1;
  for (const core::SchedulingGoal goal :
       {core::SchedulingGoal::MaxPerformance, core::SchedulingGoal::MinEnergy,
        core::SchedulingGoal::MinEnergyDelay}) {
    for (const double cap : {std::numeric_limits<double>::quiet_NaN(), 0.0,
                             -1.0, std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      SelectRequest request = make_request(id++, 5);
      request.goal = goal;
      request.cap_w = cap;
      std::vector<std::uint8_t> frame;
      encode_request(request, frame);
      const Decoded reply = decode_frame(server.serve_frame(frame));
      ASSERT_EQ(reply.status, DecodeStatus::Ok);
      EXPECT_EQ(reply.response.status, ResponseStatus::MalformedRequest)
          << "cap " << cap;
    }
  }
  EXPECT_EQ(server.breaker().state(), Breaker::State::Closed);
  EXPECT_EQ(server.breaker().trips(), 0u);

  SelectRequest good = make_request(id, 5);
  good.cap_w = 30.0;
  std::vector<std::uint8_t> frame;
  encode_request(good, frame);
  const Decoded reply = decode_frame(server.serve_frame(frame));
  ASSERT_EQ(reply.status, DecodeStatus::Ok);
  EXPECT_EQ(reply.response.status, ResponseStatus::Ok);
  EXPECT_EQ(reply.response.model_version, current);
}

/// A StatsRequest frame answered over the wire returns the exact snapshot
/// the in-process registry reports — the remote-scrape parity contract.
TEST_F(ServeTest, StatsScrapeMatchesRegistry) {
  ModelRegistry registry;
  registry.publish(model_a_);
  ServerOptions options;
  options.workers = 2;
  Server server{registry, options};

  // Drive some traffic so the scraped counters are non-trivial.
  for (std::uint64_t i = 0; i < 16; ++i) {
    ASSERT_EQ(server.select(make_request(i, 9)).status, ResponseStatus::Ok);
  }

  StatsRequest stats_request;
  stats_request.request_id = 77;
  std::vector<std::uint8_t> frame;
  encode_stats_request(stats_request, frame);
  const std::vector<std::uint8_t> reply = server.serve_frame(frame);

  const Decoded decoded = decode_frame(reply);
  ASSERT_EQ(decoded.status, DecodeStatus::Ok);
  ASSERT_EQ(decoded.type, MessageType::StatsResponse);
  EXPECT_EQ(decoded.stats_response.request_id, 77u);
  EXPECT_EQ(decoded.stats_response.status, ResponseStatus::Ok);
  // The server is idle (select() waited for each future), so the wire
  // snapshot and a fresh in-process snapshot must agree fieldwise.
  EXPECT_EQ(decoded.stats_response.metrics,
            server.stats_registry().snapshot());

  // Sanity: the scrape carried the real counters.
  bool saw_completed = false;
  for (const auto& metric : decoded.stats_response.metrics) {
    if (metric.name == "serve.completed") {
      saw_completed = true;
      EXPECT_EQ(metric.count, 16u);
    }
  }
  EXPECT_TRUE(saw_completed);

  // Scraping is read-only: a second scrape returns the same counters.
  const Decoded again = decode_frame(server.serve_frame(frame));
  ASSERT_EQ(again.status, DecodeStatus::Ok);
  EXPECT_EQ(again.stats_response.metrics, decoded.stats_response.metrics);
}

}  // namespace
}  // namespace acsel::serve
