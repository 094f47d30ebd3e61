// Tests for the concurrent configuration-selection service: registry
// hot-swap/rollback, bounded-queue shedding, the latency histogram, inline
// dispatch on an idle server, the batch memo, and — the core contract — N
// worker threads returning byte-identical decisions to the single-threaded
// reference loop, including across a mid-stream model hot-swap.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
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
  BoundedQueue<int> queue{2, 1};
  EXPECT_TRUE(queue.try_push(1, 2));
  EXPECT_TRUE(queue.try_push(2, 2));
  EXPECT_FALSE(queue.try_push(3, 2));  // full -> shed
  EXPECT_EQ(queue.size(), 2u);

  queue.close();
  EXPECT_FALSE(queue.try_push(4, 2));  // closed -> shed
  std::vector<int> first;
  EXPECT_EQ(queue.pop_batch(first, 1), 1u);
  EXPECT_EQ(first, (std::vector<int>{1}));
  queue.release();
  std::vector<int> batch;
  EXPECT_EQ(queue.pop_batch(batch, 8), 1u);  // drains the remainder
  EXPECT_EQ(batch, (std::vector<int>{2}));
  queue.release();
  EXPECT_EQ(queue.pop_batch(batch, 8), 0u);  // closed and empty
}

TEST(ServeQueue, PopBatchTakesAtMostMaxItems) {
  BoundedQueue<int> queue{8, 1};
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.try_push(i, 8));
  }
  std::vector<int> batch;
  EXPECT_EQ(queue.pop_batch(batch, 3), 3u);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(queue.size(), 2u);
}

TEST(ServeQueue, IdleClaimsNeedAnOpenEmptyQueueAndAFreeSlot) {
  BoundedQueue<int> queue{4, 2};
  ASSERT_TRUE(queue.try_push(1, 4));
  EXPECT_FALSE(queue.try_claim_idle());  // an item waits; it goes first
  std::vector<int> out;
  ASSERT_EQ(queue.pop_batch(out, 1), 1u);  // claims slot 1 of 2
  EXPECT_TRUE(queue.try_claim_idle());   // empty again: slot 2
  EXPECT_FALSE(queue.try_claim_idle());  // both slots held
  queue.release();
  EXPECT_TRUE(queue.try_claim_idle());
  queue.release();
  queue.release();
  queue.close();
  EXPECT_FALSE(queue.try_claim_idle());  // closed
}

TEST(ServeQueue, PopWaitsForAFreeSlot) {
  BoundedQueue<int> queue{4, 1};
  ASSERT_TRUE(queue.try_claim_idle());
  ASSERT_TRUE(queue.try_push(7, 4));
  std::atomic<bool> popped{false};
  std::thread consumer{[&] {
    std::vector<int> out;
    EXPECT_EQ(queue.pop_batch(out, 1), 1u);
    EXPECT_EQ(out, (std::vector<int>{7}));
    popped = true;
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  EXPECT_FALSE(popped.load());  // the only slot is held
  queue.release();
  consumer.join();
  EXPECT_TRUE(popped.load());
  queue.release();
}

TEST(ServeQueue, WaitIdleBlocksUntilEverySlotIsReleased) {
  BoundedQueue<int> queue{4, 2};
  ASSERT_TRUE(queue.try_claim_idle());
  ASSERT_TRUE(queue.try_claim_idle());
  std::atomic<bool> idle{false};
  std::thread waiter{[&] {
    queue.wait_idle();
    idle = true;
  }};
  queue.release();
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  EXPECT_FALSE(idle.load());  // one slot still held
  queue.release();
  waiter.join();
  EXPECT_TRUE(idle.load());
}

// Consumers asleep for a slot while the queue is closed must all return
// once it is drained, although the last pop leaves no item for a release
// to announce. The pauses let both consumers block before each step.
TEST(ServeQueue, ClosedQueueWakesEveryConsumerOnceDrained) {
  auto queue = std::make_shared<BoundedQueue<int>>(8, 2);
  ASSERT_TRUE(queue->try_claim_idle());
  ASSERT_TRUE(queue->try_claim_idle());
  std::vector<std::future<std::size_t>> taken;
  std::vector<std::thread> consumers;
  for (int i = 0; i < 2; ++i) {
    std::promise<std::size_t> promise;
    taken.push_back(promise.get_future());
    consumers.emplace_back([queue, promise = std::move(promise)]() mutable {
      std::vector<int> batch;
      promise.set_value(queue->pop_batch(batch, 8));
    });
  }
  const auto pause = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
  };
  pause();
  ASSERT_TRUE(queue->try_push(1, 8));
  queue->close();
  pause();
  queue->release();  // one consumer takes the item, draining the queue
  pause();
  queue->release();
  std::size_t total = 0;
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    if (taken[i].wait_for(std::chrono::seconds{5}) ==
        std::future_status::ready) {
      total += taken[i].get();
      consumers[i].join();
    } else {
      ADD_FAILURE() << "consumer " << i << " never woke";
      consumers[i].detach();  // it owns a queue reference; left blocked
    }
  }
  EXPECT_EQ(total, 1u);
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

// ---- inline dispatch and the batch memo --------------------------------

/// Delegates to a real model and records how the server calls it: each
/// predict() in entry order (which sample pair, on which thread) and the
/// most calls in flight at once. hold() makes the next predict() block,
/// once entered, until open() — a test's way to pin a worker or an inline
/// caller inside a selection. A non-zero `dwell` makes every predict()
/// sleep that long, so concurrent calls overlap.
class RecordingPredictor final : public core::Predictor {
 public:
  struct Call {
    double cpu_time_ms = 0.0;  // identifies the sample pair
    std::thread::id thread;
  };

  explicit RecordingPredictor(
      core::PredictorPtr inner,
      std::chrono::microseconds dwell = std::chrono::microseconds{0})
      : inner_(std::move(inner)), dwell_(dwell) {}
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
    const int in_flight = in_flight_.fetch_add(1) + 1;
    int most = max_in_flight_.load();
    while (in_flight > most &&
           !max_in_flight_.compare_exchange_weak(most, in_flight)) {
    }
    {
      std::unique_lock<std::mutex> lock{mu_};
      calls_.push_back({samples.cpu.time_ms, std::this_thread::get_id()});
      if (hold_) {
        hold_ = false;
        held_ = true;
        cv_.notify_all();
        cv_.wait(lock, [&] { return open_; });
      }
    }
    if (dwell_.count() > 0) {
      std::this_thread::sleep_for(dwell_);
    }
    core::Prediction prediction = inner_->predict(samples);
    in_flight_.fetch_sub(1);
    return prediction;
  }
  std::string serialize_body() const override {
    return inner_->serialize_body();
  }

  void hold() {
    const std::lock_guard<std::mutex> lock{mu_};
    hold_ = true;
    held_ = false;
    open_ = false;
  }
  void wait_until_held() {
    std::unique_lock<std::mutex> lock{mu_};
    cv_.wait(lock, [&] { return held_; });
  }
  void open() {
    const std::lock_guard<std::mutex> lock{mu_};
    open_ = true;
    cv_.notify_all();
  }
  bool is_open() const {
    const std::lock_guard<std::mutex> lock{mu_};
    return open_;
  }
  std::vector<Call> calls() const {
    const std::lock_guard<std::mutex> lock{mu_};
    return calls_;
  }
  int max_in_flight() const { return max_in_flight_.load(); }

 private:
  core::PredictorPtr inner_;
  const std::chrono::microseconds dwell_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  mutable std::vector<Call> calls_;
  mutable bool hold_ = false;
  mutable bool held_ = false;
  mutable bool open_ = true;
  mutable std::atomic<int> in_flight_{0};
  mutable std::atomic<int> max_in_flight_{0};
};

/// Whether `served` encodes to the same bytes as the reference answer.
bool matches_reference(const SelectResponse& served,
                       const core::Predictor& model, std::uint64_t version,
                       const SelectRequest& request) {
  std::vector<std::uint8_t> served_bytes;
  std::vector<std::uint8_t> reference_bytes;
  encode_response(served, served_bytes);
  encode_response(serve_with_model(model, version, request, {}),
                  reference_bytes);
  return served_bytes == reference_bytes;
}

TEST_F(ServeTest, IdleSelectRunsOnTheCallingThread) {
  auto recorder = std::make_shared<RecordingPredictor>(model_a_);
  ModelRegistry registry;
  const std::uint64_t version = registry.publish(recorder);
  ServerOptions options;
  options.workers = 2;
  Server server{registry, options};

  const SelectRequest request = make_request(1, 11);
  std::vector<std::uint8_t> frame;
  encode_request(request, frame);
  const Decoded reply = decode_frame(server.serve_frame(frame));
  ASSERT_EQ(reply.status, DecodeStatus::Ok);
  EXPECT_TRUE(matches_reference(reply.response, *model_a_, version, request));
  EXPECT_TRUE(matches_reference(server.select(request), *model_a_, version,
                                request));
  // submit() keeps its future and its hop to a worker.
  EXPECT_TRUE(matches_reference(server.submit(request).get(), *model_a_,
                                version, request));

  const std::vector<RecordingPredictor::Call> calls = recorder->calls();
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0].thread, std::this_thread::get_id());  // serve_frame
  EXPECT_EQ(calls[1].thread, std::this_thread::get_id());  // select
  EXPECT_NE(calls[2].thread, std::this_thread::get_id());  // submit
  const auto snapshot = server.metrics_snapshot();
  EXPECT_EQ(snapshot.submitted, 3u);
  EXPECT_EQ(snapshot.completed, 3u);
}

TEST_F(ServeTest, InlineSelectionsNeverExceedTheWorkerCount) {
  // Each predict() sleeps, so with all eight callers released at once
  // selections would pile up past the two slots if nothing bounded them.
  auto recorder = std::make_shared<RecordingPredictor>(
      model_a_, std::chrono::microseconds{50});
  ModelRegistry registry;
  const std::uint64_t version = registry.publish(recorder);
  ServerOptions options;
  options.workers = 2;
  Server server{registry, options};

  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 200;
  std::vector<std::vector<SelectResponse>> responses(kThreads);
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ++ready;
      while (ready.load() < kThreads) {
        std::this_thread::yield();
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        responses[t].push_back(
            server.select(make_request(t * kPerThread + i, 13)));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }

  EXPECT_GE(recorder->max_in_flight(), 1);
  EXPECT_LE(recorder->max_in_flight(), 2);
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(responses[t].size(), kPerThread);
    for (std::uint64_t i = 0; i < kPerThread; ++i) {
      const SelectResponse& response = responses[t][i];
      ASSERT_EQ(response.status, ResponseStatus::Ok);
      ASSERT_TRUE(matches_reference(response, *model_a_, version,
                                    make_request(t * kPerThread + i, 13)))
          << "request " << response.request_id;
    }
  }
  EXPECT_EQ(server.metrics_snapshot().completed, kThreads * kPerThread);
}

TEST_F(ServeTest, SelectNeverOvertakesQueuedWork) {
  auto recorder = std::make_shared<RecordingPredictor>(model_a_);
  ModelRegistry registry;
  registry.publish(recorder);
  ServerOptions options;
  options.workers = 1;
  Server server{registry, options};

  SelectRequest held = make_request(1, 0);
  SelectRequest queued = make_request(2, 0);
  SelectRequest late = make_request(3, 0);
  held.samples = (*characterizations_)[0].samples;
  queued.samples = (*characterizations_)[1].samples;
  late.samples = (*characterizations_)[2].samples;
  const double held_id = held.samples.cpu.time_ms;
  const double queued_id = queued.samples.cpu.time_ms;
  const double late_id = late.samples.cpu.time_ms;
  ASSERT_NE(held_id, queued_id);
  ASSERT_NE(queued_id, late_id);
  ASSERT_NE(held_id, late_id);

  // The worker is pinned inside predict(), and one request waits behind it.
  recorder->hold();
  std::future<SelectResponse> held_future = server.submit(held);
  recorder->wait_until_held();
  std::future<SelectResponse> queued_future = server.submit(queued);
  SelectResponse late_response;
  std::thread caller{[&] { late_response = server.select(late); }};
  while (server.metrics_snapshot().queue_depth < 2) {
    std::this_thread::yield();  // the select() queued behind `queued`
  }
  recorder->open();
  caller.join();

  EXPECT_EQ(held_future.get().status, ResponseStatus::Ok);
  EXPECT_EQ(queued_future.get().status, ResponseStatus::Ok);
  EXPECT_EQ(late_response.status, ResponseStatus::Ok);
  const std::vector<RecordingPredictor::Call> calls = recorder->calls();
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0].cpu_time_ms, held_id);
  EXPECT_EQ(calls[1].cpu_time_ms, queued_id);
  EXPECT_EQ(calls[2].cpu_time_ms, late_id);
}

TEST_F(ServeTest, StopWaitsForAnInlineSelection) {
  auto recorder = std::make_shared<RecordingPredictor>(model_a_);
  ModelRegistry registry;
  registry.publish(recorder);
  ServerOptions options;
  options.workers = 1;
  Server server{registry, options};

  recorder->hold();
  SelectResponse response;
  std::thread caller{[&] { response = server.select(make_request(1, 17)); }};
  recorder->wait_until_held();
  const std::vector<RecordingPredictor::Call> calls = recorder->calls();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].thread, caller.get_id());  // served inline

  std::atomic<bool> stopped{false};
  bool open_when_stopped = false;
  std::thread stopper{[&] {
    server.stop();
    open_when_stopped = recorder->is_open();
    stopped = true;
  }};
  std::this_thread::sleep_for(std::chrono::milliseconds{50});
  EXPECT_FALSE(stopped.load());
  recorder->open();
  stopper.join();
  caller.join();

  EXPECT_TRUE(open_when_stopped);
  EXPECT_EQ(response.status, ResponseStatus::Ok);
  EXPECT_EQ(server.select(make_request(2, 17)).status, ResponseStatus::Shed);
  server.stop();  // idempotent
}

TEST_F(ServeTest, BatchMemoPredictsOncePerDistinctSamplePair) {
  auto recorder = std::make_shared<RecordingPredictor>(model_a_);
  ModelRegistry registry;
  const std::uint64_t version = registry.publish(recorder);
  ServerOptions options;
  options.workers = 1;
  Server server{registry, options};

  // Two sample pairs, and a third that differs from the first only in the
  // sign of a zero counter: bitwise distinct, so it must not share.
  core::SamplePair first = (*characterizations_)[0].samples;
  first.cpu.counters.interrupts = 0.0;
  core::SamplePair second = (*characterizations_)[1].samples;
  core::SamplePair signed_zero = first;
  signed_zero.cpu.counters.interrupts = -0.0;

  recorder->hold();
  SelectRequest holder = make_request(1, 0);
  holder.samples = (*characterizations_)[2].samples;
  std::future<SelectResponse> held = server.submit(holder);
  recorder->wait_until_held();

  // Queued behind the held worker, so they drain as one batch.
  std::vector<std::pair<SelectRequest, std::future<SelectResponse>>> batch;
  std::uint64_t id = 2;
  for (const double cap : {18.0, 22.0, 30.0, 40.0}) {
    for (const core::SamplePair* samples : {&first, &second}) {
      SelectRequest request = make_request(id++, 0);
      request.samples = *samples;
      request.cap_w = cap;
      batch.emplace_back(request, server.submit(request));
    }
  }
  SelectRequest request = make_request(id, 0);
  request.samples = signed_zero;
  request.cap_w = 26.0;
  batch.emplace_back(request, server.submit(request));
  recorder->open();

  EXPECT_EQ(held.get().status, ResponseStatus::Ok);
  for (auto& [queued, future] : batch) {
    const SelectResponse response = future.get();
    ASSERT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_TRUE(matches_reference(response, *model_a_, version, queued))
        << "request " << queued.request_id;
  }
  // The holder's predict() plus one per distinct sample pair.
  EXPECT_EQ(recorder->calls().size(), 1u + 3u);
  EXPECT_EQ(server.metrics_snapshot().batches, 2u);
}

}  // namespace
}  // namespace acsel::serve
