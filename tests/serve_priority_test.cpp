// Overload-control tests: the bounded queue's class-based admission
// limits (shed Low first, drain strictly FIFO), the server shedding Low
// before High under a sustained flood with per-class conservation, and
// the client's token-bucket retry budget keeping a shed wave from
// amplifying into a retry storm.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

#include "core/trainer.h"
#include "eval/characterize.h"
#include "serve/client.h"
#include "serve/codec.h"
#include "serve/queue.h"
#include "serve/server.h"
#include "soc/machine.h"
#include "workloads/suite.h"

namespace acsel::serve {
namespace {

// ---- queue admission ---------------------------------------------------

TEST(PriorityQueueAdmission, LowerLimitsShedWhileCapacityRemains) {
  BoundedQueue<int> queue{10, 1};
  // Fill to a Low-class limit of 5: the 6th Low push sheds even though
  // half the queue is still free...
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(queue.try_push(i, 5));
  }
  EXPECT_FALSE(queue.try_push(99, 5));
  // ...a Normal-class limit of 8 still admits...
  EXPECT_TRUE(queue.try_push(5, 8));
  EXPECT_TRUE(queue.try_push(6, 8));
  EXPECT_TRUE(queue.try_push(7, 8));
  EXPECT_FALSE(queue.try_push(99, 8));
  // ...and the full-capacity limit admits to the brim.
  EXPECT_TRUE(queue.try_push(8, 10));
  EXPECT_TRUE(queue.try_push(9, 10));
  EXPECT_FALSE(queue.try_push(99, 10));
  EXPECT_EQ(queue.size(), 10u);

  // The drain is strictly FIFO: admission classes never reorder or
  // starve items already accepted.
  for (int expected = 0; expected < 10; ++expected) {
    std::vector<int> out;
    ASSERT_EQ(queue.pop_batch(out, 1), 1u);
    EXPECT_EQ(out, (std::vector<int>{expected}));
    queue.release();
  }
}

TEST(PriorityQueueAdmission, LimitAboveCapacityClampsToCapacity) {
  BoundedQueue<int> queue{2, 1};
  EXPECT_TRUE(queue.try_push(0, 100));
  EXPECT_TRUE(queue.try_push(1, 100));
  EXPECT_FALSE(queue.try_push(2, 100));
}

// ---- server flood ------------------------------------------------------

class ServePriorityTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    soc::Machine machine{soc::MachineSpec{}, 4242};
    const auto suite = workloads::Suite::standard();
    characterizations_ = new std::vector<core::KernelCharacterization>{};
    for (const auto& instance : suite.instances()) {
      characterizations_->push_back(
          eval::characterize_instance(machine, instance));
      if (characterizations_->size() == 8) {
        break;
      }
    }
    core::TrainerOptions options;
    options.clusters = 3;
    model_ = core::make_predictor(
        core::train(*characterizations_, options).model);
  }

  static void TearDownTestSuite() {
    model_.reset();
    delete characterizations_;
  }

  static SelectRequest make_request(std::uint64_t id, Priority priority) {
    SelectRequest request;
    request.request_id = id;
    request.priority = priority;
    request.samples =
        (*characterizations_)[id % characterizations_->size()].samples;
    request.cap_w = 26.0;
    return request;
  }

  static std::vector<core::KernelCharacterization>* characterizations_;
  static core::PredictorPtr model_;
};

std::vector<core::KernelCharacterization>*
    ServePriorityTest::characterizations_ = nullptr;
core::PredictorPtr ServePriorityTest::model_;

TEST_F(ServePriorityTest, SustainedFloodShedsLowStrictlyBeforeHigh) {
  ModelRegistry registry;
  registry.publish(model_);
  ServerOptions options;
  options.workers = 1;
  options.queue_capacity = 20;  // Low admits to 10, Normal to 16
  options.max_batch = 1;
  Server server{registry, options};

  constexpr std::size_t kClients = 4;
  constexpr std::uint64_t kPerClass = 200;
  std::array<std::atomic<std::uint64_t>, kPriorityClasses> ok_seen{};
  std::array<std::atomic<std::uint64_t>, kPriorityClasses> shed_seen{};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<std::pair<Priority, std::future<SelectResponse>>> futures;
      for (std::uint64_t i = 0; i < kPerClass; ++i) {
        // Interleave the classes so every burst carries all three.
        for (const Priority priority :
             {Priority::High, Priority::Normal, Priority::Low}) {
          futures.emplace_back(
              priority, server.submit(make_request(c * kPerClass + i,
                                                   priority)));
        }
      }
      for (auto& [priority, future] : futures) {
        const SelectResponse response = future.get();
        const auto index = static_cast<std::size_t>(priority);
        if (response.status == ResponseStatus::Shed) {
          ++shed_seen[index];
        } else if (response.status == ResponseStatus::Ok) {
          ++ok_seen[index];
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }

  // Per-class conservation: every submission resolved Ok or Shed, and
  // the server's per-class shed counters agree with what clients saw.
  const auto snapshot = server.metrics_snapshot();
  std::uint64_t total_ok = 0;
  for (std::size_t p = 0; p < kPriorityClasses; ++p) {
    EXPECT_EQ(ok_seen[p] + shed_seen[p], kClients * kPerClass)
        << "class " << p;
    EXPECT_EQ(snapshot.shed_by_priority[p], shed_seen[p]) << "class " << p;
    total_ok += ok_seen[p];
  }
  EXPECT_EQ(snapshot.completed, total_ok);
  EXPECT_EQ(snapshot.submitted, kClients * kPerClass * kPriorityClasses);

  // The ordering contract: under sustained pressure Low sheds strictly
  // more than High (Low gives up at half the queue, High rides to the
  // brim), and Normal sits between them.
  const std::uint64_t high = shed_seen[0];
  const std::uint64_t normal = shed_seen[1];
  const std::uint64_t low = shed_seen[2];
  EXPECT_GT(low, 0u);
  EXPECT_GT(low, high);
  EXPECT_GE(low, normal);
  EXPECT_GE(normal, high);
}

// ---- client retry budget -----------------------------------------------

/// A transport that always sheds: decodes the request only to echo its
/// id back in a Shed response — the retryable failure shape.
std::vector<std::uint8_t> shedding_transport(
    std::span<const std::uint8_t> frame) {
  const Decoded decoded = decode_frame(frame);
  SelectResponse response;
  response.request_id =
      decoded.status == DecodeStatus::Ok ? decoded.request.request_id : 0;
  response.status = ResponseStatus::Shed;
  std::vector<std::uint8_t> bytes;
  encode_response(response, bytes);
  return bytes;
}

TEST(ClientRetryBudget, TokenBucketBoundsRetriesUnderAShedStorm) {
  ClientOptions options;
  options.max_attempts = 4;
  options.retry_budget_ratio = 0.1;
  options.retry_budget_initial = 2.0;
  options.sleep = [](std::chrono::microseconds) {};
  Client client{shedding_transport, options};

  constexpr std::uint64_t kCalls = 100;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    SelectRequest request;
    request.request_id = i;
    // The budget never converts a failure into a hang: a dry bucket
    // returns the last failure immediately.
    EXPECT_EQ(client.select(request).status, ResponseStatus::Shed);
  }
  EXPECT_EQ(client.calls(), kCalls);
  // The bucket bound: initial tokens plus the per-call deposits. Without
  // the budget this storm would retry (max_attempts - 1) * kCalls = 300
  // times.
  const double bound = options.retry_budget_initial +
                       options.retry_budget_ratio *
                           static_cast<double>(client.calls());
  EXPECT_LE(static_cast<double>(client.retries()), bound + 1e-9);
  EXPECT_GT(client.retry_budget_exhausted(), 0u);
}

TEST(ClientRetryBudget, NonPositiveRatioDisablesTheBudget) {
  ClientOptions options;
  options.max_attempts = 3;
  options.retry_budget_ratio = 0.0;
  options.sleep = [](std::chrono::microseconds) {};
  Client client{shedding_transport, options};

  constexpr std::uint64_t kCalls = 20;
  for (std::uint64_t i = 0; i < kCalls; ++i) {
    SelectRequest request;
    request.request_id = i;
    EXPECT_EQ(client.select(request).status, ResponseStatus::Shed);
  }
  // Retries bounded by max_attempts only; the bucket never reports dry.
  EXPECT_EQ(client.retries(),
            (static_cast<std::uint64_t>(options.max_attempts) - 1) * kCalls);
  EXPECT_EQ(client.retry_budget_exhausted(), 0u);
}

TEST(ClientRetryBudget, ExhaustionIsExportedAsAGlobalCounter) {
  const auto counter_value = []() -> std::uint64_t {
    for (const auto& metric : obs::Registry::global().snapshot()) {
      if (metric.name == "serve.client.retry_budget_exhausted") {
        return metric.count;
      }
    }
    return 0;
  };
  const std::uint64_t before = counter_value();

  ClientOptions options;
  options.max_attempts = 4;
  options.retry_budget_ratio = 0.01;
  options.retry_budget_initial = 0.0;
  options.sleep = [](std::chrono::microseconds) {};
  Client client{shedding_transport, options};
  SelectRequest request;
  request.request_id = 1;
  (void)client.select(request);

  EXPECT_GT(client.retry_budget_exhausted(), 0u);
  EXPECT_GE(counter_value() - before, client.retry_budget_exhausted());
}

}  // namespace
}  // namespace acsel::serve
