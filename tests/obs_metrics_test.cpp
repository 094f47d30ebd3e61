// Tests for the obs metric registry: counter/gauge/histogram semantics,
// histogram merge, concurrent recording (exercised under TSan in CI),
// registry snapshot/reset, and the text/CSV exporters.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/csv.h"
#include "util/error.h"

namespace acsel::obs {
namespace {

TEST(Histogram, MergeAddsCountsAndTakesMax) {
  Histogram a;
  Histogram b;
  a.record(1000);
  a.record(2000);
  b.record(2000);
  b.record(500000);
  a.merge(b);
  const Histogram::Snapshot snap = a.snapshot();
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.max_us, 500.0);
  // The merged cells are the sum of both histograms' cells.
  Histogram c;
  c.record(1000);
  c.record(2000);
  c.record(2000);
  c.record(500000);
  EXPECT_DOUBLE_EQ(snap.p50_us, c.snapshot().p50_us);
  EXPECT_DOUBLE_EQ(snap.p99_us, c.snapshot().p99_us);
}

TEST(Histogram, BucketUpperBoundsAreMonotone) {
  // Every bucket has a defined bound, the bounds never decrease, and they
  // strictly increase across the buckets bucket_of can return.
  for (std::size_t b = 1; b < Histogram::kBuckets; ++b) {
    EXPECT_LE(Histogram::bucket_upper_nanos(b - 1),
              Histogram::bucket_upper_nanos(b))
        << "bucket " << b;
  }
  // A populated bucket's bound is the largest sample that lands in it.
  for (std::uint64_t nanos = 1; nanos < 4096; ++nanos) {
    const std::size_t b = Histogram::bucket_of(nanos);
    const std::size_t prev = Histogram::bucket_of(nanos - 1);
    EXPECT_LE(nanos, Histogram::bucket_upper_nanos(b)) << nanos;
    if (b != prev) {
      EXPECT_GT(b, prev) << nanos;
      EXPECT_EQ(nanos - 1, Histogram::bucket_upper_nanos(prev)) << nanos;
    }
  }
}

TEST(Histogram, MergeOfEmptyIsIdentity) {
  Histogram a;
  a.record(4096);
  Histogram b;
  a.merge(b);
  EXPECT_EQ(a.snapshot().count, 1u);
  b.merge(a);
  EXPECT_EQ(b.snapshot().count, 1u);
  EXPECT_DOUBLE_EQ(b.snapshot().max_us, a.snapshot().max_us);
}

TEST(Histogram, ConcurrentRecordAndMergeIsRaceFree) {
  // 4 writers record into shards while a collector repeatedly folds the
  // shards into a total — the pattern TSan checks for data races in CI.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<Histogram> shards(kThreads);
  Histogram total;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&shards, t] {
      for (int i = 0; i < kPerThread; ++i) {
        shards[static_cast<std::size_t>(t)].record(
            static_cast<std::uint64_t>(i * kThreads + t + 1));
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    for (const Histogram& shard : shards) {
      total.merge(shard);  // torn mid-run merges are fine; races are not
    }
  }
  for (std::thread& writer : writers) {
    writer.join();
  }
  Histogram final_total;
  for (const Histogram& shard : shards) {
    final_total.merge(shard);
  }
  EXPECT_EQ(final_total.snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(final_total.snapshot().max_us,
                   static_cast<double>(kThreads * kPerThread) / 1e3);
}

TEST(Registry, ConcurrentRegistrationAndRecordingIsRaceFree) {
  Registry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&registry, t] {
      // Same names from every thread: registration must race-freely
      // resolve to the same cells.
      Counter& hits = registry.counter("hits");
      Histogram& lat = registry.histogram("latency");
      registry.gauge("depth").set(static_cast<double>(t));
      for (int i = 0; i < 10000; ++i) {
        hits.add();
        lat.record(static_cast<std::uint64_t>(i + 1));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  // Sorted by name: depth, hits, latency.
  EXPECT_EQ(snapshot[0].name, "depth");
  EXPECT_EQ(snapshot[1].name, "hits");
  EXPECT_EQ(snapshot[1].count, 40000u);
  EXPECT_EQ(snapshot[2].name, "latency");
  EXPECT_EQ(snapshot[2].count, 40000u);
}

TEST(Registry, StableReferencesAndKinds) {
  Registry registry;
  Counter& c1 = registry.counter("a");
  registry.histogram("b");
  registry.gauge("c");
  Counter& c2 = registry.counter("a");
  EXPECT_EQ(&c1, &c2);
  EXPECT_EQ(registry.size(), 3u);
  // A name is bound to one kind forever.
  EXPECT_THROW(registry.gauge("a"), Error);
  EXPECT_THROW(registry.counter("b"), Error);
  EXPECT_THROW(registry.counter(""), Error);
}

TEST(Registry, ResetZeroesValuesButKeepsNames) {
  Registry registry;
  registry.counter("a").add(7);
  registry.gauge("g").set(2.5);
  registry.histogram("h").record(1 << 20);
  registry.reset();
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  for (const MetricSnapshot& metric : snapshot) {
    EXPECT_EQ(metric.count, 0u);
    EXPECT_DOUBLE_EQ(metric.value, 0.0);
    EXPECT_DOUBLE_EQ(metric.max_us, 0.0);
  }
}

TEST(Registry, SnapshotEqualityIsFieldwise) {
  Registry registry;
  registry.counter("a").add(3);
  registry.histogram("h").record(1000);
  const auto first = registry.snapshot();
  EXPECT_EQ(first, registry.snapshot());
  registry.counter("a").add();
  EXPECT_NE(first, registry.snapshot());
}

TEST(Exporters, CsvMatchesHeaderAndRowCount) {
  Registry registry;
  registry.counter("requests").add(5);
  registry.gauge("depth").set(1.5);
  std::ostringstream out;
  CsvWriter writer{out};
  writer.header(registry_csv_header());
  write_registry_csv(writer, registry.snapshot());
  const CsvDocument doc = parse_csv(out.str());
  EXPECT_EQ(doc.header, registry_csv_header());
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][doc.column("name")], "requests");
  EXPECT_EQ(doc.rows[1][doc.column("count")], "5");
  EXPECT_EQ(doc.rows[0][doc.column("kind")], "gauge");
}

TEST(Exporters, TextTableListsEveryMetric) {
  Registry registry;
  registry.counter("hits").add(2);
  registry.histogram("lat").record(500);
  std::ostringstream out;
  print_registry(registry.snapshot(), out);
  const std::string text = out.str();
  EXPECT_NE(text.find("hits"), std::string::npos);
  EXPECT_NE(text.find("lat"), std::string::npos);
  EXPECT_NE(text.find("histogram"), std::string::npos);
}

}  // namespace
}  // namespace acsel::obs
