// Process-wide metric registry: named counters, gauges and log-bucketed
// histograms with relaxed-atomic hot paths. Every subsystem — the online
// runtime, the trainer, the serving layer — counts through one mechanism
// and one snapshot/export path (text table, CSV, and the serve wire
// protocol's StatsResponse all render the same MetricSnapshot rows).
//
// Hot-path contract: add()/set()/record() are wait-free (relaxed atomics
// on independent cells). Snapshots tolerate being a few events torn — the
// standard histogram trade for zero hot-path locking. Registration
// (looking a metric up by name) takes a mutex; callers on hot paths
// register once and keep the returned reference, which stays valid for
// the registry's lifetime.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/csv.h"

namespace acsel::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram of nonnegative integer samples (canonically nanoseconds; the
/// snapshot reports microseconds) with four buckets per power-of-two
/// octave — quarter-octave resolution, so quantile estimates overshoot by
/// at most ~19%. Covers 1 ns .. ~9 s; larger samples clamp into the last
/// bucket.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 132;  // 33 octaves * 4
  /// Exemplars retained per histogram (the slowest samples seen).
  static constexpr std::size_t kExemplarSlots = 4;

  Histogram();

  /// Records one sample. Wait-free; safe from any thread.
  void record(std::uint64_t nanos);

  /// A sample annotated with the distributed trace that produced it —
  /// the link from "p99 is burning" to "this exact request was slow".
  struct Exemplar {
    std::uint64_t nanos = 0;
    std::uint64_t trace_id = 0;

    friend bool operator==(const Exemplar&, const Exemplar&) = default;
  };

  /// Records one sample and, when `trace_id` is nonzero, offers it as an
  /// exemplar: the histogram keeps the kExemplarSlots slowest traced
  /// samples. Near-wait-free — the exemplar lock is only taken when the
  /// sample beats the current floor, which stops happening almost
  /// immediately on a steady workload.
  void record(std::uint64_t nanos, std::uint64_t trace_id);

  /// The slowest traced samples, slowest first.
  std::vector<Exemplar> exemplars() const;

  /// Adds every cell of `other` into this histogram (e.g. folding
  /// per-shard histograms into a total). Safe against concurrent
  /// record() on either side; the merged snapshot may tear by a few
  /// in-flight events, like any concurrent snapshot.
  void merge(const Histogram& other);

  struct Snapshot {
    std::uint64_t count = 0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
  };

  Snapshot snapshot() const;

  /// Zeroes all cells. Not atomic against concurrent record(); callers
  /// reset between measurement windows, while the recorders are
  /// quiescent.
  void reset();

  /// Bucket index for a sample (exposed for the tests).
  static std::size_t bucket_of(std::uint64_t nanos);
  /// Inclusive upper bound of a bucket in nanoseconds — the value
  /// quantiles report for samples landing in it.
  static std::uint64_t bucket_upper_nanos(std::size_t bucket);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_;
  std::atomic<std::uint64_t> max_nanos_{0};
  /// Slowest traced sample admitted so far that would NOT make the
  /// exemplar table — the lock-free gate in front of exemplar_mu_.
  std::atomic<std::uint64_t> exemplar_floor_{0};
  mutable std::mutex exemplar_mu_;
  std::array<Exemplar, kExemplarSlots> exemplar_slots_{};  // exemplar_mu_
};

enum class MetricKind : std::uint8_t {
  Counter = 0,
  Gauge = 1,
  Histogram = 2,
};

const char* to_string(MetricKind kind);

/// One registry entry at snapshot time. Which fields are meaningful
/// depends on `kind`: counters fill `count`, gauges fill `value`,
/// histograms fill `count` plus the quantile fields.
struct MetricSnapshot {
  std::string name;
  MetricKind kind = MetricKind::Counter;
  std::uint64_t count = 0;  ///< counter value / histogram sample count
  double value = 0.0;       ///< gauge value
  double p50_us = 0.0;      ///< histogram quantiles
  double p99_us = 0.0;
  double max_us = 0.0;

  friend bool operator==(const MetricSnapshot&,
                         const MetricSnapshot&) = default;
};

/// Named metric store. Metrics are created on first lookup and live for
/// the registry's lifetime (stable addresses — hot paths cache the
/// references). A name is bound to one kind forever; re-registering under
/// a different kind throws acsel::Error.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// All metrics, sorted by name. Each metric's cells are read with
  /// relaxed atomics; the set of metrics is read under the registration
  /// mutex, so snapshotting is safe against concurrent registration.
  std::vector<MetricSnapshot> snapshot() const;

  /// Zeroes every metric (names and kinds survive). For use between
  /// measurement windows, while recorders are quiescent.
  void reset();

  std::size_t size() const;

  /// The process-wide default registry (never destroyed, so metrics can
  /// be recorded from detached threads during shutdown).
  static Registry& global();

 private:
  struct Entry {
    MetricKind kind = MetricKind::Counter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_for(const std::string& name, MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// Renders a snapshot as an aligned text table (util::TextTable style).
void print_registry(const std::vector<MetricSnapshot>& snapshot,
                    std::ostream& out, const std::string& title = "metrics");

/// CSV dump: one row per metric, matching registry_csv_header().
const std::vector<std::string>& registry_csv_header();
void write_registry_csv(CsvWriter& writer,
                        const std::vector<MetricSnapshot>& snapshot);

}  // namespace acsel::obs
