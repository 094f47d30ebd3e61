#include "obs/metrics.h"

#include <algorithm>
#include <bit>

#include "util/error.h"
#include "util/strings.h"
#include "util/table.h"

namespace acsel::obs {

Histogram::Histogram() { reset(); }

std::size_t Histogram::bucket_of(std::uint64_t nanos) {
  if (nanos < 4) {
    return nanos;  // buckets 0..3 hold the degenerate first octaves
  }
  const int octave = static_cast<int>(std::bit_width(nanos)) - 1;  // >= 2
  const std::uint64_t sub = (nanos >> (octave - 2)) & 3;  // quarter-octave
  const std::size_t index =
      static_cast<std::size_t>(octave) * 4 + static_cast<std::size_t>(sub);
  return index < kBuckets ? index : kBuckets - 1;
}

std::uint64_t Histogram::bucket_upper_nanos(std::size_t bucket) {
  if (bucket < 4) {
    return bucket;
  }
  if (bucket < 8) {
    // Octave 1 would hold 2..3, which buckets 0..3 already take, so
    // bucket_of never returns 4..7. They stay empty; giving them bucket
    // 8's bound keeps the bounds monotone (and the shift below defined).
    return 4;
  }
  const std::uint64_t octave = bucket / 4;
  const std::uint64_t sub = bucket % 4;
  // Largest value whose top bits are (1, sub): next quarter boundary - 1.
  return ((4 + sub + 1) << (octave - 2)) - 1;
}

void Histogram::record(std::uint64_t nanos) {
  buckets_[bucket_of(nanos)].fetch_add(1, std::memory_order_relaxed);
  std::uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen && !max_nanos_.compare_exchange_weak(
                             seen, nanos, std::memory_order_relaxed)) {
  }
}

void Histogram::record(std::uint64_t nanos, std::uint64_t trace_id) {
  record(nanos);
  if (trace_id == 0 ||
      nanos < exemplar_floor_.load(std::memory_order_relaxed)) {
    return;
  }
  std::lock_guard<std::mutex> lock{exemplar_mu_};
  // Replace the fastest slot when this sample beats it (empty slots have
  // nanos 0 and lose immediately).
  std::size_t fastest = 0;
  for (std::size_t i = 1; i < kExemplarSlots; ++i) {
    if (exemplar_slots_[i].nanos < exemplar_slots_[fastest].nanos) {
      fastest = i;
    }
  }
  if (nanos < exemplar_slots_[fastest].nanos) {
    return;  // lost the race to a concurrent slower sample
  }
  exemplar_slots_[fastest] = Exemplar{nanos, trace_id};
  std::uint64_t floor = exemplar_slots_[0].nanos;
  for (std::size_t i = 1; i < kExemplarSlots; ++i) {
    floor = std::min(floor, exemplar_slots_[i].nanos);
  }
  exemplar_floor_.store(floor, std::memory_order_relaxed);
}

std::vector<Histogram::Exemplar> Histogram::exemplars() const {
  std::vector<Exemplar> out;
  {
    std::lock_guard<std::mutex> lock{exemplar_mu_};
    for (const Exemplar& exemplar : exemplar_slots_) {
      if (exemplar.trace_id != 0) {
        out.push_back(exemplar);
      }
    }
  }
  std::sort(out.begin(), out.end(), [](const Exemplar& a, const Exemplar& b) {
    return a.nanos > b.nanos;
  });
  return out;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t n = other.buckets_[i].load(std::memory_order_relaxed);
    if (n != 0) {
      buckets_[i].fetch_add(n, std::memory_order_relaxed);
    }
  }
  const std::uint64_t other_max =
      other.max_nanos_.load(std::memory_order_relaxed);
  std::uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (other_max > seen &&
         !max_nanos_.compare_exchange_weak(seen, other_max,
                                           std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  Snapshot snap;
  snap.count = total;
  snap.max_us =
      static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) / 1e3;
  if (total == 0) {
    return snap;
  }
  const auto quantile_us = [&](double q) {
    const double target = q * static_cast<double>(total);
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      cumulative += counts[i];
      if (static_cast<double>(cumulative) >= target) {
        // Bucket upper bound, clamped so a quantile never exceeds the
        // exact observed maximum.
        const double upper = static_cast<double>(bucket_upper_nanos(i)) / 1e3;
        return upper < snap.max_us ? upper : snap.max_us;
      }
    }
    return snap.max_us;
  };
  snap.p50_us = quantile_us(0.50);
  snap.p99_us = quantile_us(0.99);
  return snap;
}

void Histogram::reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  max_nanos_.store(0, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock{exemplar_mu_};
    exemplar_slots_.fill(Exemplar{});
  }
  exemplar_floor_.store(0, std::memory_order_relaxed);
}

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter:
      return "counter";
    case MetricKind::Gauge:
      return "gauge";
    case MetricKind::Histogram:
      return "histogram";
  }
  return "?";
}

Registry::Entry& Registry::entry_for(const std::string& name,
                                     MetricKind kind) {
  ACSEL_CHECK_MSG(!name.empty(), "metric name must be non-empty");
  std::lock_guard<std::mutex> lock{mu_};
  auto [it, inserted] = entries_.try_emplace(name);
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    switch (kind) {
      case MetricKind::Counter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricKind::Gauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::Histogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
  } else {
    ACSEL_CHECK_MSG(entry.kind == kind,
                    "metric \"" + name + "\" already registered as " +
                        to_string(entry.kind) + ", requested as " +
                        to_string(kind));
  }
  return entry;
}

Counter& Registry::counter(const std::string& name) {
  return *entry_for(name, MetricKind::Counter).counter;
}

Gauge& Registry::gauge(const std::string& name) {
  return *entry_for(name, MetricKind::Gauge).gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  return *entry_for(name, MetricKind::Histogram).histogram;
}

std::vector<MetricSnapshot> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock{mu_};
  std::vector<MetricSnapshot> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {  // map order == name order
    MetricSnapshot snap;
    snap.name = name;
    snap.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::Counter:
        snap.count = entry.counter->value();
        break;
      case MetricKind::Gauge:
        snap.value = entry.gauge->value();
        break;
      case MetricKind::Histogram: {
        const Histogram::Snapshot hist = entry.histogram->snapshot();
        snap.count = hist.count;
        snap.p50_us = hist.p50_us;
        snap.p99_us = hist.p99_us;
        snap.max_us = hist.max_us;
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock{mu_};
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case MetricKind::Counter:
        entry.counter->reset();
        break;
      case MetricKind::Gauge:
        entry.gauge->reset();
        break;
      case MetricKind::Histogram:
        entry.histogram->reset();
        break;
    }
  }
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock{mu_};
  return entries_.size();
}

Registry& Registry::global() {
  // Leaked on purpose: worker threads may still record during static
  // destruction, and a destroyed registry would be a use-after-free.
  static Registry* const instance = new Registry{};
  return *instance;
}

void print_registry(const std::vector<MetricSnapshot>& snapshot,
                    std::ostream& out, const std::string& title) {
  TextTable table;
  table.set_header({"Metric", "Kind", "Value", "p50 us", "p99 us", "max us"});
  for (const MetricSnapshot& metric : snapshot) {
    std::string value;
    switch (metric.kind) {
      case MetricKind::Counter:
        value = std::to_string(metric.count);
        break;
      case MetricKind::Gauge:
        value = format_double(metric.value, 6);
        break;
      case MetricKind::Histogram:
        value = std::to_string(metric.count);
        break;
    }
    const bool hist = metric.kind == MetricKind::Histogram;
    table.add_row({metric.name, to_string(metric.kind), value,
                   hist ? format_double(metric.p50_us, 4) : "-",
                   hist ? format_double(metric.p99_us, 4) : "-",
                   hist ? format_double(metric.max_us, 4) : "-"});
  }
  table.print(out, title);
}

const std::vector<std::string>& registry_csv_header() {
  static const std::vector<std::string> header{
      "name", "kind", "count", "value", "p50_us", "p99_us", "max_us"};
  return header;
}

void write_registry_csv(CsvWriter& writer,
                        const std::vector<MetricSnapshot>& snapshot) {
  for (const MetricSnapshot& metric : snapshot) {
    writer.row({metric.name, to_string(metric.kind),
                std::to_string(metric.count),
                format_double(metric.value, 17),
                format_double(metric.p50_us, 17),
                format_double(metric.p99_us, 17),
                format_double(metric.max_us, 17)});
  }
}

}  // namespace acsel::obs
