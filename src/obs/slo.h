// Declarative SLOs with Google-SRE multi-window burn-rate alerting,
// evaluated per tick against the SeriesStore. An SLO is a ratio SLI
// (numerator/denominator series deltas per tick: delivered-fraction) or a
// value SLI (a gauge/quantile series compared against a bound: p99 below
// an objective, cap exceedance at most a target). Each tick contributes
// one good/bad bit per SLO; burn rate over a window is
//
//   burn = (bad fraction over window) / error_budget
//
// and an alert fires only when BOTH the fast window (default 5 ticks)
// and the slow window (default 60 ticks) burn at or above the threshold
// (default 14.4 — the SRE-workbook "2% of a 30-day budget in an hour"
// page rate). The fast window makes alerts clear quickly once the
// condition ends; the slow window keeps one bad tick from paging.
//
// Alerts are deterministic records, not callbacks: fired/cleared ticks,
// burn rates at fire time, and annotations snapshotted from the same
// store — membership transitions and adapt promotions/rollbacks over the
// fast window (was the fleet reconfiguring when this fired?) plus
// exemplar trace ids pulled from a configured histogram, so an alert
// links directly to a mergeable end-to-end trace of a slow request.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/series.h"

namespace acsel::obs {

class Registry;

/// How a value SLI compares against its objective.
enum class SloKind : std::uint8_t {
  RatioAtLeast = 0,  ///< delta(num)/delta(den) per tick must be >= objective
  ValueBelow = 1,    ///< series value per tick must be < objective
  ValueAtMost = 2,   ///< series value per tick must be <= objective
};

const char* to_string(SloKind kind);

/// One service-level objective over SeriesStore series.
struct Slo {
  std::string name;
  SloKind kind = SloKind::RatioAtLeast;
  /// RatioAtLeast: numerator/denominator series (cumulative counters;
  /// per-tick deltas form the ratio; a tick with denominator delta <= 0
  /// is vacuously good). Value kinds: `numerator` is the series compared,
  /// `denominator` unused.
  std::string numerator;
  std::string denominator;
  double objective = 0.999;
  /// Fraction of ticks allowed to be bad (burn = bad_fraction / budget).
  double error_budget = 0.001;
  /// Histogram metric whose exemplars annotate alerts ("" = none).
  std::string exemplar_metric;
};

struct BurnRateOptions {
  std::uint64_t fast_window = 5;
  std::uint64_t slow_window = 60;
  double burn_threshold = 14.4;
};

/// One deterministic alert record. `cleared_tick` is 0 while active.
struct Alert {
  std::string slo;
  std::uint64_t fired_tick = 0;
  std::uint64_t cleared_tick = 0;
  double fast_burn = 0.0;   ///< at fire time
  double slow_burn = 0.0;   ///< at fire time
  double worst_value = 0.0; ///< worst SLI value over the fast window
  /// Fleet/adapt context over the fast window at fire time.
  double membership_transitions = 0.0;
  double promotions = 0.0;
  double rollbacks = 0.0;
  /// Trace ids of the slowest exemplars of the configured histogram.
  std::vector<std::uint64_t> exemplar_trace_ids;

  bool active() const { return cleared_tick == 0; }

  bool operator==(const Alert&) const = default;
};

/// Live evaluation state surfaced by the stats scrape.
struct SloState {
  std::string name;
  double sli = 0.0;  ///< last tick's SLI value
  double fast_burn = 0.0;
  double slow_burn = 0.0;
  bool firing = false;
};

class SloEngine {
 public:
  explicit SloEngine(BurnRateOptions burn = {});

  void add(Slo slo);
  const std::vector<Slo>& slos() const { return slos_; }
  const BurnRateOptions& burn_options() const { return burn_; }

  /// Evaluates every SLO against the store at its current tick — call
  /// once per observe(). `registry` (optional) supplies histogram
  /// exemplars for alert annotations. Returns alerts that FIRED on this
  /// tick (the same records are retained in alerts()).
  std::vector<Alert> evaluate(const SeriesStore& store,
                              Registry* registry = nullptr);

  /// Every alert ever fired, in fire order (active ones last-cleared).
  const std::vector<Alert>& alerts() const { return alerts_; }
  /// Alerts currently firing.
  std::vector<Alert> active_alerts() const;
  /// Per-SLO live state as of the last evaluate().
  const std::vector<SloState>& states() const { return states_; }

 private:
  struct PerSlo {
    std::deque<bool> bad_bits;    // newest at back, bounded by slow_window
    std::deque<double> sli_vals;  // newest at back, bounded by fast_window
    double last_num = 0.0;
    double last_den = 0.0;
    bool have_last = false;
    bool firing = false;
    std::size_t alert_index = 0;  // into alerts_ while firing
  };

  double burn_over(const PerSlo& state, std::uint64_t window) const;

  BurnRateOptions burn_;
  std::vector<Slo> slos_;
  std::vector<PerSlo> per_slo_;
  std::vector<SloState> states_;
  std::vector<Alert> alerts_;
};

}  // namespace acsel::obs
