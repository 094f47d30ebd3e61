// Deterministic, seeded datacenter traffic generation for the soak
// harness: the offered load follows a diurnal sinusoid, a two-state
// Markov chain overlays bursty on-off arrival waves, kernel popularity
// is Zipf-distributed with a slow rotation that drifts the mix over the
// run, and each arrival draws a priority class, scheduling goal, and
// power cap from configured mixes.
//
// Determinism contract: each tick's draws come from a fresh
// Rng{mix_seeds(seed, tick)} stream, so a generator replays the exact
// same arrival sequence for a given (options, call order) — the burst
// chain and the drift rotation are the only cross-tick state, and both
// advance deterministically. Two generators with the same options
// produce bitwise-identical traffic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/scheduler.h"
#include "serve/message.h"
#include "util/rng.h"

namespace acsel::dc {

struct TrafficOptions {
  std::uint64_t seed = 271828;
  /// Mean offered load at the diurnal midline, requests per simulated
  /// second.
  double base_qps = 240.0;
  /// Peak-to-midline swing of the diurnal curve, as a fraction of
  /// base_qps (0 = flat, 0.5 = 50% swing). Must stay below 1.
  double diurnal_amplitude = 0.5;
  /// Ticks per diurnal cycle ("one day").
  std::uint64_t diurnal_period_ticks = 96;
  /// Markov on-off burst overlay: per-tick probability of entering /
  /// leaving a burst, and the load multiplier while inside one.
  double burst_enter = 0.03;
  double burst_exit = 0.25;
  double burst_multiplier = 2.5;
  /// Priority mix; the remainder is Normal.
  double high_fraction = 0.2;
  double low_fraction = 0.3;
  /// Kernel popularity: Zipf(s) over `kernels` distinct identities.
  double zipf_exponent = 1.1;
  std::size_t kernels = 96;
  /// Kernel-mix drift: the popularity ranking rotates by this many
  /// kernels per tick (fractional values accumulate), so the hot set
  /// migrates across the ring over the run.
  double drift_per_tick = 0.0;
  /// Simulated trace seconds one tick covers.
  double tick_seconds = 0.05;
};

/// One generated request, by reference into the caller's kernel pool.
struct Arrival {
  std::uint64_t request_id = 0;
  std::size_t kernel = 0;
  serve::Priority priority = serve::Priority::Normal;
  core::SchedulingGoal goal = core::SchedulingGoal::MaxPerformance;
  std::optional<double> cap_w;
};

class TrafficGenerator {
 public:
  explicit TrafficGenerator(const TrafficOptions& options);

  /// Generates the next tick's arrivals. Call sequentially; the arrival
  /// count is Poisson in the tick's offered load.
  std::vector<Arrival> tick();

  /// The diurnal curve alone (no burst overlay) at tick `t`, requests
  /// per simulated second.
  double diurnal_qps(std::uint64_t t) const;

  /// Whether the burst chain is currently on.
  bool bursting() const { return bursting_; }
  /// Scenario override: pins the burst state; the chain resumes its own
  /// transitions from the pinned state on the next tick.
  void force_burst(bool on) { bursting_ = on; }

  /// Ticks generated so far.
  std::uint64_t ticks() const { return tick_; }

  const TrafficOptions& options() const { return options_; }

 private:
  std::size_t zipf_draw(Rng& rng) const;
  static std::uint64_t poisson(Rng& rng, double lambda);

  TrafficOptions options_;
  std::vector<double> zipf_cdf_;
  std::uint64_t tick_ = 0;
  std::uint64_t next_id_ = 1;
  bool bursting_ = false;
  double rotation_ = 0.0;
};

}  // namespace acsel::dc
