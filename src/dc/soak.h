// Scenario-scripted datacenter soak: drives a fleet::Fleet through a
// TrafficGenerator stream while a deterministic script of infrastructure
// events plays out — shard blackouts, facility power emergencies
// (fleet brownouts), forced burst waves, and a mid-run workload shift —
// and closes the adaptation loop: sampled delivered requests feed
// measured residuals into an adapt::AdaptController, and a promoted
// retrain is re-published fleet-wide.
//
// The driver owns the whole experiment: the World (machine, workload
// pool, offline model, clean/shifted ground truth), the fleet, the
// trainer-side registry + controller, and the per-tick timeline the
// soak bench turns into BENCH_dc.json. Everything is deterministic in
// (options, world): traffic replays bit-for-bit, scripted events land on
// fixed ticks, and adapt decisions follow the deterministic observation
// stream (retrains are awaited every tick).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "adapt/controller.h"
#include "dc/traffic.h"
#include "exec/executor.h"
#include "fleet/fleet.h"
#include "serve/message.h"

namespace acsel::dc {

/// One scripted infrastructure event, applied at the start of its tick.
struct ScenarioEvent {
  enum class Kind : std::uint8_t {
    /// Fails every replica of shard `value` (a rack blackout).
    FailShard,
    /// Revives every replica in the fleet.
    ReviveAll,
    /// Pins the traffic generator's burst state on / off.
    BurstOn,
    BurstOff,
    /// Power emergency: the fleet's budget drops to `value` x base.
    BudgetCut,
    /// Ends the emergency; the brownout unwinds one stage per rebalance.
    BudgetRestore,
    /// The workload shifts: measured feedback switches to the shifted
    /// ground truth, so the stale model's residuals start drifting.
    KernelShift,
  };
  std::uint64_t tick = 0;
  Kind kind = Kind::FailShard;
  double value = 0.0;
};

const char* to_string(ScenarioEvent::Kind kind);

/// Everything the soak serves and measures against: a kernel pool (the
/// traffic generator indexes into it), the offline model, and per-base
/// ground truth before and after the workload shift.
struct World {
  /// Kernel index -> sample pair (distinct identities for the ring).
  std::vector<core::SamplePair> pool;
  /// Kernel index -> row in clean_truth / shifted_truth.
  std::vector<std::size_t> truth_of;
  std::vector<core::KernelCharacterization> clean_truth;
  std::vector<core::KernelCharacterization> shifted_truth;
  /// Offline training set (the adapt controller's seed data).
  std::vector<core::KernelCharacterization> training;
  core::PredictorPtr model;
};

struct WorldOptions {
  std::uint64_t machine_seed = 90210;
  /// Distinct kernel identities in the pool (variants of the held-out
  /// benchmark's instances).
  std::size_t kernels = 96;
  /// Caps on world size, for small test worlds.
  std::size_t max_training = static_cast<std::size_t>(-1);
  std::size_t max_bases = static_cast<std::size_t>(-1);
};

/// Characterizes the machine, trains the offline model, and builds the
/// kernel pool plus clean/shifted ground truth.
World make_world(const WorldOptions& options);

struct SoakOptions {
  TrafficOptions traffic;
  fleet::FleetOptions fleet;
  adapt::AdaptOptions adapt;
  std::uint64_t ticks = 200;
  std::vector<ScenarioEvent> script;
  /// Every Nth delivered request (by request id) feeds the adapt loop.
  std::uint64_t measure_every = 4;
  /// Every Nth measurement carries the full characterization label.
  std::uint64_t label_every = 1;
  /// Fan-out/driver executor (nullptr = serial) — also runs retrains.
  exec::Executor* executor = nullptr;
};

/// Tuned adapt options for the soak (CUSUM drift, full shadowing, small
/// canary/probation windows) — the adapt_loop bench's configuration.
adapt::AdaptOptions soak_adapt_defaults();

/// One tick of the soak timeline. Request counters are deltas over the
/// tick; gauges are the fleet's windowed values after it.
struct TickSample {
  std::uint64_t tick = 0;
  std::uint64_t offered = 0;
  bool bursting = false;
  std::array<std::uint64_t, serve::kPriorityClasses> routed{};
  std::array<std::uint64_t, serve::kPriorityClasses> delivered{};
  std::array<std::uint64_t, serve::kPriorityClasses> shed{};
  std::uint32_t brownout_stage = 0;
  double budget_w = 0.0;
  double window_p99_us = 0.0;
  /// Windowed fraction of capped requests answered predicted-infeasible.
  double cap_exceedance = 0.0;
};

struct SoakReport {
  std::vector<TickSample> timeline;
  fleet::FleetStats fleet;
  fleet::Fleet::ClientTotals client;
  adapt::AdaptStats adapt;
  std::uint64_t offered = 0;
  /// routed - delivered - shed; the zero-loss contract.
  std::uint64_t lost = 0;
  double sim_seconds = 0.0;
  std::array<double, serve::kPriorityClasses> delivered_qps{};
  /// delivered / routed per class (1.0 when the class saw no traffic).
  std::array<double, serve::kPriorityClasses> delivered_fraction{};
  /// p99 of the cumulative fleet service-latency histogram, us.
  double p99_us = 0.0;
  /// Deepest brownout stage reached, and None->brownout transitions.
  std::uint32_t brownout_depth = 0;
  std::uint64_t brownout_events = 0;
  /// Last tick any brownout stage was active (ticks when never).
  std::uint64_t last_brownout_tick = 0;
  bool brownout_seen = false;
  /// Ticks the final brownout spent unwinding after the budget was back
  /// at base — the staged-recovery time.
  std::uint64_t recovery_ticks = 0;
  /// Ticks after the last brownout with a nonzero cap-exceedance window
  /// (the CI gate wants exactly zero).
  std::uint64_t cap_exceedance_ticks_after_recovery = 0;
  /// Ticks from the KernelShift event to the first model promotion; -1
  /// when no shift was scripted or no promotion happened.
  std::int64_t adaptation_lag_ticks = -1;
  std::uint64_t promotions = 0;
};

class SoakDriver {
 public:
  /// `world` must outlive run().
  SoakDriver(const SoakOptions& options, const World& world);

  /// Runs the full scripted soak and returns the timeline + verdicts.
  SoakReport run();

 private:
  SoakOptions options_;
  const World& world_;
};

}  // namespace acsel::dc
