// Seeded, deterministic fault injection. Production-style chaos tooling
// for the reproduction: a site in the SMU, runtime or serving layer asks
// the process-wide Injector "does the fault named X fire now?" and gets a
// decision drawn from a per-site PRNG stream. Determinism is the whole
// point — a degradation path exercised under a fixed seed replays
// bit-for-bit, so graceful-degradation behaviour is unit-testable.
//
//   * Per-site streams: each site's decisions come from an Rng seeded as
//     mix(injector seed, FNV-1a(site name)), so arming or querying one
//     site never perturbs another — tests can pin a site's firing pattern
//     and add sites freely.
//   * Burst semantics: real sensor glitches arrive in runs, not as
//     independent coin flips. When a site's probability draw fires, the
//     following burst_length - 1 queries fire too.
//   * Cheap when idle, free when compiled out: unarmed processes pay one
//     relaxed atomic load per ACSEL_FAULT_ARMED() check; building with
//     ACSEL_FAULT_INJECTION=OFF (CMake) turns the macros into constant
//     `false`, removing even that load from the hot paths — the same
//     pattern as ACSEL_OBS_TRACING.
//
// Thread-safety: all members are safe to call concurrently (one mutex;
// fault paths are not hot paths). Decisions stay deterministic per site
// only while that site is queried from one thread at a time — concurrent
// queries of a single site interleave its stream in scheduling order.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace acsel::obs {
class Counter;
}  // namespace acsel::obs

namespace acsel::fault {

/// How one armed site misbehaves. The site itself decides what "firing"
/// means (stuck reading, corrupt frame, ...); the spec only shapes when
/// it fires and one free parameter.
struct FaultSpec {
  /// Chance that a query starts a new burst (evaluated only outside a
  /// burst). 0 never fires; 1 fires on every query.
  double probability = 0.0;
  /// Consecutive queries that fire once a burst starts (>= 1).
  std::size_t burst_length = 1;
  /// Site-interpreted parameter: spike multiplier for "smu.spike",
  /// sample lag for "smu.delay", unused elsewhere.
  double magnitude = 1.0;
};

class Injector {
 public:
  explicit Injector(std::uint64_t seed = 0xfa017eedull);

  Injector(const Injector&) = delete;
  Injector& operator=(const Injector&) = delete;

  /// The process-wide injector the ACSEL_FAULT_* macros consult (never
  /// destroyed; starts with no sites armed).
  static Injector& global();

  /// Arms (or re-arms, resetting stream and burst state) a site.
  void arm(const std::string& site, FaultSpec spec);
  void disarm(const std::string& site);
  void disarm_all();
  bool armed(const std::string& site) const;

  /// True when any site is armed — the one-load fast path hot call sites
  /// check before paying for a should_fire() lookup.
  bool any_armed() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Draws the next decision from `site`'s stream. Always false for
  /// unarmed sites (and consumes nothing from them).
  bool should_fire(const std::string& site);

  /// The armed spec's magnitude (0.0 for unarmed sites).
  double magnitude(const std::string& site) const;

  /// Total fires of a site since it was (re)armed.
  std::uint64_t fire_count(const std::string& site) const;

  /// Resets every armed site's stream, burst state and fire count to its
  /// just-armed state (the seed and specs are kept) — how a test replays
  /// a scenario.
  void rewind();

  /// Arms the presets named in a comma-separated list ("smu_stuck",
  /// "smu_spike", "smu_dropout", "smu_noise" = spike + dropout,
  /// "smu_delay", "frame_corrupt", "workload_shift", and the fleet chaos
  /// presets "node_loss", "partition", "slow_node", "budget_cut").
  /// Empty entries are skipped. An unknown name throws acsel::Error
  /// naming it before anything is armed, so a misspelled chaos run fails
  /// instead of silently running clean. Returns the preset names armed.
  std::vector<std::string> arm_presets(std::string_view list);

  /// arm_presets() over the ACSEL_FAULTS environment variable (no-op
  /// when unset). Call once at program start, like
  /// init_log_level_from_env().
  std::vector<std::string> arm_from_env();

 private:
  struct Site {
    FaultSpec spec;
    Rng rng{0};
    std::size_t burst_left = 0;
    std::uint64_t fires = 0;
    obs::Counter* fired_counter = nullptr;  // "fault.<site>.fired"
  };

  const std::uint64_t seed_;
  std::atomic<std::size_t> armed_count_{0};
  mutable std::mutex mu_;
  std::map<std::string, Site> sites_;
};

/// Arms Injector::global() from ACSEL_FAULTS and logs what was armed.
/// Benches and examples call this next to init_log_level_from_env().
void init_from_env();

}  // namespace acsel::fault

// Call-site macros. Usage:
//   if (ACSEL_FAULT_ARMED() && ACSEL_FAULT_FIRE("smu.spike")) { ... }
// With ACSEL_FAULT_INJECTION=OFF both expand to `false` and the guarded
// block is dead code — zero overhead on the hot paths.
#ifndef ACSEL_FAULT_NO_INJECTION
#define ACSEL_FAULT_ARMED() (::acsel::fault::Injector::global().any_armed())
#define ACSEL_FAULT_FIRE(site) \
  (::acsel::fault::Injector::global().should_fire(site))
#else
#define ACSEL_FAULT_ARMED() (false)
#define ACSEL_FAULT_FIRE(site) (false)
#endif
