#include "fault/fault.h"

#include <cstdlib>
#include <functional>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/log.h"

namespace acsel::fault {

namespace {

/// FNV-1a over the site name is a stable, platform-independent stream id,
/// so a site's decisions depend only on (injector seed, site name, query
/// index).
Rng site_rng(std::uint64_t seed, const std::string& site) {
  return Rng{Rng::mix_seeds(seed, fnv1a(site))};
}

using PresetSites = std::vector<std::pair<std::string, FaultSpec>>;

/// The sites each named preset arms. Shapes: stuck-at runs long (a
/// wedged estimator), spikes are short bursts of large error, dropouts
/// read zero for a few samples, delay lags the telemetry, frame
/// corruption is per-frame.
const std::map<std::string, PresetSites, std::less<>>& presets() {
  static const std::map<std::string, PresetSites, std::less<>> table{
      {"smu_stuck", {{"smu.stuck", {0.01, 40, 1.0}}}},
      {"smu_spike", {{"smu.spike", {0.05, 3, 4.0}}}},
      {"smu_dropout", {{"smu.dropout", {0.02, 5, 1.0}}}},
      {"smu_noise",
       {{"smu.spike", {0.05, 3, 4.0}}, {"smu.dropout", {0.02, 5, 1.0}}}},
      {"smu_delay", {{"smu.delay", {0.05, 8, 6.0}}}},
      {"frame_corrupt", {{"wire.corrupt", {0.05, 1, 1.0}}}},
      // Once it starts, the shift persists for the rest of the run (the
      // burst outlives any bench): kernels do ~60% more work with worse
      // locality — the mid-run phase change the adapt loop must catch.
      {"workload_shift", {{"soc.kernel_shift", {0.02, 100000, 1.6}}}},
      // Each fire permanently kills one fleet replica (drawn per replica
      // per tick) — low probability, because losses accumulate.
      {"node_loss", {{"fleet.node_loss", {0.004, 1, 1.0}}}},
      // Bursts of dropped heartbeats: long enough to push nodes through
      // Suspect toward Dead, short enough that some recover.
      {"partition", {{"fleet.partition", {0.02, 5, 1.0}}}},
      // A replica's call runs `magnitude` times slower for the burst —
      // the straggler the hedging layer exists to cut off.
      {"slow_node", {{"fleet.slow_node", {0.05, 4, 8.0}}}},
      // A facility power emergency: while the burst fires the fleet's
      // global budget loses `magnitude` of its base (a 40% cut), long
      // enough (~25 ticks) for the brownout stages to engage and the
      // staged recovery to be observable afterwards.
      {"budget_cut", {{"fleet.budget_cut", {0.01, 25, 0.4}}}},
  };
  return table;
}

}  // namespace

Injector::Injector(std::uint64_t seed) : seed_(seed) {}

Injector& Injector::global() {
  static Injector* injector = new Injector;  // never destroyed
  return *injector;
}

void Injector::arm(const std::string& site, FaultSpec spec) {
  ACSEL_CHECK_MSG(spec.probability >= 0.0 && spec.probability <= 1.0,
                  "fault probability must be in [0, 1]");
  ACSEL_CHECK_MSG(spec.burst_length >= 1, "fault burst_length must be >= 1");
  std::lock_guard<std::mutex> lock{mu_};
  Site& entry = sites_[site];
  entry.spec = spec;
  entry.rng = site_rng(seed_, site);
  entry.burst_left = 0;
  entry.fires = 0;
  if (entry.fired_counter == nullptr) {
    entry.fired_counter =
        &obs::Registry::global().counter("fault." + site + ".fired");
  }
  armed_count_.store(sites_.size(), std::memory_order_relaxed);
}

void Injector::disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock{mu_};
  sites_.erase(site);
  armed_count_.store(sites_.size(), std::memory_order_relaxed);
}

void Injector::disarm_all() {
  std::lock_guard<std::mutex> lock{mu_};
  sites_.clear();
  armed_count_.store(0, std::memory_order_relaxed);
}

bool Injector::armed(const std::string& site) const {
  std::lock_guard<std::mutex> lock{mu_};
  return sites_.find(site) != sites_.end();
}

bool Injector::should_fire(const std::string& site) {
  std::lock_guard<std::mutex> lock{mu_};
  const auto it = sites_.find(site);
  if (it == sites_.end()) {
    return false;
  }
  Site& entry = it->second;
  bool fires = false;
  if (entry.burst_left > 0) {
    // Mid-burst: fire unconditionally, without consuming a draw, so a
    // burst's length never depends on the probability stream.
    --entry.burst_left;
    fires = true;
  } else if (entry.rng.uniform() < entry.spec.probability) {
    entry.burst_left = entry.spec.burst_length - 1;
    fires = true;
  }
  if (fires) {
    ++entry.fires;
    entry.fired_counter->add();
  }
  return fires;
}

double Injector::magnitude(const std::string& site) const {
  std::lock_guard<std::mutex> lock{mu_};
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0.0 : it->second.spec.magnitude;
}

std::uint64_t Injector::fire_count(const std::string& site) const {
  std::lock_guard<std::mutex> lock{mu_};
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

void Injector::rewind() {
  std::lock_guard<std::mutex> lock{mu_};
  for (auto& [site, entry] : sites_) {
    entry.rng = site_rng(seed_, site);
    entry.burst_left = 0;
    entry.fires = 0;
  }
}

std::vector<std::string> Injector::arm_presets(std::string_view list) {
  // Resolve every name before arming anything: a typo in the list must
  // fail the whole call, not leave a partially armed run behind.
  std::vector<std::string> names;
  std::vector<const PresetSites*> resolved;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::string_view name =
        list.substr(pos, comma == std::string_view::npos ? std::string_view::npos
                                                         : comma - pos);
    pos = comma == std::string_view::npos ? list.size() + 1 : comma + 1;
    if (name.empty()) {
      continue;
    }
    const auto preset = presets().find(name);
    if (preset == presets().end()) {
      throw Error{"fault: unknown preset '" + std::string{name} +
                  "' in fault list \"" + std::string{list} + "\""};
    }
    names.emplace_back(name);
    resolved.push_back(&preset->second);
  }
  for (const PresetSites* sites : resolved) {
    for (const auto& [site, spec] : *sites) {
      arm(site, spec);
    }
  }
  return names;
}

std::vector<std::string> Injector::arm_from_env() {
  const char* env = std::getenv("ACSEL_FAULTS");
  if (env == nullptr || *env == '\0') {
    return {};
  }
  return arm_presets(env);
}

void init_from_env() {
  const std::vector<std::string> armed = Injector::global().arm_from_env();
  for (const std::string& name : armed) {
    ACSEL_LOG_WARN("fault: armed preset '" << name << "' (ACSEL_FAULTS)");
  }
}

}  // namespace acsel::fault
