#include "dc/traffic.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "util/error.h"

namespace acsel::dc {

namespace {
constexpr double kTwoPi = 6.283185307179586;
/// Power caps drawn by capped requests; the rest run unconstrained.
constexpr double kCapPoolW[] = {22.0, 26.0, 30.0, 40.0};
constexpr double kCappedFraction = 0.8;
}  // namespace

TrafficGenerator::TrafficGenerator(const TrafficOptions& options)
    : options_(options) {
  ACSEL_CHECK_MSG(options_.base_qps > 0.0, "traffic: base_qps must be > 0");
  ACSEL_CHECK_MSG(options_.diurnal_amplitude >= 0.0 &&
                      options_.diurnal_amplitude < 1.0,
                  "traffic: diurnal amplitude must be in [0, 1)");
  ACSEL_CHECK_MSG(options_.diurnal_period_ticks >= 1,
                  "traffic: diurnal period must be >= 1 tick");
  ACSEL_CHECK_MSG(options_.burst_enter >= 0.0 && options_.burst_enter <= 1.0 &&
                      options_.burst_exit >= 0.0 &&
                      options_.burst_exit <= 1.0,
                  "traffic: burst probabilities must be in [0, 1]");
  ACSEL_CHECK_MSG(options_.burst_multiplier >= 1.0,
                  "traffic: burst multiplier must be >= 1");
  ACSEL_CHECK_MSG(options_.high_fraction >= 0.0 &&
                      options_.low_fraction >= 0.0 &&
                      options_.high_fraction + options_.low_fraction <= 1.0,
                  "traffic: priority fractions must be a sub-unit split");
  ACSEL_CHECK_MSG(options_.kernels >= 1, "traffic: need >= 1 kernel");
  ACSEL_CHECK_MSG(options_.tick_seconds > 0.0,
                  "traffic: tick span must be positive");

  // Zipf CDF over popularity ranks: weight(rank r) = 1 / r^s.
  zipf_cdf_.reserve(options_.kernels);
  double total = 0.0;
  for (std::size_t r = 1; r <= options_.kernels; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r), options_.zipf_exponent);
    zipf_cdf_.push_back(total);
  }
  for (double& cum : zipf_cdf_) {
    cum /= total;
  }
}

double TrafficGenerator::diurnal_qps(std::uint64_t t) const {
  const double phase = kTwoPi *
                       static_cast<double>(t % options_.diurnal_period_ticks) /
                       static_cast<double>(options_.diurnal_period_ticks);
  return options_.base_qps *
         (1.0 + options_.diurnal_amplitude * std::sin(phase));
}

std::size_t TrafficGenerator::zipf_draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - zipf_cdf_.begin(),
                               static_cast<std::ptrdiff_t>(options_.kernels) -
                                   1));
}

std::uint64_t TrafficGenerator::poisson(Rng& rng, double lambda) {
  if (lambda <= 0.0) {
    return 0;
  }
  if (lambda > 64.0) {
    // Normal approximation keeps the per-tick cost flat at high load.
    const double draw = rng.normal(lambda, std::sqrt(lambda));
    return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
  }
  // Knuth's product-of-uniforms method.
  const double limit = std::exp(-lambda);
  std::uint64_t n = 0;
  double product = rng.uniform();
  while (product > limit) {
    ++n;
    product *= rng.uniform();
  }
  return n;
}

std::vector<Arrival> TrafficGenerator::tick() {
  const std::uint64_t t = tick_++;
  Rng rng{Rng::mix_seeds(options_.seed, t)};

  // Burst chain first, so a forced state still transitions next tick.
  const double flip = rng.uniform();
  if (bursting_) {
    bursting_ = flip >= options_.burst_exit;
  } else {
    bursting_ = flip < options_.burst_enter;
  }

  const double qps =
      diurnal_qps(t) * (bursting_ ? options_.burst_multiplier : 1.0);
  const std::uint64_t count = poisson(rng, qps * options_.tick_seconds);
  rotation_ += options_.drift_per_tick;
  const std::size_t offset =
      static_cast<std::size_t>(rotation_) % options_.kernels;

  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Arrival arrival;
    arrival.request_id = next_id_++;
    arrival.kernel = (zipf_draw(rng) + offset) % options_.kernels;
    const double p = rng.uniform();
    if (p < options_.high_fraction) {
      arrival.priority = serve::Priority::High;
    } else if (p < options_.high_fraction + options_.low_fraction) {
      arrival.priority = serve::Priority::Low;
    } else {
      arrival.priority = serve::Priority::Normal;
    }
    arrival.goal =
        static_cast<core::SchedulingGoal>(rng.uniform_index(3));
    if (rng.uniform() < kCappedFraction) {
      arrival.cap_w = kCapPoolW[rng.uniform_index(std::size(kCapPoolW))];
    }
    arrivals.push_back(arrival);
  }
  return arrivals;
}

}  // namespace acsel::dc
