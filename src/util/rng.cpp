#include "util/rng.h"

#include <cmath>

#include "util/error.h"

namespace acsel {

namespace {

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // The SplitMix64 generator: state word k is the output function at
  // seed + k golden-ratio steps.
  for (auto& word : state_) {
    word = splitmix64(seed);
    seed += 0x9e3779b97f4a7c15ull;
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // Top 53 bits -> [0, 1) with full double precision.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ACSEL_CHECK(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  ACSEL_CHECK(n > 0);
  // Rejection sampling over the largest multiple of n that fits in 64 bits.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t value = next_u64();
  while (value >= limit) {
    value = next_u64();
  }
  return value % n;
}

double Rng::normal() {
  // Marsaglia polar method; the discarded pair member keeps the stream
  // deterministic (no caching, one deviate per call).
  for (;;) {
    const double u = uniform(-1.0, 1.0);
    const double v = uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double Rng::normal(double mean, double stddev) {
  ACSEL_CHECK(stddev >= 0.0);
  return mean + stddev * normal();
}

Rng Rng::split() { return Rng{next_u64()}; }

std::uint64_t Rng::mix_seeds(std::uint64_t base, std::uint64_t stream) {
  // One golden-ratio step per stream index, then the SplitMix64 output
  // function — the same mixing the seeding path uses.
  return splitmix64(base + (stream + 1) * 0x9e3779b97f4a7c15ull);
}

}  // namespace acsel
