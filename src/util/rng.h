// Deterministic, platform-independent pseudo-random number generation.
//
// Everything in acsel that needs randomness (measurement noise in the SMU,
// tie-breaking in clustering, property-test input generation) goes through
// Rng so that simulations and experiments reproduce bit-for-bit across runs
// and platforms. std::mt19937 + std::*_distribution are avoided because the
// distributions are not specified to be identical across standard libraries.
#pragma once

#include <cstdint>
#include <vector>

namespace acsel {

/// SplitMix64's output function: one golden-ratio step, then its
/// finalizer. Bijective and well mixed, so adjacent inputs land on
/// uncorrelated outputs. Seeds Rng, mixes seed pairs, and finishes
/// fleet::hash_bytes and the client's trace ids.
inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// FNV-1a, 64-bit, over a range of char or std::uint8_t bytes: simple and
/// stable across platforms (fleet routing keys, fault-site streams,
/// hardware fingerprints).
template <typename Bytes>
inline std::uint64_t fnv1a(const Bytes& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const auto byte : bytes) {
    hash ^= static_cast<std::uint8_t>(byte);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// xoshiro256** by Blackman & Vigna, seeded through SplitMix64.
/// Small, fast, and passes BigCrush; period 2^256 - 1.
class Rng {
 public:
  /// Seeds the four 64-bit state words from `seed` via SplitMix64, which
  /// guarantees a well-mixed non-zero state for any seed (including 0).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  /// Next raw 64-bit output.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of entropy.
  double uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal deviate via the Marsaglia polar method (deterministic,
  /// unlike std::normal_distribution which may differ between stdlibs).
  double normal();

  /// Normal deviate with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Splits off an independent stream: a generator seeded from this one's
  /// output, so parallel consumers don't share a sequence.
  Rng split();

  /// Derives a seed for stream `stream` of a family rooted at `base`
  /// (SplitMix64 finalizer over the pair, so adjacent streams
  /// decorrelate). Unlike split(), this is a pure function — the way
  /// parallel tasks get independent, *order-free* deterministic streams:
  /// task i seeds Rng{mix_seeds(base, i)} no matter which thread runs it.
  static std::uint64_t mix_seeds(std::uint64_t base, std::uint64_t stream);

  /// Fisher–Yates shuffle of `items` (any random-access container of size()).
  template <typename Vec>
  void shuffle(Vec& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

 private:
  std::uint64_t state_[4];
};

}  // namespace acsel
