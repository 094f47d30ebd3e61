// Consistent-hash ring mapping kernel clusters onto shards. Each shard
// owns `vnodes` points on a 64-bit ring (SplitMix64-mixed, so points
// scatter uniformly for any shard id); a key is served by the first
// shard point at or clockwise after its hash. The property the fleet
// leans on: adding or removing one shard remaps only the keys whose arc
// the change touches — about 1/N of them — so a membership transition
// never reshuffles the whole fleet's batch-memoization locality.
//
// Determinism: points depend only on (shard id, vnode index), never on
// insertion order, so two routers that agree on the live shard set agree
// on every key's owner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace acsel::fleet {

/// FNV-1a over bytes finished by one SplitMix64 round (both in
/// util/rng.h): the fleet's canonical string hash, on the routing path.
std::uint64_t hash_bytes(std::string_view bytes);

class HashRing {
 public:
  /// `vnodes` points per shard; more points flatten the load split at the
  /// cost of a larger sorted array (lookup stays O(log(shards * vnodes))).
  explicit HashRing(std::size_t vnodes = 64);

  /// Adds a shard's points to the ring. Adding a present shard is a no-op.
  void add(std::uint32_t shard);

  /// Removes a shard's points. Removing an absent shard is a no-op.
  void remove(std::uint32_t shard);

  bool contains(std::uint32_t shard) const;
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t vnodes() const { return vnodes_; }

  /// The shard owning `key_hash`, by clockwise successor. Requires a
  /// non-empty ring.
  std::uint32_t owner(std::uint64_t key_hash) const;

  /// The first `count` *distinct* shards clockwise from `key_hash` —
  /// owner first, then the fallbacks a router walks when the owner is
  /// dead. Returns fewer when the ring holds fewer shards.
  std::vector<std::uint32_t> owners(std::uint64_t key_hash,
                                    std::size_t count) const;

 private:
  struct Point {
    std::uint64_t hash = 0;
    std::uint32_t shard = 0;
  };

  void rebuild();

  std::size_t vnodes_;
  std::vector<std::uint32_t> shards_;  // sorted, unique
  std::vector<Point> points_;          // sorted by hash
};

}  // namespace acsel::fleet
