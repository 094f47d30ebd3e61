#include "fleet/hash_ring.h"

#include <algorithm>

#include "util/error.h"
#include "util/rng.h"

namespace acsel::fleet {

std::uint64_t hash_bytes(std::string_view bytes) {
  // One SplitMix64 round: FNV mixes low bits poorly, and the ring compares
  // full 64-bit values.
  return splitmix64(fnv1a(bytes));
}

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes) {
  ACSEL_CHECK_MSG(vnodes >= 1, "hash ring needs >= 1 vnode per shard");
}

void HashRing::add(std::uint32_t shard) {
  const auto it = std::lower_bound(shards_.begin(), shards_.end(), shard);
  if (it != shards_.end() && *it == shard) {
    return;
  }
  shards_.insert(it, shard);
  rebuild();
}

void HashRing::remove(std::uint32_t shard) {
  const auto it = std::lower_bound(shards_.begin(), shards_.end(), shard);
  if (it == shards_.end() || *it != shard) {
    return;
  }
  shards_.erase(it);
  rebuild();
}

bool HashRing::contains(std::uint32_t shard) const {
  return std::binary_search(shards_.begin(), shards_.end(), shard);
}

void HashRing::rebuild() {
  points_.clear();
  points_.reserve(shards_.size() * vnodes_);
  for (const std::uint32_t shard : shards_) {
    for (std::size_t v = 0; v < vnodes_; ++v) {
      // Point position is a pure function of (shard, vnode): rings built
      // by different routers, in different orders, are identical, and
      // adjacent (shard, vnode) pairs land on uncorrelated points.
      const std::uint64_t h =
          splitmix64((std::uint64_t{shard} << 32) | std::uint64_t{v});
      points_.push_back(Point{h, shard});
    }
  }
  std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
    // Shard id breaks (astronomically unlikely) point collisions, so the
    // ring order never depends on sort stability.
    return a.hash != b.hash ? a.hash < b.hash : a.shard < b.shard;
  });
}

std::uint32_t HashRing::owner(std::uint64_t key_hash) const {
  ACSEL_CHECK_MSG(!points_.empty(), "owner() on an empty hash ring");
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), key_hash,
      [](const Point& p, std::uint64_t h) { return p.hash < h; });
  return it == points_.end() ? points_.front().shard : it->shard;
}

std::vector<std::uint32_t> HashRing::owners(std::uint64_t key_hash,
                                            std::size_t count) const {
  ACSEL_CHECK_MSG(!points_.empty(), "owners() on an empty hash ring");
  std::vector<std::uint32_t> out;
  out.reserve(std::min(count, shards_.size()));
  auto it = std::lower_bound(
      points_.begin(), points_.end(), key_hash,
      [](const Point& p, std::uint64_t h) { return p.hash < h; });
  for (std::size_t walked = 0;
       walked < points_.size() && out.size() < count && out.size() < shards_.size();
       ++walked, ++it) {
    if (it == points_.end()) {
      it = points_.begin();
    }
    if (std::find(out.begin(), out.end(), it->shard) == out.end()) {
      out.push_back(it->shard);
    }
  }
  return out;
}

}  // namespace acsel::fleet
