// Pins the outputs of the shared SplitMix64 and FNV-1a (util/rng.h) at
// every place they reach: fleet routing keys and ring points, hardware
// fingerprints, seed mixing, Rng seeding and fault-site streams. The
// values are what these functions returned before they were shared, so
// any drift in either hash fails here rather than silently re-routing a
// fleet, re-identifying a machine or re-seeding a chaos run.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "fleet/hash_ring.h"
#include "util/rng.h"
#include "zoo/archetype.h"
#include "zoo/fingerprint.h"

namespace acsel {
namespace {

TEST(HashPin, FleetHashBytes) {
  EXPECT_EQ(fleet::hash_bytes(""), 0xc3817c016ba4ff30ull);
  EXPECT_EQ(fleet::hash_bytes("LU-Large/lud"), 0x7af8f588a00be1a8ull);
  EXPECT_EQ(fleet::hash_bytes("CoMD-EAM/ComputeForce"), 0x30732c9e0f15e194ull);
  EXPECT_EQ(fleet::hash_bytes("SMC-Default/ChemistryRates"),
            0xdf1f8876a2ab6a56ull);
}

TEST(HashPin, RingPoints) {
  fleet::HashRing ring{16};
  for (std::uint32_t shard = 0; shard < 4; ++shard) {
    ring.add(shard);
  }
  using Owners = std::vector<std::uint32_t>;
  EXPECT_EQ(ring.owners(0, 3), (Owners{3, 0, 1}));
  EXPECT_EQ(ring.owners(0x8000000000000000ull, 3), (Owners{3, 2, 1}));
  EXPECT_EQ(ring.owners(0xdeadbeefull, 3), (Owners{3, 0, 1}));
}

TEST(HashPin, ArchetypeFingerprints) {
  const zoo::ArchetypeCatalog catalog;
  const std::vector<std::pair<std::string, std::uint64_t>> want{
      {"trinity", 0xf3325ddd47799c02ull},
      {"biglittle", 0x25e80975fe016128ull},
      {"hpc-gpu", 0x6347f97e06d522c4ull},
      {"edge", 0x5869af725bc68349ull},
  };
  ASSERT_EQ(zoo::all_archetypes().size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const zoo::Archetype archetype = zoo::all_archetypes()[i];
    EXPECT_EQ(zoo::to_string(archetype), want[i].first);
    EXPECT_EQ(zoo::fingerprint_of(catalog.spec(archetype)).hash,
              want[i].second)
        << want[i].first;
  }
}

TEST(HashPin, SeedMixingAndRngSeeding) {
  EXPECT_EQ(Rng::mix_seeds(0, 0), 0x6e789e6aa1b965f4ull);
  EXPECT_EQ(Rng::mix_seeds(1, 0), 0xbeeb8da1658eec67ull);
  EXPECT_EQ(Rng::mix_seeds(0, 1), 0x06c45d188009454full);
  EXPECT_EQ(Rng::mix_seeds(42, 7), 0x5705b8770b3d7dd5ull);
  EXPECT_EQ(Rng::mix_seeds(0xfa017eedull, 123456789), 0x269bb9c41512e758ull);
  Rng rng{7};
  EXPECT_EQ(rng.next_u64(), 0xb358faf74ef9765aull);
}

TEST(HashPin, FaultSiteFirstDecisions) {
  fault::Injector injector{0xfa017eedull};
  injector.arm("smu.spike", {0.3, 1, 1.0});
  std::string fired;
  for (int i = 0; i < 64; ++i) {
    fired += injector.should_fire("smu.spike") ? '1' : '0';
  }
  EXPECT_EQ(fired,
            "1000100000110000101001101010001010000000000000000000010011000000");
}

}  // namespace
}  // namespace acsel
