// Tests for the fault-injection subsystem: deterministic replay under a
// fixed seed, burst semantics, per-site stream independence, and the
// preset/env arming surface.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "util/error.h"

namespace acsel::fault {
namespace {

std::vector<bool> draw(Injector& injector, const std::string& site, int n) {
  std::vector<bool> fires;
  fires.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    fires.push_back(injector.should_fire(site));
  }
  return fires;
}

TEST(FaultInjector, UnarmedSiteNeverFires) {
  Injector injector{1};
  EXPECT_FALSE(injector.any_armed());
  EXPECT_FALSE(injector.armed("smu.spike"));
  EXPECT_FALSE(injector.should_fire("smu.spike"));
  EXPECT_EQ(injector.fire_count("smu.spike"), 0u);
  EXPECT_EQ(injector.magnitude("smu.spike"), 0.0);
}

TEST(FaultInjector, ProbabilityExtremes) {
  Injector injector{7};
  injector.arm("always", {1.0, 1, 1.0});
  injector.arm("never", {0.0, 1, 1.0});
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(injector.should_fire("always"));
    EXPECT_FALSE(injector.should_fire("never"));
  }
  EXPECT_EQ(injector.fire_count("always"), 100u);
  EXPECT_EQ(injector.fire_count("never"), 0u);
}

TEST(FaultInjector, SameSeedReplaysIdentically) {
  Injector a{0xdead};
  Injector b{0xdead};
  const FaultSpec spec{0.3, 2, 1.0};
  a.arm("site", spec);
  b.arm("site", spec);
  EXPECT_EQ(draw(a, "site", 500), draw(b, "site", 500));
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  Injector a{1};
  Injector b{2};
  const FaultSpec spec{0.3, 1, 1.0};
  a.arm("site", spec);
  b.arm("site", spec);
  EXPECT_NE(draw(a, "site", 500), draw(b, "site", 500));
}

TEST(FaultInjector, RewindReplaysTheScenario) {
  Injector injector{42};
  injector.arm("site", {0.25, 3, 1.0});
  const auto first = draw(injector, "site", 300);
  const std::uint64_t fires = injector.fire_count("site");
  injector.rewind();
  EXPECT_EQ(injector.fire_count("site"), 0u);
  EXPECT_EQ(draw(injector, "site", 300), first);
  EXPECT_EQ(injector.fire_count("site"), fires);
}

TEST(FaultInjector, BurstsRunForBurstLengthQueries) {
  Injector injector{9};
  injector.arm("site", {0.05, 4, 1.0});
  const auto fires = draw(injector, "site", 2000);
  // Every burst start (a fire following a non-fire) is followed by at
  // least burst_length - 1 further fires.
  int observed_bursts = 0;
  for (std::size_t i = 1; i + 3 < fires.size(); ++i) {
    if (fires[i] && !fires[i - 1]) {
      ++observed_bursts;
      EXPECT_TRUE(fires[i + 1]) << "at " << i;
      EXPECT_TRUE(fires[i + 2]) << "at " << i;
      EXPECT_TRUE(fires[i + 3]) << "at " << i;
    }
  }
  EXPECT_GT(observed_bursts, 0);
}

TEST(FaultInjector, BurstFiresDoNotConsumeProbabilityDraws) {
  // The burst-start positions of a bursty site must match the fire
  // positions of a burst-1 site with the same seed and probability: a
  // mid-burst fire never advances the probability stream.
  Injector single{0xabc};
  Injector bursty{0xabc};
  single.arm("site", {0.1, 1, 1.0});
  bursty.arm("site", {0.1, 5, 1.0});
  const int kQueries = 1000;
  std::vector<std::size_t> single_fires;
  for (int i = 0; i < kQueries; ++i) {
    if (single.should_fire("site")) {
      single_fires.push_back(static_cast<std::size_t>(i));
    }
  }
  std::vector<std::size_t> burst_starts;
  int burst_left = 0;
  for (int i = 0; i < kQueries; ++i) {
    const bool fired = bursty.should_fire("site");
    if (burst_left > 0) {
      EXPECT_TRUE(fired);
      --burst_left;
    } else if (fired) {
      burst_starts.push_back(static_cast<std::size_t>(i));
      burst_left = 4;
    }
  }
  ASSERT_FALSE(single_fires.empty());
  // Each burst start consumed exactly one draw, so the k-th burst start
  // fires on the k-th successful draw of the burst-1 stream. The index
  // differs (bursts skip draws for 4 queries), but the *draw sequence* is
  // shared: verify by replaying the single stream with the burst
  // schedule.
  Injector replay{0xabc};
  replay.arm("site", {0.1, 1, 1.0});
  std::vector<std::size_t> expected_starts;
  burst_left = 0;
  for (int i = 0; i < kQueries; ++i) {
    if (burst_left > 0) {
      --burst_left;
      continue;  // mid-burst: no draw consumed
    }
    if (replay.should_fire("site")) {
      expected_starts.push_back(static_cast<std::size_t>(i));
      burst_left = 4;
    }
  }
  EXPECT_EQ(burst_starts, expected_starts);
}

TEST(FaultInjector, SitesDrawFromIndependentStreams) {
  // Interleaving queries to another site must not perturb a site's
  // decisions: streams are keyed by (seed, site name), not query order.
  Injector alone{0x5eed};
  Injector shared{0x5eed};
  alone.arm("b", {0.2, 1, 1.0});
  shared.arm("a", {0.7, 3, 1.0});
  shared.arm("b", {0.2, 1, 1.0});
  std::vector<bool> alone_fires;
  std::vector<bool> shared_fires;
  for (int i = 0; i < 400; ++i) {
    alone_fires.push_back(alone.should_fire("b"));
    shared.should_fire("a");  // interleaved noise
    shared_fires.push_back(shared.should_fire("b"));
  }
  EXPECT_EQ(alone_fires, shared_fires);
}

TEST(FaultInjector, ReArmingResetsTheStream) {
  Injector injector{11};
  injector.arm("site", {0.4, 1, 1.0});
  const auto first = draw(injector, "site", 100);
  injector.arm("site", {0.4, 1, 1.0});
  EXPECT_EQ(draw(injector, "site", 100), first);
}

TEST(FaultInjector, DisarmStopsFiring) {
  Injector injector{3};
  injector.arm("site", {1.0, 1, 1.0});
  EXPECT_TRUE(injector.should_fire("site"));
  injector.disarm("site");
  EXPECT_FALSE(injector.any_armed());
  EXPECT_FALSE(injector.should_fire("site"));
}

TEST(FaultInjector, ArmRejectsInvalidSpecs) {
  Injector injector{1};
  EXPECT_THROW(injector.arm("site", {-0.1, 1, 1.0}), Error);
  EXPECT_THROW(injector.arm("site", {1.5, 1, 1.0}), Error);
  EXPECT_THROW(injector.arm("site", {0.5, 0, 1.0}), Error);
}

TEST(FaultInjector, PresetsArmTheDocumentedSites) {
  Injector injector{1};
  const auto armed = injector.arm_presets("smu_noise,frame_corrupt");
  EXPECT_EQ(armed, (std::vector<std::string>{"smu_noise", "frame_corrupt"}));
  EXPECT_TRUE(injector.armed("smu.spike"));
  EXPECT_TRUE(injector.armed("smu.dropout"));
  EXPECT_TRUE(injector.armed("wire.corrupt"));
  EXPECT_FALSE(injector.armed("smu.stuck"));
}

TEST(FaultInjector, UnknownPresetThrowsAndArmsNothing) {
  Injector injector{1};
  try {
    injector.arm_presets("smu_stuck,,smu_stcuk");
    FAIL() << "a misspelled preset must throw";
  } catch (const Error& error) {
    EXPECT_NE(std::string{error.what()}.find("'smu_stcuk'"),
              std::string::npos)
        << error.what();
  }
  // The valid name before the typo was not armed either.
  EXPECT_FALSE(injector.armed("smu.stuck"));
  EXPECT_FALSE(injector.any_armed());
  // Empty entries alone are still skipped.
  EXPECT_TRUE(injector.arm_presets(",,").empty());
}

TEST(FaultInjector, EveryNamedPresetArms) {
  // Includes every preset the CI chaos steps set in ACSEL_FAULTS.
  Injector injector{1};
  const auto armed = injector.arm_presets(
      "smu_noise,frame_corrupt,workload_shift,node_loss,budget_cut,"
      "partition,slow_node,smu_stuck,smu_spike,smu_dropout,smu_delay");
  EXPECT_EQ(armed.size(), 11u);
  for (const char* site :
       {"smu.spike", "smu.dropout", "smu.stuck", "smu.delay", "wire.corrupt",
        "soc.kernel_shift", "fleet.node_loss", "fleet.budget_cut",
        "fleet.partition", "fleet.slow_node"}) {
    EXPECT_TRUE(injector.armed(site)) << site;
  }
}

TEST(FaultInjector, ArmsFromEnvironment) {
  ::setenv("ACSEL_FAULTS", "smu_delay", 1);
  Injector injector{1};
  const auto armed = injector.arm_from_env();
  ::unsetenv("ACSEL_FAULTS");
  EXPECT_EQ(armed, (std::vector<std::string>{"smu_delay"}));
  EXPECT_TRUE(injector.armed("smu.delay"));
  EXPECT_EQ(injector.magnitude("smu.delay"), 6.0);

  Injector unset{1};
  EXPECT_TRUE(unset.arm_from_env().empty());
}

TEST(FaultInjector, GlobalMacrosConsultTheGlobalInjector) {
  Injector::global().disarm_all();
  EXPECT_FALSE(ACSEL_FAULT_ARMED());
#ifndef ACSEL_FAULT_NO_INJECTION
  Injector::global().arm("macro.site", {1.0, 1, 1.0});
  EXPECT_TRUE(ACSEL_FAULT_ARMED());
  EXPECT_TRUE(ACSEL_FAULT_FIRE("macro.site"));
  Injector::global().disarm_all();
  EXPECT_FALSE(ACSEL_FAULT_ARMED());
#endif
}

}  // namespace
}  // namespace acsel::fault
