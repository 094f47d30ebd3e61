// Datacenter-soak tests: the traffic generator's determinism contract
// (same options -> bitwise-identical arrivals), its modeled shapes
// (diurnal curve, burst overlay, Zipf + drift kernel mix, priority
// split), and a miniature end-to-end soak through SoakDriver — scripted
// power emergency included — holding the zero-loss and per-priority
// conservation contracts.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "dc/soak.h"
#include "dc/traffic.h"

namespace acsel::dc {
namespace {

bool same_arrival(const Arrival& a, const Arrival& b) {
  return a.request_id == b.request_id && a.kernel == b.kernel &&
         a.priority == b.priority && a.goal == b.goal && a.cap_w == b.cap_w;
}

TrafficOptions flat_options() {
  TrafficOptions options;
  options.diurnal_amplitude = 0.0;  // flat curve isolates the other knobs
  options.burst_enter = 0.0;        // chain never self-starts
  options.burst_exit = 0.0;         // a forced burst never self-stops
  return options;
}

TEST(Traffic, SameOptionsReplayIdenticalArrivals) {
  TrafficOptions options;
  options.drift_per_tick = 0.5;
  TrafficGenerator a{options};
  TrafficGenerator b{options};
  for (int t = 0; t < 6; ++t) {
    const std::vector<Arrival> from_a = a.tick();
    const std::vector<Arrival> from_b = b.tick();
    ASSERT_EQ(from_a.size(), from_b.size()) << "tick " << t;
    for (std::size_t i = 0; i < from_a.size(); ++i) {
      EXPECT_TRUE(same_arrival(from_a[i], from_b[i]))
          << "tick " << t << " arrival " << i;
    }
  }
  EXPECT_EQ(a.ticks(), 6u);
}

TEST(Traffic, DiurnalCurvePeaksAndTroughs) {
  TrafficOptions options;
  options.base_qps = 200.0;
  options.diurnal_amplitude = 0.5;
  options.diurnal_period_ticks = 96;
  const TrafficGenerator gen{options};
  // sin peaks a quarter period in, troughs at three quarters.
  EXPECT_NEAR(gen.diurnal_qps(24), 300.0, 1e-9);
  EXPECT_NEAR(gen.diurnal_qps(72), 100.0, 1e-9);
  EXPECT_NEAR(gen.diurnal_qps(0), 200.0, 1e-9);
  EXPECT_GT(gen.diurnal_qps(24), gen.diurnal_qps(72));
}

TEST(Traffic, OfferedLoadTracksTheConfiguredRate) {
  TrafficOptions options = flat_options();
  options.base_qps = 2000.0;
  options.tick_seconds = 0.05;  // lambda = 100 per tick
  TrafficGenerator gen{options};
  std::uint64_t offered = 0;
  constexpr int kTicks = 50;
  for (int t = 0; t < kTicks; ++t) {
    offered += gen.tick().size();
  }
  const double expected = options.base_qps * options.tick_seconds * kTicks;
  EXPECT_GT(static_cast<double>(offered), 0.9 * expected);
  EXPECT_LT(static_cast<double>(offered), 1.1 * expected);
}

TEST(Traffic, ForcedBurstMultipliesTheOfferedLoad) {
  TrafficOptions options = flat_options();
  options.base_qps = 2000.0;
  options.tick_seconds = 0.05;
  options.burst_multiplier = 2.5;
  TrafficGenerator gen{options};
  std::uint64_t calm = 0;
  for (int t = 0; t < 10; ++t) {
    calm += gen.tick().size();
  }
  EXPECT_FALSE(gen.bursting());

  gen.force_burst(true);
  std::uint64_t bursting = 0;
  for (int t = 0; t < 10; ++t) {
    bursting += gen.tick().size();
    EXPECT_TRUE(gen.bursting());  // exit probability is pinned to 0
  }
  // 2.5x the rate: well clear of Poisson noise over ~1000 arrivals.
  EXPECT_GT(static_cast<double>(bursting),
            1.8 * static_cast<double>(calm));
}

TEST(Traffic, DriftRotatesTheHotKernel) {
  TrafficOptions options = flat_options();
  options.base_qps = 2000.0;
  options.tick_seconds = 0.05;
  options.kernels = 16;
  options.zipf_exponent = 3.0;  // rank 0 dominates: argmax == rotation
  options.drift_per_tick = 1.0;
  TrafficGenerator gen{options};

  const auto hot_kernel = [&gen] {
    std::map<std::size_t, std::uint64_t> counts;
    for (const Arrival& arrival : gen.tick()) {
      ++counts[arrival.kernel];
    }
    std::size_t hot = 0;
    std::uint64_t best = 0;
    for (const auto& [kernel, count] : counts) {
      if (count > best) {
        best = count;
        hot = kernel;
      }
    }
    return hot;
  };

  const std::size_t early = hot_kernel();
  for (int t = 0; t < 7; ++t) {
    (void)gen.tick();
  }
  const std::size_t late = hot_kernel();
  // Eight ticks of drift at 1 kernel/tick: the hot set has migrated.
  EXPECT_NE(early, late);
}

TEST(Traffic, PriorityMixMatchesTheConfiguredFractions) {
  TrafficOptions options = flat_options();
  options.base_qps = 4000.0;
  options.tick_seconds = 0.05;
  options.high_fraction = 0.2;
  options.low_fraction = 0.3;
  TrafficGenerator gen{options};
  std::array<std::uint64_t, serve::kPriorityClasses> by_class{};
  std::uint64_t total = 0;
  for (int t = 0; t < 30; ++t) {
    for (const Arrival& arrival : gen.tick()) {
      ++by_class[static_cast<std::size_t>(arrival.priority)];
      ++total;
    }
  }
  ASSERT_GT(total, 2000u);
  const double high =
      static_cast<double>(by_class[0]) / static_cast<double>(total);
  const double low =
      static_cast<double>(by_class[2]) / static_cast<double>(total);
  EXPECT_NEAR(high, 0.2, 0.05);
  EXPECT_NEAR(low, 0.3, 0.05);
}

// ---- end-to-end mini-soak ----------------------------------------------

TEST(Soak, MiniSoakHoldsTheConservationContracts) {
  WorldOptions world_options;
  world_options.kernels = 12;
  world_options.max_training = 24;
  world_options.max_bases = 4;
  const World world = make_world(world_options);
  ASSERT_EQ(world.pool.size(), 12u);
  ASSERT_EQ(world.truth_of.size(), 12u);
  ASSERT_NE(world.model, nullptr);

  SoakOptions options;
  options.ticks = 40;
  options.traffic.base_qps = 120.0;
  options.traffic.kernels = world_options.kernels;
  options.fleet.shards = 2;
  options.fleet.replicas = 2;
  options.fleet.budget.global_budget_w = 2.0 * fleet::kNominalCapW;
  options.adapt = soak_adapt_defaults();
  options.measure_every = 8;
  options.script = {
      {10, ScenarioEvent::Kind::BurstOn, 0.0},
      {14, ScenarioEvent::Kind::BurstOff, 0.0},
      {16, ScenarioEvent::Kind::BudgetCut, 0.4},
      {24, ScenarioEvent::Kind::BudgetRestore, 0.0},
  };
  SoakDriver driver{options, world};
  const SoakReport report = driver.run();

  // The zero-loss contract, in aggregate and per class.
  EXPECT_EQ(report.lost, 0u);
  EXPECT_EQ(report.offered, report.fleet.routed);
  for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
    EXPECT_EQ(report.fleet.routed_by_priority[p],
              report.fleet.delivered_by_priority[p] +
                  report.fleet.shed_by_priority[p])
        << "class " << p;
  }

  // The scripted emergency engaged the brownout and it fully unwound.
  EXPECT_TRUE(report.brownout_seen);
  EXPECT_GE(report.brownout_depth, 2u);
  EXPECT_GE(report.brownout_events, 1u);
  ASSERT_EQ(report.timeline.size(), 40u);
  EXPECT_EQ(report.timeline.back().brownout_stage, 0u);

  // The timeline is internally consistent with the cumulative stats.
  std::array<std::uint64_t, serve::kPriorityClasses> routed{};
  for (const TickSample& sample : report.timeline) {
    for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
      routed[p] += sample.routed[p];
    }
  }
  for (std::size_t p = 0; p < serve::kPriorityClasses; ++p) {
    EXPECT_EQ(routed[p], report.fleet.routed_by_priority[p]) << "class " << p;
  }
  EXPECT_NEAR(report.sim_seconds, 40 * 0.05, 1e-9);

  // Replay determinism: the same options over the same world reproduce
  // the same headline counters.
  SoakDriver replay{options, world};
  const SoakReport again = replay.run();
  EXPECT_EQ(again.offered, report.offered);
  EXPECT_EQ(again.fleet.delivered, report.fleet.delivered);
  EXPECT_EQ(again.fleet.shed, report.fleet.shed);
}

}  // namespace
}  // namespace acsel::dc
