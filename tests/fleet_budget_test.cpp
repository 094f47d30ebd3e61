// BudgetBalancer edge cases and brownout staging: the allocation must
// keep every cap non-negative and never hand out more watts than the
// facility has — including the degenerate windows a real emergency
// produces (every shard dead, zero demand, a budget slashed below the
// sum of per-shard floors) — and the brownout state machine must
// escalate immediately, recover one stage per rebalance, and count
// emergencies exactly once.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/budget.h"

namespace acsel::fleet {
namespace {

constexpr std::size_t kShards = 4;

BudgetOptions options_with(cluster::AllocationPolicy policy) {
  BudgetOptions options;
  options.policy = policy;
  return options;
}

double cap_sum(const BudgetBalancer& balancer) {
  double sum = 0.0;
  for (std::uint32_t s = 0; s < balancer.size(); ++s) {
    sum += balancer.shard(s).cap_w;
  }
  return sum;
}

void expect_caps_sane(const BudgetBalancer& balancer) {
  for (std::uint32_t s = 0; s < balancer.size(); ++s) {
    EXPECT_GE(balancer.shard(s).cap_w, 0.0);
  }
  EXPECT_LE(cap_sum(balancer), balancer.global_budget_w() + 1e-9);
}

class BudgetPolicyTest
    : public ::testing::TestWithParam<cluster::AllocationPolicy> {};

TEST_P(BudgetPolicyTest, AllShardsDeadStillSumsToBudget) {
  BudgetBalancer balancer{kShards, options_with(GetParam())};
  const std::vector<std::uint64_t> demand(kShards, 0);
  const std::vector<bool> dead(kShards, true);
  balancer.rebalance(demand, dead);
  expect_caps_sane(balancer);
  EXPECT_NEAR(cap_sum(balancer), balancer.global_budget_w(), 1e-6);
}

TEST_P(BudgetPolicyTest, ZeroDemandWindowSplitsEvenly) {
  BudgetBalancer balancer{kShards, options_with(GetParam())};
  const std::vector<std::uint64_t> demand(kShards, 0);
  const std::vector<bool> dead(kShards, false);
  balancer.rebalance(demand, dead);
  expect_caps_sane(balancer);
  EXPECT_NEAR(cap_sum(balancer), balancer.global_budget_w(), 1e-6);
  // No demand signal: no shard has a claim over another.
  for (std::uint32_t s = 1; s < kShards; ++s) {
    EXPECT_NEAR(balancer.shard(s).cap_w, balancer.shard(0).cap_w, 1e-6);
  }
}

TEST_P(BudgetPolicyTest, BudgetBelowFloorSumVoidsTheFloors) {
  BudgetBalancer balancer{kShards, options_with(GetParam())};
  // 4 shards x 10 W floor = 40 W of floors; 20 W of facility. A
  // floor-respecting split would allocate 40 W that do not exist.
  const double floor_sum =
      static_cast<double>(kShards) * cluster::kAllocationFloorW;
  balancer.set_emergency_budget(0.5 * floor_sum);
  const std::vector<std::uint64_t> demand = {10, 20, 30, 40};
  const std::vector<bool> dead(kShards, false);
  balancer.rebalance(demand, dead);
  expect_caps_sane(balancer);
  EXPECT_NEAR(cap_sum(balancer), 0.5 * floor_sum, 1e-9);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    EXPECT_NEAR(balancer.shard(s).cap_w,
                0.5 * floor_sum / static_cast<double>(kShards), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, BudgetPolicyTest,
    ::testing::Values(cluster::AllocationPolicy::Uniform,
                      cluster::AllocationPolicy::DemandProportional,
                      cluster::AllocationPolicy::MarginalGain),
    [](const ::testing::TestParamInfo<cluster::AllocationPolicy>& param) {
      switch (param.param) {
        case cluster::AllocationPolicy::Uniform:
          return std::string{"Uniform"};
        case cluster::AllocationPolicy::DemandProportional:
          return std::string{"DemandProportional"};
        case cluster::AllocationPolicy::MarginalGain:
          return std::string{"MarginalGain"};
      }
      return std::string{"Unknown"};
    });

// ---- brownout staging --------------------------------------------------

TEST(BudgetBrownout, EscalatesImmediatelyAndRecoversOneStagePerRebalance) {
  BudgetBalancer balancer{kShards, BudgetOptions{}};
  const std::vector<std::uint64_t> demand(kShards, 5);
  const std::vector<bool> dead(kShards, false);
  EXPECT_EQ(balancer.stage(), BrownoutStage::None);

  // 40% of base < floor pressure (0.55): one rebalance jumps straight to
  // the deepest stage — the watts are already gone.
  balancer.set_emergency_budget(0.4 * balancer.base_budget_w());
  EXPECT_NEAR(balancer.pressure(), 0.4, 1e-12);
  balancer.rebalance(demand, dead);
  EXPECT_EQ(balancer.stage(), BrownoutStage::ForceLowPower);
  EXPECT_EQ(balancer.brownout_events(), 1u);

  // Budget restored: the stages unwind one per rebalance.
  balancer.clear_emergency();
  EXPECT_NEAR(balancer.pressure(), 1.0, 1e-12);
  balancer.rebalance(demand, dead);
  EXPECT_EQ(balancer.stage(), BrownoutStage::ShedLowPriority);
  balancer.rebalance(demand, dead);
  EXPECT_EQ(balancer.stage(), BrownoutStage::DropHedges);
  balancer.rebalance(demand, dead);
  EXPECT_EQ(balancer.stage(), BrownoutStage::None);
  // One emergency, one event — the staged recovery is not new events.
  EXPECT_EQ(balancer.brownout_events(), 1u);
}

TEST(BudgetBrownout, PartialPressureEntersThePartialStages) {
  BudgetBalancer balancer{kShards, BudgetOptions{}};
  const std::vector<std::uint64_t> demand(kShards, 5);
  const std::vector<bool> dead(kShards, false);

  balancer.set_emergency_budget(0.8 * balancer.base_budget_w());
  balancer.rebalance(demand, dead);  // 0.8 < hedge (0.85), >= shed (0.70)
  EXPECT_EQ(balancer.stage(), BrownoutStage::DropHedges);

  balancer.set_emergency_budget(0.6 * balancer.base_budget_w());
  balancer.rebalance(demand, dead);  // 0.6 < shed, >= floor (0.55)
  EXPECT_EQ(balancer.stage(), BrownoutStage::ShedLowPriority);
  EXPECT_EQ(balancer.brownout_events(), 1u);  // one continuous emergency
}

TEST(BudgetBrownout, DeliberateReprovisioningIsNotAnEmergency) {
  BudgetBalancer balancer{kShards, BudgetOptions{}};
  const std::vector<std::uint64_t> demand(kShards, 5);
  const std::vector<bool> dead(kShards, false);

  // set_global_budget moves the base too: pressure stays 1.0, so even a
  // drastic re-provisioning browns nothing out.
  balancer.set_global_budget(0.3 * balancer.base_budget_w());
  EXPECT_NEAR(balancer.pressure(), 1.0, 1e-12);
  balancer.rebalance(demand, dead);
  EXPECT_EQ(balancer.stage(), BrownoutStage::None);
  EXPECT_EQ(balancer.brownout_events(), 0u);

  // And an emergency afterwards is judged against the new base.
  balancer.set_emergency_budget(0.5 * balancer.base_budget_w());
  balancer.rebalance(demand, dead);
  EXPECT_EQ(balancer.stage(), BrownoutStage::ForceLowPower);
  EXPECT_EQ(balancer.brownout_events(), 1u);
}

TEST(BudgetBrownout, LatencyScaleIsNormalizedAndMonotone) {
  BudgetBalancer balancer{1, BudgetOptions{}};
  EXPECT_NEAR(balancer.latency_scale_at(kNominalCapW), 1.0, 1e-12);
  // Less power never serves faster.
  double previous = balancer.latency_scale_at(40.0);
  for (double cap = 38.0; cap >= 8.0; cap -= 2.0) {
    const double scale = balancer.latency_scale_at(cap);
    EXPECT_GE(scale, previous - 1e-12);
    previous = scale;
  }
}

}  // namespace
}  // namespace acsel::fleet
