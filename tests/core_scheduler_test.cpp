// Tests for the online scheduler over predicted Pareto frontiers.
#include <gtest/gtest.h>

#include "core/scheduler.h"
#include "util/error.h"

namespace acsel::core {
namespace {

/// Builds a synthetic prediction with a known frontier: configs 0..3 at
/// (10 W, 1), (15 W, 2), (25 W, 3), (26 W, 2.5) — config 3 is dominated
/// by config 2 (more power, less performance).
Prediction make_prediction(double sigma = 0.0) {
  Prediction prediction;
  prediction.cluster = 2;
  const double power[] = {10.0, 15.0, 25.0, 26.0};
  const double perf[] = {1.0, 2.0, 3.0, 2.5};
  for (std::size_t i = 0; i < 4; ++i) {
    Estimate e;
    e.power_w = power[i];
    e.performance = perf[i];
    e.power_sigma = sigma;
    prediction.per_config.push_back(e);
  }
  prediction.frontier = pareto::ParetoFrontier::build(
      std::vector<double>{power, power + 4},
      std::vector<double>{perf, perf + 4});
  return prediction;
}

TEST(Scheduler, PicksHighestPerformanceUnderCap) {
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  const auto choice = scheduler.select(20.0);
  EXPECT_EQ(choice.config_index, 1u);
  EXPECT_TRUE(choice.predicted_feasible);
  EXPECT_DOUBLE_EQ(choice.predicted_power_w, 15.0);
  EXPECT_DOUBLE_EQ(choice.predicted_performance, 2.0);
}

TEST(Scheduler, GenerousCapPicksTopOfFrontier) {
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  const auto choice = scheduler.select(100.0);
  EXPECT_EQ(choice.config_index, 2u);
}

TEST(Scheduler, ExactCapBoundaryIsFeasible) {
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  const auto choice = scheduler.select(15.0);
  EXPECT_EQ(choice.config_index, 1u);
  EXPECT_TRUE(choice.predicted_feasible);
}

TEST(Scheduler, InfeasibleCapFallsBackToLowestPower) {
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  const auto choice = scheduler.select(5.0);
  EXPECT_EQ(choice.config_index, 0u);
  EXPECT_FALSE(choice.predicted_feasible);
}

TEST(Scheduler, DominatedConfigNeverSelected) {
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  // Config 3 (26 W, 2.5) is off the frontier; a 26.5 W cap must pick the
  // frontier's config 2, never config 3.
  const auto choice = scheduler.select(26.5);
  EXPECT_EQ(choice.config_index, 2u);
}

TEST(Scheduler, RiskAversionBacksOffNearTheCap) {
  const Prediction prediction = make_prediction(2.0);  // sigma = 2 W
  SchedulerOptions options;
  options.policy = SelectionPolicy::upper_confidence(1.0);
  const Scheduler scheduler{prediction, options};
  // 16 W cap: config 1 predicts 15 W +/- 2 W; risk-adjusted 17 W > 16 W,
  // so back off to config 0.
  const auto choice = scheduler.select(16.0);
  EXPECT_EQ(choice.config_index, 0u);
  // Without risk aversion config 1 would be chosen.
  const Scheduler bold{prediction};
  EXPECT_EQ(bold.select(16.0).config_index, 1u);
}

TEST(Scheduler, SelectUnconstrained) {
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  const auto choice = scheduler.select_unconstrained();
  EXPECT_EQ(choice.config_index, 2u);
  EXPECT_DOUBLE_EQ(choice.predicted_performance, 3.0);
}

TEST(Scheduler, RejectsEmptyPredictionAndBadInputs) {
  Prediction empty;
  EXPECT_THROW(Scheduler{empty}, Error);
  const Prediction prediction = make_prediction();
  SchedulerOptions bad;
  bad.policy = SelectionPolicy::upper_confidence(-1.0);
  EXPECT_THROW((Scheduler{prediction, bad}), Error);
  const Scheduler scheduler{prediction};
  EXPECT_THROW(scheduler.select(0.0), Error);
}

TEST(SchedulerGoals, MinEnergyPicksCheapestJoulesPerInvocation) {
  // Energies: 10/1=10, 15/2=7.5, 25/3=8.33 -> config 1 wins.
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  const auto choice = scheduler.select_goal(SchedulingGoal::MinEnergy);
  EXPECT_EQ(choice.config_index, 1u);
  EXPECT_TRUE(choice.predicted_feasible);
}

TEST(SchedulerGoals, MinEdpFavorsFasterConfigs) {
  // EDP: 10/1=10, 15/4=3.75, 25/9=2.78 -> config 2 wins.
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  const auto choice = scheduler.select_goal(SchedulingGoal::MinEnergyDelay);
  EXPECT_EQ(choice.config_index, 2u);
}

TEST(SchedulerGoals, GoalsRespectTheCap) {
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  // Cap 12 W leaves only config 0 regardless of goal.
  EXPECT_EQ(scheduler.select_goal(SchedulingGoal::MinEnergy, 12.0)
                .config_index,
            0u);
  EXPECT_EQ(scheduler.select_goal(SchedulingGoal::MinEnergyDelay, 12.0)
                .config_index,
            0u);
}

TEST(SchedulerGoals, InfeasibleCapFallsBack) {
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  const auto choice =
      scheduler.select_goal(SchedulingGoal::MinEnergy, 5.0);
  EXPECT_EQ(choice.config_index, 0u);
  EXPECT_FALSE(choice.predicted_feasible);
}

TEST(SchedulerGoals, MaxPerformanceDelegates) {
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  EXPECT_EQ(
      scheduler.select_goal(SchedulingGoal::MaxPerformance).config_index,
      scheduler.select_unconstrained().config_index);
  EXPECT_EQ(
      scheduler.select_goal(SchedulingGoal::MaxPerformance, 20.0)
          .config_index,
      scheduler.select(20.0).config_index);
}

TEST(SchedulerGoals, GoalNames) {
  EXPECT_STREQ(to_string(SchedulingGoal::MaxPerformance),
               "max-performance");
  EXPECT_STREQ(to_string(SchedulingGoal::MinEnergy), "min-energy");
  EXPECT_STREQ(to_string(SchedulingGoal::MinEnergyDelay), "min-edp");
}

TEST(Scheduler, DynamicCapAdaptationNeedsNoNewPrediction) {
  // The predicted frontier is retained; a cap change is just another
  // select() call (§III-C "adaptable to dynamic power constraints").
  const Prediction prediction = make_prediction();
  const Scheduler scheduler{prediction};
  EXPECT_EQ(scheduler.select(12.0).config_index, 0u);
  EXPECT_EQ(scheduler.select(30.0).config_index, 2u);
  EXPECT_EQ(scheduler.select(16.0).config_index, 1u);
}

}  // namespace
}  // namespace acsel::core
