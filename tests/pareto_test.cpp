// Tests for Pareto frontier construction and frontier-order dissimilarity.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pareto/dissimilarity.h"
#include "pareto/frontier.h"
#include "util/error.h"
#include "util/rng.h"

namespace acsel::pareto {
namespace {

ParetoFrontier make(const std::vector<double>& power,
                    const std::vector<double>& perf) {
  return ParetoFrontier::build(power, perf);
}

TEST(Frontier, KeepsOnlyNonDominatedPoints) {
  // Index 1 dominates index 2 (less power, more perf). Index 3 dominates
  // nothing but is dominated by nothing.
  const std::vector<double> power{10.0, 12.0, 13.0, 20.0};
  const std::vector<double> perf{1.0, 3.0, 2.0, 4.0};
  const auto frontier = make(power, perf);
  ASSERT_EQ(frontier.size(), 3u);
  EXPECT_TRUE(frontier.contains(0));
  EXPECT_TRUE(frontier.contains(1));
  EXPECT_FALSE(frontier.contains(2));
  EXPECT_TRUE(frontier.contains(3));
}

TEST(Frontier, SortedByPowerAndPerformance) {
  Rng rng{21};
  std::vector<double> power(40);
  std::vector<double> perf(40);
  for (std::size_t i = 0; i < 40; ++i) {
    power[i] = rng.uniform(5.0, 50.0);
    perf[i] = rng.uniform(0.1, 10.0);
  }
  const auto frontier = make(power, perf);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier.points()[i].power_w,
              frontier.points()[i - 1].power_w);
    EXPECT_GT(frontier.points()[i].performance,
              frontier.points()[i - 1].performance);
  }
}

TEST(Frontier, NoFrontierPointDominatedByAnyInput) {
  Rng rng{22};
  std::vector<double> power(60);
  std::vector<double> perf(60);
  for (std::size_t i = 0; i < 60; ++i) {
    power[i] = rng.uniform(5.0, 50.0);
    perf[i] = rng.uniform(0.1, 10.0);
  }
  const auto frontier = make(power, perf);
  for (const auto& point : frontier.points()) {
    for (std::size_t j = 0; j < 60; ++j) {
      const bool dominates = power[j] <= point.power_w &&
                             perf[j] >= point.performance &&
                             (power[j] < point.power_w ||
                              perf[j] > point.performance);
      EXPECT_FALSE(dominates) << "frontier point dominated by input " << j;
    }
  }
}

TEST(Frontier, EqualPowerKeepsBestPerformance) {
  const std::vector<double> power{10.0, 10.0, 10.0};
  const std::vector<double> perf{1.0, 3.0, 2.0};
  const auto frontier = make(power, perf);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier.points()[0].config_index, 1u);
}

TEST(Frontier, ExactDuplicatesKeepLowestIndex) {
  const std::vector<double> power{10.0, 10.0};
  const std::vector<double> perf{2.0, 2.0};
  const auto frontier = make(power, perf);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier.points()[0].config_index, 0u);
}

TEST(Frontier, BestUnderWalksTheFrontier) {
  const std::vector<double> power{10.0, 15.0, 25.0};
  const std::vector<double> perf{1.0, 2.0, 3.0};
  const auto frontier = make(power, perf);
  EXPECT_FALSE(frontier.best_under(9.0).has_value());
  EXPECT_EQ(frontier.best_under(10.0)->config_index, 0u);
  EXPECT_EQ(frontier.best_under(16.0)->config_index, 1u);
  EXPECT_EQ(frontier.best_under(100.0)->config_index, 2u);
}

TEST(Frontier, EndpointAccessors) {
  const std::vector<double> power{10.0, 15.0, 25.0};
  const std::vector<double> perf{1.0, 2.0, 3.0};
  const auto frontier = make(power, perf);
  EXPECT_EQ(frontier.lowest_power().config_index, 0u);
  EXPECT_EQ(frontier.best_performance().config_index, 2u);
}

TEST(Frontier, PositionOf) {
  const std::vector<double> power{10.0, 15.0, 12.0};
  const std::vector<double> perf{1.0, 3.0, 0.5};
  const auto frontier = make(power, perf);  // 2 is dominated by 0
  EXPECT_EQ(frontier.position_of(0), 0u);
  EXPECT_EQ(frontier.position_of(1), 1u);
  EXPECT_FALSE(frontier.position_of(2).has_value());
}

TEST(Frontier, RejectsBadInput) {
  EXPECT_THROW(make({}, {}), Error);
  EXPECT_THROW(make({1.0}, {1.0, 2.0}), Error);
  EXPECT_THROW(make({0.0}, {1.0}), Error);
  EXPECT_THROW(make({1.0}, {-1.0}), Error);
}

TEST(Frontier, EmptyFrontierAccessorsThrow) {
  const ParetoFrontier frontier;
  EXPECT_THROW(frontier.best_under(10.0), Error);
  EXPECT_THROW(frontier.lowest_power(), Error);
}

// Reference construction: std::sort over all indices under the documented
// (power asc, performance desc, index asc) order, then the
// strictly-increasing-performance sweep.
std::vector<FrontierPoint> reference_frontier(const std::vector<double>& power,
                                              const std::vector<double>& perf) {
  std::vector<std::size_t> order(power.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (power[a] != power[b]) {
      return power[a] < power[b];
    }
    if (perf[a] != perf[b]) {
      return perf[a] > perf[b];
    }
    return a < b;
  });
  std::vector<FrontierPoint> points;
  double best = 0.0;
  for (const std::size_t i : order) {
    if (perf[i] > best) {
      points.push_back({i, power[i], perf[i]});
      best = perf[i];
    }
  }
  return points;
}

TEST(Frontier, MatchesSortAndSweepReferenceWithTies) {
  // 54 is the configuration space; the larger sizes exercise the
  // insertion sort well past any caller's input. Drawing values from a
  // pool of a few distinct levels forces exact ties in power, in
  // performance, or in both.
  enum class Ties { None, Power, Performance, Both };
  Rng rng{2024};
  for (const std::size_t n : {1u, 2u, 3u, 54u, 63u, 64u, 65u, 200u}) {
    for (const Ties ties :
         {Ties::None, Ties::Power, Ties::Performance, Ties::Both}) {
      for (int trial = 0; trial < 5; ++trial) {
        const auto draw = [&](bool tied, double lo, double hi) {
          if (!tied) {
            return rng.uniform(lo, hi);
          }
          const auto level = static_cast<double>(rng.uniform_index(4));
          return lo + (hi - lo) * (level + 1.0) / 5.0;
        };
        std::vector<double> power(n);
        std::vector<double> perf(n);
        for (std::size_t i = 0; i < n; ++i) {
          power[i] = draw(ties == Ties::Power || ties == Ties::Both, 5.0,
                          50.0);
          perf[i] = draw(ties == Ties::Performance || ties == Ties::Both,
                         0.1, 10.0);
        }
        const auto frontier = make(power, perf);
        const auto expected = reference_frontier(power, perf);
        ASSERT_EQ(frontier.size(), expected.size()) << "n=" << n;
        for (std::size_t p = 0; p < expected.size(); ++p) {
          const FrontierPoint& got = frontier.points()[p];
          EXPECT_EQ(got.config_index, expected[p].config_index)
              << "n=" << n << " point " << p;
          EXPECT_EQ(got.power_w, expected[p].power_w);
          EXPECT_EQ(got.performance, expected[p].performance);
        }
      }
    }
  }
}

// -------------------------------------------------------- dissimilarity --

TEST(Dissimilarity, IdenticalFrontiersAreZero) {
  const auto f = make({10.0, 15.0, 25.0}, {1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(frontier_order_dissimilarity(f, f), 0.0);
  EXPECT_DOUBLE_EQ(frontier_membership_dissimilarity(f, f), 0.0);
  EXPECT_DOUBLE_EQ(frontier_dissimilarity(f, f), 0.0);
}

TEST(Dissimilarity, SameConfigsSameOrderIsZero) {
  // Different power levels but identical membership and ordering.
  const auto a = make({10.0, 15.0, 25.0}, {1.0, 2.0, 3.0});
  const auto b = make({11.0, 14.0, 30.0}, {0.5, 2.5, 9.0});
  EXPECT_DOUBLE_EQ(frontier_dissimilarity(a, b), 0.0);
}

TEST(Dissimilarity, ReversedSharedOrderMaxesOrderTerm) {
  // Configs 0,1,2 appear on both frontiers but in opposite order.
  const auto a = make({10.0, 15.0, 25.0}, {1.0, 2.0, 3.0});
  const std::vector<double> power_b{25.0, 15.0, 10.0};
  const std::vector<double> perf_b{3.0, 2.0, 1.0};
  const auto b = ParetoFrontier::build(power_b, perf_b);
  // b's frontier order: index 2 (10 W) < index 1 < index 0 — reversed.
  EXPECT_DOUBLE_EQ(frontier_order_dissimilarity(a, b), 1.0);
  EXPECT_DOUBLE_EQ(frontier_membership_dissimilarity(a, b), 0.0);
  EXPECT_DOUBLE_EQ(frontier_dissimilarity(a, b), 0.5);  // equal blend
}

TEST(Dissimilarity, FewSharedConfigsIsNeutralInOrderTerm) {
  // Frontiers overlapping in at most one config carry no order signal.
  const std::vector<double> power_a{10.0, 15.0, 30.0, 31.0};
  const std::vector<double> perf_a{1.0, 2.0, 0.1, 0.2};  // 2,3 dominated
  // b's frontier is {2, 3, 0}; only config 0 is shared with a's {0, 1}.
  const std::vector<double> power_b{30.0, 31.0, 10.0, 15.0};
  const std::vector<double> perf_b{1.0, 0.5, 0.05, 0.07};
  const auto a = ParetoFrontier::build(power_a, perf_a);
  const auto b = ParetoFrontier::build(power_b, perf_b);
  EXPECT_DOUBLE_EQ(frontier_order_dissimilarity(a, b), 0.5);
  // Membership: 1 shared of 4 distinct -> 0.75.
  EXPECT_DOUBLE_EQ(frontier_membership_dissimilarity(a, b), 0.75);
  EXPECT_DOUBLE_EQ(frontier_dissimilarity(a, b), 0.625);
}

TEST(Dissimilarity, DisjointMembershipIsMaximal) {
  const auto a = make({10.0, 15.0}, {1.0, 2.0});
  const std::vector<double> power_b{12.0, 16.0, 9.0, 14.0};
  const std::vector<double> perf_b{0.1, 0.2, 1.0, 2.0};  // 0,1 dominated
  const auto b = ParetoFrontier::build(power_b, perf_b);
  EXPECT_DOUBLE_EQ(frontier_membership_dissimilarity(a, b), 1.0);
}

TEST(Dissimilarity, WeightsAreRespected) {
  const auto a = make({10.0, 15.0, 25.0}, {1.0, 2.0, 3.0});
  const std::vector<double> power_b{25.0, 15.0, 10.0};
  const std::vector<double> perf_b{3.0, 2.0, 1.0};
  const auto b = ParetoFrontier::build(power_b, perf_b);  // reversed order
  DissimilarityOptions order_only;
  order_only.order_weight = 1.0;
  order_only.membership_weight = 0.0;
  EXPECT_DOUBLE_EQ(frontier_dissimilarity(a, b, order_only), 1.0);
  DissimilarityOptions member_only;
  member_only.order_weight = 0.0;
  member_only.membership_weight = 1.0;
  EXPECT_DOUBLE_EQ(frontier_dissimilarity(a, b, member_only), 0.0);
  DissimilarityOptions bad;
  bad.order_weight = 0.0;
  bad.membership_weight = 0.0;
  EXPECT_THROW(frontier_dissimilarity(a, b, bad), Error);
}

TEST(Dissimilarity, MatrixIsValidForPam) {
  Rng rng{31};
  std::vector<ParetoFrontier> fronts;
  for (int k = 0; k < 8; ++k) {
    std::vector<double> power(20);
    std::vector<double> perf(20);
    for (std::size_t i = 0; i < 20; ++i) {
      power[i] = rng.uniform(5.0, 50.0);
      perf[i] = rng.uniform(0.1, 10.0);
    }
    fronts.push_back(ParetoFrontier::build(power, perf));
  }
  const auto d = dissimilarity_matrix(fronts);
  ASSERT_EQ(d.rows(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
      EXPECT_GE(d(i, j), 0.0);
      EXPECT_LE(d(i, j), 1.0);
    }
  }
}

TEST(Dissimilarity, MatrixRejectsEmptyInput) {
  EXPECT_THROW(dissimilarity_matrix({}), Error);
}

}  // namespace
}  // namespace acsel::pareto
