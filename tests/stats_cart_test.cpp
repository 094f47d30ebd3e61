// Tests for the CART classification tree (the paper's cluster assigner).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "stats/cart.h"
#include "util/error.h"
#include "util/rng.h"

namespace acsel::stats {
namespace {

using linalg::Matrix;

TEST(Gini, PureSetIsZero) {
  const std::vector<std::size_t> counts{10, 0, 0};
  EXPECT_DOUBLE_EQ(gini_impurity(counts), 0.0);
}

TEST(Gini, UniformTwoClassesIsHalf) {
  const std::vector<std::size_t> counts{5, 5};
  EXPECT_DOUBLE_EQ(gini_impurity(counts), 0.5);
}

TEST(Gini, EmptySetIsZero) {
  const std::vector<std::size_t> counts{0, 0};
  EXPECT_DOUBLE_EQ(gini_impurity(counts), 0.0);
}

TEST(Cart, LearnsSingleThresholdSplit) {
  Matrix x{8, 1};
  std::vector<std::size_t> labels(8);
  for (std::size_t i = 0; i < 8; ++i) {
    x(i, 0) = static_cast<double>(i);
    labels[i] = i < 4 ? 0 : 1;
  }
  const auto tree = Cart::fit(x, labels);
  EXPECT_EQ(tree.depth(), 1u);
  EXPECT_EQ(tree.leaf_count(), 2u);
  EXPECT_EQ(tree.training_accuracy(), 1.0);
  EXPECT_EQ(tree.predict(std::vector<double>{1.5}), 0u);
  EXPECT_EQ(tree.predict(std::vector<double>{6.5}), 1u);
}

TEST(Cart, LearnsTwoFeatureQuadrants) {
  // Labels by quadrant of (x0, x1): needs a depth-2 tree.
  Matrix x{16, 2};
  std::vector<std::size_t> labels(16);
  std::size_t row = 0;
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      x(row, 0) = static_cast<double>(a);
      x(row, 1) = static_cast<double>(b);
      labels[row] = static_cast<std::size_t>((a < 2 ? 0 : 2) + (b < 2 ? 0 : 1));
      ++row;
    }
  }
  CartOptions opts;
  opts.min_samples_leaf = 1;
  opts.min_samples_split = 2;
  const auto tree = Cart::fit(x, labels, opts);
  EXPECT_EQ(tree.training_accuracy(), 1.0);
  EXPECT_EQ(tree.predict(std::vector<double>{0.5, 3.0}), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{3.0, 0.0}), 2u);
  EXPECT_EQ(tree.predict(std::vector<double>{3.0, 3.0}), 3u);
}

TEST(Cart, MaxDepthLimitsTree) {
  Rng rng{55};
  Matrix x{64, 1};
  std::vector<std::size_t> labels(64);
  for (std::size_t i = 0; i < 64; ++i) {
    x(i, 0) = rng.uniform(0.0, 1.0);
    labels[i] = rng.uniform_index(4);
  }
  CartOptions opts;
  opts.max_depth = 2;
  opts.min_samples_leaf = 1;
  const auto tree = Cart::fit(x, labels, opts);
  EXPECT_LE(tree.depth(), 2u);
  EXPECT_LE(tree.leaf_count(), 4u);
}

TEST(Cart, MinSamplesLeafRespected) {
  Matrix x{10, 1};
  std::vector<std::size_t> labels(10);
  for (std::size_t i = 0; i < 10; ++i) {
    x(i, 0) = static_cast<double>(i);
    labels[i] = i == 0 ? 0u : 1u;  // lone outlier class
  }
  CartOptions opts;
  opts.min_samples_leaf = 3;
  const auto tree = Cart::fit(x, labels, opts);
  // Splitting off the single item 0 would make a leaf of size 1 < 3, and
  // any other split keeps impurity on one side, so allowed splits must
  // respect the leaf minimum (the tree may stay a stump).
  EXPECT_LT(tree.training_accuracy(), 1.0);
}

TEST(Cart, PureInputStaysLeaf) {
  Matrix x{5, 2};
  const std::vector<std::size_t> labels(5, 2);  // all class 2
  const auto tree = Cart::fit(x, labels);
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_EQ(tree.predict(std::vector<double>{0.0, 0.0}), 2u);
}

TEST(Cart, PredictProbaSumsToOne) {
  Rng rng{66};
  Matrix x{40, 2};
  std::vector<std::size_t> labels(40);
  for (std::size_t i = 0; i < 40; ++i) {
    x(i, 0) = rng.uniform(0.0, 1.0);
    x(i, 1) = rng.uniform(0.0, 1.0);
    labels[i] = rng.uniform_index(3);
  }
  const auto tree = Cart::fit(x, labels);
  const auto proba = tree.predict_proba(std::vector<double>{0.5, 0.5});
  double sum = 0.0;
  for (const double p : proba) {
    EXPECT_GE(p, 0.0);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Cart, DescribeUsesFeatureNames) {
  Matrix x{8, 1};
  std::vector<std::size_t> labels(8);
  for (std::size_t i = 0; i < 8; ++i) {
    x(i, 0) = static_cast<double>(i);
    labels[i] = i < 4 ? 0 : 1;
  }
  const auto tree = Cart::fit(x, labels, {}, {"L2_miss_rate"});
  const std::string text = tree.describe();
  EXPECT_NE(text.find("L2_miss_rate"), std::string::npos);
  EXPECT_NE(text.find("cluster 0"), std::string::npos);
  EXPECT_NE(text.find("cluster 1"), std::string::npos);
}

TEST(Cart, FeatureNameCountValidated) {
  Matrix x{4, 2};
  const std::vector<std::size_t> labels{0, 0, 1, 1};
  EXPECT_THROW(Cart::fit(x, labels, {}, {"only_one"}), Error);
}

TEST(Cart, PredictValidatesFeatureCount) {
  Matrix x{4, 2};
  x(0, 0) = 1;
  x(1, 0) = 2;
  x(2, 0) = 3;
  x(3, 0) = 4;
  const std::vector<std::size_t> labels{0, 0, 1, 1};
  CartOptions opts;
  opts.min_samples_leaf = 1;
  const auto tree = Cart::fit(x, labels, opts);
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), Error);
}

TEST(Cart, UntrainedTreeThrows) {
  const Cart tree;
  EXPECT_THROW(tree.predict(std::vector<double>{}), Error);
}

TEST(Cart, SerializeParseRoundTrip) {
  Rng rng{77};
  Matrix x{60, 3};
  std::vector<std::size_t> labels(60);
  for (std::size_t i = 0; i < 60; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      x(i, j) = rng.uniform(0.0, 1.0);
    }
    labels[i] = x(i, 0) > 0.5 ? (x(i, 1) > 0.5 ? 2u : 1u) : 0u;
  }
  const auto tree = Cart::fit(x, labels, {}, {"ipc", "l2_rate", "power"});
  const auto restored = Cart::parse(tree.serialize());
  EXPECT_EQ(restored.node_count(), tree.node_count());
  EXPECT_EQ(restored.depth(), tree.depth());
  EXPECT_EQ(restored.describe(), tree.describe());
  // Predictions must be identical on fresh samples.
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<double> probe{rng.uniform(0.0, 1.0),
                                    rng.uniform(0.0, 1.0),
                                    rng.uniform(0.0, 1.0)};
    EXPECT_EQ(restored.predict(probe), tree.predict(probe));
  }
}

TEST(Cart, ParseRejectsGarbage) {
  EXPECT_THROW(Cart::parse(""), Error);
  EXPECT_THROW(Cart::parse("1 2\n"), Error);
  // One split on feature 0 of 1, two leaves; then the same tree with a
  // child pointing back at its parent (walk() would never reach a leaf),
  // and with a split feature past the feature count.
  const std::string leaves = "1 0 0 0 0 0 1 0\n1 0 0 0 0 1 0 1\n";
  EXPECT_NO_THROW(
      Cart::parse("1 2 1 3 0\n0 0 0.5 1 2 0 0.5 0.5\n" + leaves));
  EXPECT_THROW(Cart::parse("1 2 1 3 0\n0 0 0.5 0 2 0 0.5 0.5\n" + leaves),
               Error);
  EXPECT_THROW(Cart::parse("1 2 1 3 0\n0 1 0.5 1 2 0 0.5 0.5\n" + leaves),
               Error);
  // 6 + n_classes wraps to the one field of the node line.
  EXPECT_THROW(Cart::parse("1 18446744073709551611 1 1 0\n1\n"), Error);
}

// Property sweep: trained trees respect structural invariants and are
// consistent with their own training data above chance.
class CartProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CartProperty, StructuralInvariants) {
  Rng rng{GetParam()};
  const std::size_t n = 20 + rng.uniform_index(80);
  const std::size_t n_classes = 2 + rng.uniform_index(4);
  Matrix x{n, 4};
  std::vector<std::size_t> labels(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 4; ++j) {
      x(i, j) = rng.uniform(0.0, 1.0);
    }
    // Ground truth depends on feature 0 only -> learnable signal.
    labels[i] = std::min<std::size_t>(
        n_classes - 1,
        static_cast<std::size_t>(x(i, 0) * static_cast<double>(n_classes)));
  }
  const auto tree = Cart::fit(x, labels);
  EXPECT_GE(tree.depth(), 1u);
  EXPECT_LE(tree.depth(), CartOptions{}.max_depth);
  EXPECT_EQ(tree.leaf_count() + (tree.leaf_count() - 1), tree.node_count())
      << "binary tree: internal nodes = leaves - 1";
  EXPECT_GT(tree.training_accuracy(), 1.0 / static_cast<double>(n_classes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CartProperty,
                         ::testing::Range<std::uint64_t>(900, 915));

}  // namespace
}  // namespace acsel::stats
