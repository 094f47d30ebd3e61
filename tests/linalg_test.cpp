// Tests for the dense matrix, Householder QR, and regression wrapper.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/cholesky.h"
#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/regression.h"
#include "util/error.h"
#include "util/rng.h"

namespace acsel::linalg {
namespace {

// --------------------------------------------------------------- matrix --

TEST(Matrix, ZeroInitialized) {
  Matrix m{2, 3};
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(m(r, c), 0.0);
    }
  }
}

TEST(Matrix, InitializerListAndAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), Error);
}

TEST(Matrix, OutOfBoundsAccessThrows) {
  Matrix m{2, 2};
  EXPECT_THROW(m(2, 0), Error);
  EXPECT_THROW(m(0, 2), Error);
}

TEST(Matrix, IdentityProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(a * Matrix::identity(2), a);
  EXPECT_EQ(Matrix::identity(2) * a, a);
}

TEST(Matrix, ProductAgainstHandComputed) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
  const Matrix c = a * b;
  EXPECT_EQ(c(0, 0), 58.0);
  EXPECT_EQ(c(0, 1), 64.0);
  EXPECT_EQ(c(1, 0), 139.0);
  EXPECT_EQ(c(1, 1), 154.0);
}

TEST(Matrix, ProductShapeMismatchThrows) {
  const Matrix a{2, 3};
  const Matrix b{2, 3};
  EXPECT_THROW(a * b, Error);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  EXPECT_EQ(a.transposed().transposed(), a);
  EXPECT_EQ(a.transposed()(2, 1), 6.0);
}

TEST(Matrix, AddSubtractScale) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{4.0, 3.0}, {2.0, 1.0}};
  EXPECT_EQ((a + b)(0, 0), 5.0);
  EXPECT_EQ((a - b)(1, 1), 3.0);
  EXPECT_EQ((2.0 * a)(1, 0), 6.0);
}

TEST(Matrix, ApplyMatchesProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  const std::vector<double> x{1.0, -1.0};
  const auto y = a.apply(x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_EQ(y[0], -1.0);
  EXPECT_EQ(y[1], -1.0);
  EXPECT_EQ(y[2], -1.0);
}

TEST(Matrix, FrobeniusNorm) {
  const Matrix a{{3.0, 0.0}, {0.0, 4.0}};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
}

TEST(VectorOps, DotAndNorm) {
  const std::vector<double> a{1.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, a), 9.0);
  EXPECT_DOUBLE_EQ(norm(a), 3.0);
}

TEST(VectorOps, MaxAbsDiff) {
  const std::vector<double> a{1.0, 2.0};
  const std::vector<double> b{1.5, 1.0};
  EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 1.0);
}

// ------------------------------------------------------------------- qr --

TEST(Qr, ReconstructsUpperTriangularR) {
  const Matrix a{{12.0, -51.0, 4.0}, {6.0, 167.0, -68.0}, {-4.0, 24.0, -41.0}};
  const QrFactorization qr{a};
  const Matrix r = qr.r();
  for (std::size_t i = 1; i < 3; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_EQ(r(i, j), 0.0);
    }
  }
  // |r_ii| should equal the singular structure of the classic example:
  // R diag magnitudes 14, 175, 35.
  EXPECT_NEAR(std::abs(r(0, 0)), 14.0, 1e-9);
  EXPECT_NEAR(std::abs(r(1, 1)), 175.0, 1e-9);
  EXPECT_NEAR(std::abs(r(2, 2)), 35.0, 1e-9);
}

TEST(Qr, SolvesSquareSystemExactly) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const std::vector<double> b{3.0, 5.0};
  const auto x = lstsq(a, b);
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  // Overdetermined: fit y = c0 + c1 t to 4 points.
  const Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  const std::vector<double> b{1.0, 2.9, 5.1, 7.0};
  const auto x = lstsq(a, b);
  // Normal equations by hand: slope = 2.02, intercept = 0.97.
  EXPECT_NEAR(x[0], 0.97, 1e-9);
  EXPECT_NEAR(x[1], 2.02, 1e-9);
}

TEST(Qr, ResidualIsOrthogonalToColumnSpace) {
  Rng rng{123};
  Matrix a{20, 5};
  std::vector<double> b(20);
  for (std::size_t i = 0; i < 20; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      a(i, j) = rng.uniform(-1.0, 1.0);
    }
    b[i] = rng.uniform(-1.0, 1.0);
  }
  const auto x = lstsq(a, b);
  const auto fitted = a.apply(x);
  std::vector<double> resid(20);
  for (std::size_t i = 0; i < 20; ++i) {
    resid[i] = b[i] - fitted[i];
  }
  // A^T r = 0 for the least-squares residual.
  const Matrix at = a.transposed();
  const auto atr = at.apply(resid);
  for (const double v : atr) {
    EXPECT_NEAR(v, 0.0, 1e-10);
  }
}

TEST(Qr, DetectsRankDeficiency) {
  // Second column is 2x the first.
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  const QrFactorization qr{a};
  const std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_FALSE(qr.solve(b).has_value());
  EXPECT_THROW(lstsq(a, b), Error);
}

TEST(Qr, RidgeHandlesRankDeficiency) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  const std::vector<double> b{1.0, 2.0, 3.0};
  const auto x = lstsq_ridge(a, b, 0.0);  // falls back to small ridge
  // Fitted values should still reproduce b (consistent system).
  const auto fitted = a.apply(x);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(fitted[i], b[i], 1e-5);
  }
}

TEST(Qr, RidgeShrinksCoefficients) {
  const Matrix a{{1.0, 0.0}, {0.0, 1.0}};
  const std::vector<double> b{1.0, 1.0};
  const auto x0 = lstsq_ridge(a, b, 0.0);
  const auto x1 = lstsq_ridge(a, b, 1.0);
  EXPECT_GT(x0[0], x1[0]);
  EXPECT_NEAR(x1[0], 0.5, 1e-12);  // (A^T A + I)^-1 A^T b = 1/2
}

TEST(Qr, RequiresTallMatrix) {
  const Matrix a{1, 2};
  EXPECT_THROW(QrFactorization{a}, Error);
}

TEST(Qr, DiagonalRatioWellConditioned) {
  const QrFactorization qr{Matrix::identity(3)};
  EXPECT_NEAR(qr.diagonal_ratio(), 1.0, 1e-12);
}

// ---------------------------------------------------- property: QR solve --

class QrRandomSystem : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QrRandomSystem, SolveReproducesPlantedSolution) {
  Rng rng{GetParam()};
  const std::size_t n = 2 + rng.uniform_index(8);
  const std::size_t m = n + rng.uniform_index(10);
  Matrix a{m, n};
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-2.0, 2.0);
    }
    a(i, i % n) += 3.0;  // keep it comfortably full-rank
  }
  std::vector<double> x_true(n);
  for (auto& v : x_true) {
    v = rng.uniform(-5.0, 5.0);
  }
  const auto b = a.apply(x_true);  // consistent RHS
  const auto x = lstsq(a, b);
  EXPECT_LT(max_abs_diff(x, x_true), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QrRandomSystem,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89,
                                           144, 233));

// ------------------------------------------------------------ regression --

TEST(Regression, RecoversLinearRelationship) {
  // y = 3 + 2 a - b, exact.
  Matrix x{6, 2};
  std::vector<double> y(6);
  const double data[6][2] = {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 1}, {2, 3}};
  for (std::size_t i = 0; i < 6; ++i) {
    x(i, 0) = data[i][0];
    x(i, 1) = data[i][1];
    y[i] = 3.0 + 2.0 * data[i][0] - data[i][1];
  }
  const auto model = LinearModel::fit(x, y);
  EXPECT_NEAR(model.intercept(), 3.0, 1e-6);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 1e-6);
  EXPECT_NEAR(model.coefficients()[1], -1.0, 1e-6);
  EXPECT_NEAR(model.r_squared(), 1.0, 1e-9);
  EXPECT_NEAR(model.predict(std::vector<double>{4.0, 2.0}), 9.0, 1e-6);
}

TEST(Regression, NoInterceptPassesThroughOrigin) {
  Matrix x{3, 1};
  x(0, 0) = 1.0;
  x(1, 0) = 2.0;
  x(2, 0) = 3.0;
  const std::vector<double> y{2.0, 4.0, 6.0};
  RegressionOptions opts;
  opts.intercept = false;
  const auto model = LinearModel::fit(x, y, opts);
  EXPECT_EQ(model.intercept(), 0.0);
  EXPECT_NEAR(model.coefficients()[0], 2.0, 1e-6);
  EXPECT_NEAR(model.predict(std::vector<double>{0.0}), 0.0, 1e-12);
}

TEST(Regression, Log1pTransformRoundTrips) {
  // y = exp(a) - 1 exactly linear in transformed space.
  Matrix x{5, 1};
  std::vector<double> y(5);
  for (std::size_t i = 0; i < 5; ++i) {
    const double a = static_cast<double>(i);
    x(i, 0) = a;
    y[i] = std::expm1(0.7 * a + 0.1);
  }
  RegressionOptions opts;
  opts.transform = ResponseTransform::Log1p;
  const auto model = LinearModel::fit(x, y, opts);
  EXPECT_NEAR(model.r_squared(), 1.0, 1e-9);
  EXPECT_NEAR(model.predict(std::vector<double>{2.5}),
              std::expm1(0.7 * 2.5 + 0.1), 1e-6);
}

TEST(Regression, ResidualStddevReflectsNoise) {
  Rng rng{77};
  const std::size_t n = 400;
  Matrix x{n, 1};
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0.0, 10.0);
    y[i] = 1.0 + 2.0 * x(i, 0) + rng.normal(0.0, 0.5);
  }
  const auto model = LinearModel::fit(x, y);
  EXPECT_NEAR(model.residual_stddev(), 0.5, 0.08);
  EXPECT_EQ(model.training_rows(), n);
}

TEST(Regression, RejectsUnderdeterminedFit) {
  Matrix x{2, 3};
  const std::vector<double> y{1.0, 2.0};
  EXPECT_THROW(LinearModel::fit(x, y), Error);
}

TEST(Regression, PredictValidatesFeatureCount) {
  Matrix x{3, 1};
  x(0, 0) = 1;
  x(1, 0) = 2;
  x(2, 0) = 3;
  const std::vector<double> y{1.0, 2.0, 3.0};
  const auto model = LinearModel::fit(x, y);
  EXPECT_THROW(model.predict(std::vector<double>{1.0, 2.0}), Error);
}

TEST(Regression, SerializeParseRoundTrip) {
  Matrix x{4, 2};
  std::vector<double> y(4);
  const double data[4][2] = {{0, 1}, {1, 2}, {2, 0}, {3, 3}};
  for (std::size_t i = 0; i < 4; ++i) {
    x(i, 0) = data[i][0];
    x(i, 1) = data[i][1];
    y[i] = 0.5 + 1.5 * data[i][0] - 0.25 * data[i][1];
  }
  RegressionOptions opts;
  opts.transform = ResponseTransform::Log1p;
  // Keep responses > -1 for log1p.
  for (auto& v : y) {
    v = std::abs(v);
  }
  const auto model = LinearModel::fit(x, y, opts);
  const auto restored = LinearModel::parse(model.serialize());
  EXPECT_EQ(restored.has_intercept(), model.has_intercept());
  EXPECT_EQ(restored.feature_count(), model.feature_count());
  EXPECT_DOUBLE_EQ(restored.intercept(), model.intercept());
  EXPECT_DOUBLE_EQ(restored.r_squared(), model.r_squared());
  const std::vector<double> probe{1.5, 0.5};
  EXPECT_DOUBLE_EQ(restored.predict(probe), model.predict(probe));
}

// ------------------------------------------------------------- cholesky --

TEST(Cholesky, FactorsAKnownSpdMatrix) {
  // A = L Lᵀ with L = [[2,0,0],[6,1,0],[-8,5,3]].
  const Matrix a{{4.0, 12.0, -16.0},
                 {12.0, 37.0, -43.0},
                 {-16.0, -43.0, 98.0}};
  const CholeskyFactorization chol{a};
  const Matrix& l = chol.l();
  EXPECT_DOUBLE_EQ(l(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(l(1, 0), 6.0);
  EXPECT_DOUBLE_EQ(l(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(l(2, 0), -8.0);
  EXPECT_DOUBLE_EQ(l(2, 1), 5.0);
  EXPECT_DOUBLE_EQ(l(2, 2), 3.0);
  // Strict upper triangle stays zero.
  EXPECT_EQ(l(0, 1), 0.0);
  EXPECT_EQ(l(0, 2), 0.0);
  EXPECT_EQ(l(1, 2), 0.0);
}

TEST(Cholesky, SolveRecoversTheExactSolution) {
  const Matrix a{{4.0, 12.0, -16.0},
                 {12.0, 37.0, -43.0},
                 {-16.0, -43.0, 98.0}};
  const CholeskyFactorization chol{a};
  // b = A x for x = (1, -2, 3).
  const std::vector<double> b{-68.0, -191.0, 364.0};
  const std::vector<double> x = chol.solve(b);
  ASSERT_EQ(x.size(), 3u);
  EXPECT_NEAR(x[0], 1.0, 1e-10);
  EXPECT_NEAR(x[1], -2.0, 1e-10);
  EXPECT_NEAR(x[2], 3.0, 1e-10);
}

TEST(Cholesky, SolveLowerIsForwardSubstitutionOnly) {
  const Matrix a{{4.0, 12.0, -16.0},
                 {12.0, 37.0, -43.0},
                 {-16.0, -43.0, 98.0}};
  const CholeskyFactorization chol{a};
  // L y = b with L as above: y0 = 1, y1 = 2 - 6*1 = ... solved by hand.
  const std::vector<double> b{2.0, 7.0, -9.0};
  const std::vector<double> y = chol.solve_lower(b);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_NEAR(y[0], 1.0, 1e-12);   // 2 / 2
  EXPECT_NEAR(y[1], 1.0, 1e-12);   // (7 - 6*1) / 1
  EXPECT_NEAR(y[2], -2.0, 1e-12);  // (-9 - (-8*1 + 5*1)) / 3
}

TEST(Cholesky, LogDeterminantMatchesTheFactor) {
  const Matrix a{{4.0, 12.0, -16.0},
                 {12.0, 37.0, -43.0},
                 {-16.0, -43.0, 98.0}};
  const CholeskyFactorization chol{a};
  // det A = (det L)² = (2 * 1 * 3)² = 36.
  EXPECT_NEAR(chol.log_determinant(), std::log(36.0), 1e-12);
}

TEST(Cholesky, RejectsMatricesThatAreNotPositiveDefinite) {
  EXPECT_THROW(CholeskyFactorization{Matrix{{0.0}}}, Error);
  EXPECT_THROW((CholeskyFactorization{Matrix{{1.0, 2.0}, {2.0, 1.0}}}),
               Error);
  EXPECT_THROW((CholeskyFactorization{Matrix{2, 3}}), Error);
}

// The factorization row by row, each entry's sum one chain in k order.
Matrix unblocked_cholesky(const Matrix& a) {
  const std::size_t n = a.rows();
  Matrix l{n, n};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        sum -= l(i, k) * l(j, k);
      }
      l(i, j) = i == j ? std::sqrt(sum) : sum / l(j, j);
    }
  }
  return l;
}

TEST(Cholesky, FactorIsBitwiseTheUnblockedFactor) {
  // Rows are factored two at a time; odd n leaves a last row alone.
  for (const std::size_t n : {1u, 2u, 3u, 255u, 256u}) {
    SCOPED_TRACE(n);
    Rng rng{n};
    Matrix b{n, n};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        b(i, j) = rng.uniform(-1.0, 1.0);
      }
    }
    // B Bᵀ + n I is symmetric positive definite.
    Matrix a = b * b.transposed();
    for (std::size_t i = 0; i < n; ++i) {
      a(i, i) += static_cast<double>(n);
    }
    const CholeskyFactorization chol{a};
    const Matrix reference = unblocked_cholesky(a);
    ASSERT_EQ(chol.l().data().size(), reference.data().size());
    EXPECT_EQ(std::memcmp(chol.l().data().data(), reference.data().data(),
                          reference.data().size() * sizeof(double)),
              0);
  }
}

TEST(Cholesky, RejectsSolveWithWrongSizedRhs) {
  const CholeskyFactorization chol{Matrix{{4.0}}};
  EXPECT_THROW(chol.solve(std::vector<double>{1.0, 2.0}), Error);
}

TEST(Regression, TransformHelpersInverse) {
  for (const double y : {0.0, 0.5, 10.0, 1e6}) {
    EXPECT_NEAR(invert_transform(ResponseTransform::Log1p,
                                 apply_transform(ResponseTransform::Log1p, y)),
                y, 1e-9 * (1.0 + y));
  }
  EXPECT_THROW(apply_transform(ResponseTransform::Log1p, -2.0), Error);
}

}  // namespace
}  // namespace acsel::linalg
