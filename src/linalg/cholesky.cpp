#include "linalg/cholesky.h"

#include <cmath>

#include "util/error.h"

namespace acsel::linalg {

namespace {

struct Sums {
  double a;
  double b;
};

/// a - Σ x[k] y[k] and b - Σ z[k] y[k] over k < count, each subtracting
/// its terms in k order: two independent chains sharing the loads of y.
/// A last row without a partner passes itself as z and drops b.
Sums subtract_products(double a, double b, std::span<const double> x,
                       std::span<const double> z, std::span<const double> y,
                       std::size_t count) {
  for (std::size_t k = 0; k < count; ++k) {
    a -= x[k] * y[k];
    b -= z[k] * y[k];
  }
  return {a, b};
}

void check_pivot(double sum) {
  ACSEL_CHECK_MSG(sum > 0.0,
                  "Cholesky pivot <= 0: matrix is not positive definite");
}

}  // namespace

CholeskyFactorization::CholeskyFactorization(const Matrix& a) {
  ACSEL_CHECK_MSG(a.rows() == a.cols() && a.rows() > 0,
                  "Cholesky needs a square non-empty matrix");
  const std::size_t n = a.rows();
  l_ = Matrix{n, n};
  // Rows i and i+1 are factored together: for each j <= i their two
  // sums are independent chains over the same row j, which the CPU runs
  // side by side. Entry (i+1, i) waits for l_ii from the same step, and
  // (i+1, i+1) is finished after it. Each sum still subtracts its terms
  // in k order, so the factor is bitwise that of a row-by-row loop. Rows
  // are read as spans and `a` through its storage: no checked element
  // call in the O(n³) loop (such a call also made GCC keep the second
  // sum in memory).
  const double* const ad = a.data().data();
  for (std::size_t i = 0; i < n; i += 2) {
    const bool pair = i + 1 < n;
    const double* const ai = ad + i * n;
    const double* const ab = pair ? ai + n : ai;
    const std::span<double> li = l_.row(i);
    const std::span<double> lb = l_.row(pair ? i + 1 : i);
    for (std::size_t j = 0; j < i; ++j) {
      const std::span<const double> lj = l_.row(j);
      const Sums sums = subtract_products(ai[j], ab[j], li, lb, lj, j);
      li[j] = sums.a / lj[j];
      if (pair) {
        lb[j] = sums.b / lj[j];
      }
    }
    const Sums sums = subtract_products(ai[i], ab[i], li, lb, li, i);
    check_pivot(sums.a);
    li[i] = std::sqrt(sums.a);
    if (pair) {
      lb[i] = sums.b / li[i];
      double sum = ab[i + 1];
      for (std::size_t k = 0; k <= i; ++k) {
        sum -= lb[k] * lb[k];
      }
      check_pivot(sum);
      lb[i + 1] = std::sqrt(sum);
    }
  }
}

std::vector<double> CholeskyFactorization::solve_lower(
    std::span<const double> b) const {
  const std::size_t n = size();
  ACSEL_CHECK_MSG(b.size() == n, "Cholesky solve: size mismatch");
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[i];
    for (std::size_t k = 0; k < i; ++k) {
      sum -= l_(i, k) * y[k];
    }
    y[i] = sum / l_(i, i);
  }
  return y;
}

std::vector<double> CholeskyFactorization::solve(
    std::span<const double> b) const {
  const std::size_t n = size();
  std::vector<double> x = solve_lower(b);
  // Back substitution with Lᵀ.
  for (std::size_t i = n; i-- > 0;) {
    double sum = x[i];
    for (std::size_t k = i + 1; k < n; ++k) {
      sum -= l_(k, i) * x[k];
    }
    x[i] = sum / l_(i, i);
  }
  return x;
}

double CholeskyFactorization::log_determinant() const {
  double log_det = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    log_det += 2.0 * std::log(l_(i, i));
  }
  return log_det;
}

}  // namespace acsel::linalg
