#include "linalg/cholesky.h"

#include <cmath>

#include "util/error.h"

namespace acsel::linalg {

CholeskyFactorization::CholeskyFactorization(const Matrix& a) {
  ACSEL_CHECK_MSG(a.rows() == a.cols() && a.rows() > 0,
                  "Cholesky needs a square non-empty matrix");
  const std::size_t n = a.rows();
  l_ = Matrix{n, n};
  // Rows as spans: the O(n³) loop makes no checked element call per operand.
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<double> li = l_.row(i);
    for (std::size_t j = 0; j <= i; ++j) {
      const std::span<const double> lj = l_.row(j);
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) {
        sum -= li[k] * lj[k];
      }
      if (i == j) {
        ACSEL_CHECK_MSG(sum > 0.0,
                        "Cholesky pivot <= 0: matrix is not positive "
                        "definite");
        li[i] = std::sqrt(sum);
      } else {
        li[j] = sum / lj[j];
      }
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
