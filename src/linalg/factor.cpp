#include "linalg/factor.hpp"

#include <cmath>
#include <utility>

namespace easched::linalg {

common::Result<Cholesky> Cholesky::factor(const Matrix& a) {
  EASCHED_CHECK(a.rows() == a.cols());
  Matrix l(a.rows(), a.rows());
  const std::size_t bad = factor_into(a, l);
  if (bad < a.rows()) {
    return common::Status::not_converged("Cholesky: non-positive pivot at column " +
                                         std::to_string(bad));
  }
  return Cholesky(std::move(l));
}

std::size_t Cholesky::factor_into(const Matrix& a, Matrix& l) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = l.row(j);
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return j;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      const double* li = l.row(i);
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= li[k] * lj[k];
      l(i, j) = v / ljj;
    }
  }
  return n;
}

void Cholesky::solve_in_place(const Matrix& l, Vector& b) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l.row(i);
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= li[k] * b[k];
    b[i] = v / li[i];
  }
  for (std::size_t i = n; i-- > 0;) {
    double v = b[i];
    for (std::size_t k = i + 1; k < n; ++k) v -= l(k, i) * b[k];
    b[i] = v / l(i, i);
  }
}

Vector Cholesky::solve(const Vector& b) const {
  EASCHED_CHECK(b.size() == dim());
  Vector x = b;
  solve_in_place(l_, x);
  return x;
}

common::Result<Lu> Lu::factor(const Matrix& a) {
  EASCHED_CHECK(a.rows() == a.cols());
  const std::size_t n = a.rows();
  Matrix lu = a;
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  int sign = 1;
  for (std::size_t col = 0; col < n; ++col) {
    // partial pivot
    std::size_t piv = col;
    double best = std::fabs(lu(col, col));
    for (std::size_t r = col + 1; r < n; ++r) {
      const double v = std::fabs(lu(r, col));
      if (v > best) {
        best = v;
        piv = r;
      }
    }
    if (best < 1e-300 || !std::isfinite(best)) {
      return common::Status::not_converged("LU: singular at column " + std::to_string(col));
    }
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu(piv, c), lu(col, c));
      std::swap(perm[piv], perm[col]);
      sign = -sign;
    }
    const double d = lu(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double m = lu(r, col) / d;
      lu(r, col) = m;
      if (m == 0.0) continue;
      double* rrow = lu.row(r);
      const double* crow = lu.row(col);
      for (std::size_t c = col + 1; c < n; ++c) rrow[c] -= m * crow[c];
    }
  }
  return Lu(std::move(lu), std::move(perm), sign);
}

Vector Lu::solve(const Vector& b) const {
  const std::size_t n = dim();
  EASCHED_CHECK(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[perm_[i]];
    const double* lrow = lu_.row(i);
    for (std::size_t k = 0; k < i; ++k) v -= lrow[k] * y[k];
    y[i] = v;
  }
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    const double* urow = lu_.row(ii);
    for (std::size_t k = ii + 1; k < n; ++k) v -= urow[k] * x[k];
    x[ii] = v / urow[ii];
  }
  return x;
}

double Lu::determinant() const noexcept {
  double det = sign_;
  for (std::size_t i = 0; i < dim(); ++i) det *= lu_(i, i);
  return det;
}

common::Result<Vector> solve_spd(const Matrix& a, const Vector& b) {
  auto chol = Cholesky::factor(a);
  if (chol.is_ok()) return chol.value().solve(b);
  auto lu = Lu::factor(a);
  if (!lu.is_ok()) return lu.status();
  return lu.value().solve(b);
}

}  // namespace easched::linalg
