#pragma once
// Dense factorizations: Cholesky (SPD) and LU with partial pivoting.
//
// The barrier interior-point solver forms SPD Newton systems
// (diag + A^T diag A); Cholesky is the fast path and LU the fallback
// when near-singularity makes the Cholesky fail.

#include <cstddef>
#include <vector>

#include "common/status.hpp"
#include "linalg/matrix.hpp"

namespace easched::linalg {

/// In-place lower Cholesky factor of an SPD matrix.
///
/// Returns a non-OK status when a non-positive pivot is met (matrix not
/// numerically SPD); in that case the caller should fall back to LU.
class Cholesky {
 public:
  /// Factors A (symmetric positive definite, only lower triangle read).
  static common::Result<Cholesky> factor(const Matrix& a);

  /// The same factorization into a preallocated `l` (a's size; only its
  /// lower triangle is written), allocating nothing. Returns the column
  /// of the first non-positive pivot, or a.rows() on success.
  static std::size_t factor_into(const Matrix& a, Matrix& l);
  /// Solves L Lᵀ x = b in place (b becomes x) for an `l` from factor_into.
  static void solve_in_place(const Matrix& l, Vector& b);

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  std::size_t dim() const noexcept { return l_.rows(); }

 private:
  explicit Cholesky(Matrix l) : l_(std::move(l)) {}
  Matrix l_;  // lower-triangular factor
};

/// LU factorization with partial (row) pivoting.
class Lu {
 public:
  /// Factors a square matrix; fails when numerically singular.
  static common::Result<Lu> factor(const Matrix& a);

  /// Solves A x = b.
  Vector solve(const Vector& b) const;

  /// Determinant sign * product of pivots (useful in tests).
  double determinant() const noexcept;

  std::size_t dim() const noexcept { return lu_.rows(); }

 private:
  Lu(Matrix lu, std::vector<std::size_t> perm, int sign)
      : lu_(std::move(lu)), perm_(std::move(perm)), sign_(sign) {}
  Matrix lu_;                       // packed L (unit diag) and U
  std::vector<std::size_t> perm_;   // row permutation
  int sign_ = 1;
};

/// Convenience: solve A x = b via Cholesky, LU fallback.
common::Result<Vector> solve_spd(const Matrix& a, const Vector& b);

}  // namespace easched::linalg
