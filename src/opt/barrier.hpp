#pragma once
// Log-barrier interior-point method for separable convex objectives under
// linear inequality constraints  A x <= b.
//
// This is the numerical workhorse behind the paper's claim C2: the
// CONTINUOUS BI-CRIT problem on a general mapped DAG "can be formulated as
// a geometric programming problem ... for which efficient numerical
// schemes exist" (section III, citing Boyd & Vandenberghe). After the
// substitution d_i = w_i/f_i the program becomes
//     minimize   sum_i w_i^3 / d_i^2          (convex for d > 0)
//     subject to start-time / precedence / deadline rows (all linear),
// which is exactly the class this solver handles. The barrier method with
// Newton inner iterations is the textbook scheme B&V propose for such
// programs, so optima agree with the GP formulation to solver tolerance.

#include <cstddef>
#include <functional>
#include <vector>

#include "common/status.hpp"
#include "linalg/matrix.hpp"

namespace easched::opt {

using linalg::Vector;

/// Separable convex objective: sum over registered terms of c / x_j^2,
/// plus an optional linear part. Domain: x_j > 0 for every term index.
///
/// This covers the energy objective (c = w^3 on duration variables) of the
/// continuous model, including re-execution variants (c = 8 w^3).
class InversePowerObjective {
 public:
  /// Adds a term coef / x_index^2 (coef >= 0).
  void add_term(int index, double coef);
  /// Adds a linear term coef * x_index.
  void add_linear(int index, double coef);

  double value(const Vector& x) const;
  /// g += gradient(x)
  void add_gradient(const Vector& x, Vector& g) const;
  /// h_diag += diagonal Hessian(x)  (the Hessian is diagonal)
  void add_hessian_diag(const Vector& x, Vector& h_diag) const;

  /// Indices that must stay strictly positive.
  const std::vector<int>& positive_indices() const noexcept { return positive_; }

 private:
  struct Term {
    int index;
    double coef;
  };
  std::vector<Term> terms_;
  std::vector<Term> linear_;
  std::vector<int> positive_;
};

/// Sparse inequality a^T x <= rhs.
struct LinearConstraint {
  std::vector<std::pair<int, double>> terms;
  double rhs = 0.0;
};

/// The Newton system of the centering subproblem t·f(x) + φ(x), with
/// φ(x) = −Σ_k log(rhs_k − a_kᵀx), solved through a Schur complement.
///
/// At construction it picks the eliminated set E: variables carrying an
/// inverse-power term, taken greedily in the order the terms were added,
/// such that no constraint holds two of them. Each constraint then adds
/// to at most one diagonal entry of the E block of the Hessian, so that
/// block is diagonal (and positive: t·f'' > 0 on every member) and is
/// eliminated in closed form. What remains is the dense Schur complement
/// over the other variables, factored by Cholesky. For the continuous
/// BI-CRIT program over x = [s, d] (start times, durations), E is every
/// duration — each constraint touches one task's duration at most — and
/// the factor is n×n instead of 2n×2n. A program in which no variable
/// carries a term has an empty E and runs the same code.
///
/// All workspaces are sized once here; solve() allocates nothing unless
/// the Schur complement is not numerically positive definite, where it
/// falls back to a pivoted LU of it. The objective and constraints are
/// held by reference and must outlive the system.
class NewtonSystem {
 public:
  NewtonSystem(const InversePowerObjective& objective,
               const std::vector<LinearConstraint>& constraints, std::size_t num_vars);

  /// At (x, r = rhs − Ax > 0, t): g = ∇(t·f + φ), and dx solves H dx = g
  /// for the Hessian H = t·∇²f + Σ_k a_k a_kᵀ / r_k² (+1e-12 on the
  /// diagonal). g and dx are resized to the variable count. Fails when
  /// the reduced system is numerically singular.
  common::Status solve(const Vector& x, const Vector& r, double t, Vector& g, Vector& dx);

  /// |E|, the variables solved in closed form.
  std::size_t num_eliminated() const noexcept { return elim_var_.size(); }

 private:
  const InversePowerObjective& objective_;
  const std::vector<LinearConstraint>& constraints_;
  std::size_t num_vars_ = 0;

  std::vector<int> elim_var_;  ///< E position -> variable
  std::vector<int> kept_var_;  ///< Schur row -> variable
  /// Per constraint: its E member (position, or -1) and summed coefficient,
  /// and its other terms as [row_begin_[k], row_begin_[k+1]) of
  /// term_row_ / term_coef_ (Schur rows) and term_slot_ (slot in the E
  /// member's coupling vector, when the constraint has one).
  std::vector<int> row_elim_;
  std::vector<double> row_elim_coef_;
  std::vector<std::size_t> row_begin_;
  std::vector<std::size_t> term_row_;
  std::vector<double> term_coef_;
  std::vector<std::size_t> term_slot_;
  /// Per E member: the Schur rows it couples to, as
  /// [slot_begin_[e], slot_begin_[e+1]) of slot_row_.
  std::vector<std::size_t> slot_begin_;
  std::vector<std::size_t> slot_row_;

  // Workspaces.
  Vector inv_r_, hess_diag_, elim_diag_, coupling_, rhs_, kept_dx_;
  linalg::Matrix schur_;
  linalg::Matrix factor_;
};

struct BarrierOptions {
  double gap_tolerance = 1e-9;   ///< stop when #constraints / t < gap
  double t_initial = 1.0;        ///< initial barrier weight
  double mu = 20.0;              ///< barrier weight multiplier per outer step
  int max_outer = 64;
  int max_newton_per_outer = 64;
  double armijo_alpha = 0.25;
  double armijo_beta = 0.5;
};

struct BarrierResult {
  common::Status status = common::Status::ok();
  Vector x;                  ///< final (strictly feasible) iterate
  double objective = 0.0;    ///< f(x)
  double gap_bound = 0.0;    ///< m/t certificate: f(x) - f* <= gap_bound
  int newton_steps = 0;
  int outer_iterations = 0;
};

/// Minimises `objective` over { x : A x <= b } starting from the strictly
/// feasible point x0 (every constraint satisfied with positive slack).
///
/// Each centering takes damped Newton steps (NewtonSystem) and ends when
/// the Newton decrement is negligible, the line search fails, or an
/// accepted step no longer lowers t·f + φ. The last rule stops at the
/// rounding floor: once t is large, what a step could still gain is below
/// the rounding error of evaluating t·f + φ, and further steps move x by
/// noise alone.
///
/// Returns kInvalidArgument when x0 is not strictly feasible and
/// kNotConverged when Newton systems become numerically singular.
BarrierResult minimize_barrier(const InversePowerObjective& objective,
                               const std::vector<LinearConstraint>& constraints,
                               const Vector& x0, const BarrierOptions& options = {});

}  // namespace easched::opt
