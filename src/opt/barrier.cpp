#include "opt/barrier.hpp"

#include <algorithm>
#include <cmath>

#include "common/tolerance.hpp"
#include "linalg/factor.hpp"

namespace easched::opt {

void InversePowerObjective::add_term(int index, double coef) {
  EASCHED_CHECK_MSG(coef >= 0.0, "inverse-power coefficient must be >= 0");
  terms_.push_back(Term{index, coef});
  positive_.push_back(index);
}

void InversePowerObjective::add_linear(int index, double coef) {
  linear_.push_back(Term{index, coef});
}

double InversePowerObjective::value(const Vector& x) const {
  double v = 0.0;
  for (const auto& t : terms_) {
    const double xi = x[static_cast<std::size_t>(t.index)];
    v += t.coef / (xi * xi);
  }
  for (const auto& t : linear_) v += t.coef * x[static_cast<std::size_t>(t.index)];
  return v;
}

void InversePowerObjective::add_gradient(const Vector& x, Vector& g) const {
  for (const auto& t : terms_) {
    const double xi = x[static_cast<std::size_t>(t.index)];
    g[static_cast<std::size_t>(t.index)] += -2.0 * t.coef / (xi * xi * xi);
  }
  for (const auto& t : linear_) g[static_cast<std::size_t>(t.index)] += t.coef;
}

void InversePowerObjective::add_hessian_diag(const Vector& x, Vector& h) const {
  for (const auto& t : terms_) {
    const double xi = x[static_cast<std::size_t>(t.index)];
    h[static_cast<std::size_t>(t.index)] += 6.0 * t.coef / (xi * xi * xi * xi);
  }
}

namespace {

// Residuals r_k = rhs_k - a_k^T x; all must stay > 0.
bool compute_residuals(const std::vector<LinearConstraint>& cons, const Vector& x,
                       Vector& r) {
  r.resize(cons.size());
  for (std::size_t k = 0; k < cons.size(); ++k) {
    double ax = 0.0;
    for (const auto& [j, c] : cons[k].terms) ax += c * x[static_cast<std::size_t>(j)];
    r[k] = cons[k].rhs - ax;
    if (!(r[k] > 0.0)) return false;
  }
  return true;
}

double barrier_value(const Vector& r) {
  double phi = 0.0;
  for (double rk : r) phi -= std::log(rk);
  return phi;
}

}  // namespace

NewtonSystem::NewtonSystem(const InversePowerObjective& objective,
                           const std::vector<LinearConstraint>& constraints,
                           std::size_t num_vars)
    : objective_(objective), constraints_(constraints), num_vars_(num_vars) {
  const std::size_t m = constraints.size();
  std::vector<std::vector<std::size_t>> rows_of(num_vars);
  for (std::size_t k = 0; k < m; ++k) {
    for (const auto& term : constraints[k].terms) {
      rows_of[static_cast<std::size_t>(term.first)].push_back(k);
    }
  }
  // Greedy elimination set: a curvature variable joins E unless one of
  // its constraints already holds a member.
  std::vector<int> elim_pos(num_vars, -1);
  std::vector<char> row_taken(m, 0);
  for (int j : objective.positive_indices()) {
    const auto v = static_cast<std::size_t>(j);
    if (elim_pos[v] >= 0) continue;
    bool free = true;
    for (std::size_t k : rows_of[v]) free = free && !row_taken[k];
    if (!free) continue;
    elim_pos[v] = static_cast<int>(elim_var_.size());
    elim_var_.push_back(j);
    for (std::size_t k : rows_of[v]) row_taken[k] = 1;
  }
  std::vector<std::size_t> kept_row(num_vars, 0);
  for (std::size_t v = 0; v < num_vars; ++v) {
    if (elim_pos[v] >= 0) continue;
    kept_row[v] = kept_var_.size();
    kept_var_.push_back(static_cast<int>(v));
  }
  // Coupling pattern of each E member: the distinct Schur rows of the
  // other terms of its constraints.
  std::vector<std::size_t> slot_stamp(kept_var_.size(), 0);
  slot_begin_.push_back(0);
  for (std::size_t e = 0; e < elim_var_.size(); ++e) {
    for (std::size_t k : rows_of[static_cast<std::size_t>(elim_var_[e])]) {
      for (const auto& term : constraints[k].terms) {
        const auto v = static_cast<std::size_t>(term.first);
        if (elim_pos[v] >= 0) continue;
        const std::size_t row = kept_row[v];
        if (slot_stamp[row] == e + 1) continue;
        slot_stamp[row] = e + 1;
        slot_row_.push_back(row);
      }
    }
    slot_begin_.push_back(slot_row_.size());
  }
  row_elim_.assign(m, -1);
  row_elim_coef_.assign(m, 0.0);
  row_begin_.reserve(m + 1);
  row_begin_.push_back(0);
  for (std::size_t k = 0; k < m; ++k) {
    for (const auto& [j, c] : constraints[k].terms) {
      const auto v = static_cast<std::size_t>(j);
      if (elim_pos[v] >= 0) {
        row_elim_[k] = elim_pos[v];
        row_elim_coef_[k] += c;
      }
    }
    const int e = row_elim_[k];
    for (const auto& [j, c] : constraints[k].terms) {
      const auto v = static_cast<std::size_t>(j);
      if (elim_pos[v] >= 0) continue;
      term_row_.push_back(kept_row[v]);
      term_coef_.push_back(c);
      std::size_t slot = 0;  // patterns are a few entries long: scan
      if (e >= 0) {
        const auto eu = static_cast<std::size_t>(e);
        while (slot_row_[slot_begin_[eu] + slot] != kept_row[v]) ++slot;
      }
      term_slot_.push_back(slot);
    }
    row_begin_.push_back(term_row_.size());
  }
  const std::size_t nk = kept_var_.size();
  inv_r_.resize(m);
  hess_diag_.resize(num_vars);
  elim_diag_.resize(elim_var_.size());
  coupling_.resize(slot_row_.size());
  rhs_.resize(nk);
  kept_dx_.resize(nk);
  schur_ = linalg::Matrix(nk, nk);
  factor_ = linalg::Matrix(nk, nk);
}

common::Status NewtonSystem::solve(const Vector& x, const Vector& r, double t, Vector& g,
                                   Vector& dx) {
  const std::size_t m = constraints_.size();
  const std::size_t nk = kept_var_.size();
  const std::size_t ne = elim_var_.size();

  g.assign(num_vars_, 0.0);
  objective_.add_gradient(x, g);
  for (double& gi : g) gi *= t;
  for (std::size_t k = 0; k < m; ++k) {
    inv_r_[k] = 1.0 / r[k];
    for (const auto& [j, c] : constraints_[k].terms) {
      g[static_cast<std::size_t>(j)] += c * inv_r_[k];
    }
  }
  hess_diag_.assign(num_vars_, 0.0);
  objective_.add_hessian_diag(x, hess_diag_);

  // Assemble the lower triangle of the kept block, the diagonal E block
  // and the couplings v_e (column e of the off-diagonal block).
  for (std::size_t i = 0; i < nk; ++i) {
    double* row = schur_.row(i);
    for (std::size_t j = 0; j < i; ++j) row[j] = 0.0;
    row[i] = t * hess_diag_[static_cast<std::size_t>(kept_var_[i])] + 1e-12;
  }
  for (std::size_t e = 0; e < ne; ++e) {
    elim_diag_[e] = t * hess_diag_[static_cast<std::size_t>(elim_var_[e])] + 1e-12;
  }
  std::fill(coupling_.begin(), coupling_.end(), 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    const double w = inv_r_[k] * inv_r_[k];
    const std::size_t begin = row_begin_[k];
    const std::size_t end = row_begin_[k + 1];
    for (std::size_t p = begin; p < end; ++p) {
      const double wp = w * term_coef_[p];
      for (std::size_t q = begin; q < end; ++q) {
        if (term_row_[q] <= term_row_[p]) {
          schur_(term_row_[p], term_row_[q]) += wp * term_coef_[q];
        }
      }
    }
    if (row_elim_[k] >= 0) {
      const auto e = static_cast<std::size_t>(row_elim_[k]);
      const double we = w * row_elim_coef_[k];
      elim_diag_[e] += we * row_elim_coef_[k];
      double* v = coupling_.data() + slot_begin_[e];
      for (std::size_t p = begin; p < end; ++p) v[term_slot_[p]] += we * term_coef_[p];
    }
  }

  // Eliminate E: S = H_kk − Σ_e v_e v_eᵀ / D_e, rhs = g_k − Σ_e v_e g_e / D_e.
  for (std::size_t i = 0; i < nk; ++i) rhs_[i] = g[static_cast<std::size_t>(kept_var_[i])];
  for (std::size_t e = 0; e < ne; ++e) {
    const double inv_d = 1.0 / elim_diag_[e];
    const double ge = g[static_cast<std::size_t>(elim_var_[e])];
    const std::size_t begin = slot_begin_[e];
    const std::size_t end = slot_begin_[e + 1];
    for (std::size_t a = begin; a < end; ++a) {
      const double va = coupling_[a] * inv_d;
      rhs_[slot_row_[a]] -= va * ge;
      for (std::size_t b = begin; b < end; ++b) {
        if (slot_row_[b] <= slot_row_[a]) {
          schur_(slot_row_[a], slot_row_[b]) -= va * coupling_[b];
        }
      }
    }
  }

  if (linalg::Cholesky::factor_into(schur_, factor_) == nk) {
    kept_dx_ = rhs_;
    linalg::Cholesky::solve_in_place(factor_, kept_dx_);
  } else {
    // Not numerically positive definite: a pivoted LU of the full
    // (symmetrised) Schur complement, as the dense path always did.
    linalg::Matrix full = schur_;
    for (std::size_t i = 0; i < nk; ++i) {
      for (std::size_t j = i + 1; j < nk; ++j) full(i, j) = full(j, i);
    }
    auto lu = linalg::Lu::factor(full);
    if (!lu.is_ok()) return lu.status();
    kept_dx_ = lu.value().solve(rhs_);
  }

  dx.resize(num_vars_);
  for (std::size_t i = 0; i < nk; ++i) {
    dx[static_cast<std::size_t>(kept_var_[i])] = kept_dx_[i];
  }
  for (std::size_t e = 0; e < ne; ++e) {
    double v = g[static_cast<std::size_t>(elim_var_[e])];
    for (std::size_t a = slot_begin_[e]; a < slot_begin_[e + 1]; ++a) {
      v -= coupling_[a] * kept_dx_[slot_row_[a]];
    }
    dx[static_cast<std::size_t>(elim_var_[e])] = v / elim_diag_[e];
  }
  return common::Status::ok();
}

BarrierResult minimize_barrier(const InversePowerObjective& objective,
                               const std::vector<LinearConstraint>& constraints,
                               const Vector& x0, const BarrierOptions& opt) {
  BarrierResult out;
  const std::size_t n = x0.size();
  const std::size_t m = constraints.size();
  Vector x = x0;
  Vector r;
  if (!compute_residuals(constraints, x, r)) {
    out.status = common::Status::invalid("barrier: x0 is not strictly feasible");
    return out;
  }
  for (int j : objective.positive_indices()) {
    if (!(x[static_cast<std::size_t>(j)] > 0.0)) {
      out.status = common::Status::invalid("barrier: x0 has non-positive objective coordinate");
      return out;
    }
  }

  NewtonSystem newton(objective, constraints, n);
  Vector g, dx, x_new(n), r_new(m);
  double t = opt.t_initial;
  for (int outer = 0; outer < opt.max_outer; ++outer) {
    ++out.outer_iterations;
    // ---- Newton centering for  t*f(x) + phi(x) ----------------------------
    double f_x = t * objective.value(x) + barrier_value(r);
    for (int inner = 0; inner < opt.max_newton_per_outer; ++inner) {
      const common::Status solved = newton.solve(x, r, t, g, dx);
      if (!solved.is_ok()) {
        out.status = common::Status::not_converged("barrier: Newton system singular (" +
                                                   solved.message() + ")");
        out.x = x;
        out.objective = objective.value(x);
        return out;
      }
      // dx solves H dx = g; the descent direction is -dx.
      const double decrement2 = linalg::dot(g, dx);
      ++out.newton_steps;
      if (decrement2 * 0.5 <= common::tol::kNewtonDecrement) break;

      // Max feasible step along -dx (keep residuals and positive coords > 0).
      double alpha_max = 1.0;
      for (std::size_t k = 0; k < m; ++k) {
        double adx = 0.0;
        for (const auto& [j, c] : constraints[k].terms) {
          adx += c * (-dx[static_cast<std::size_t>(j)]);
        }
        if (adx > 0.0) alpha_max = std::min(alpha_max, r[k] / adx);
      }
      for (int j : objective.positive_indices()) {
        const double d = dx[static_cast<std::size_t>(j)];
        if (d > 0.0) {
          alpha_max = std::min(alpha_max, x[static_cast<std::size_t>(j)] / d);
        }
      }
      double alpha = 0.99 * alpha_max;
      if (alpha <= 0.0) break;

      // Armijo backtracking on  t f + phi.
      const double slope = -decrement2;  // directional derivative along -dx
      double f_new = f_x;
      bool accepted = false;
      for (int ls = 0; ls < 64; ++ls) {
        for (std::size_t j = 0; j < n; ++j) x_new[j] = x[j] - alpha * dx[j];
        bool interior = compute_residuals(constraints, x_new, r_new);
        if (interior) {
          for (int j : objective.positive_indices()) {
            if (!(x_new[static_cast<std::size_t>(j)] > 0.0)) {
              interior = false;
              break;
            }
          }
        }
        if (interior) {
          f_new = t * objective.value(x_new) + barrier_value(r_new);
          if (f_new <= f_x + opt.armijo_alpha * alpha * slope) {
            accepted = true;
            break;
          }
        }
        alpha *= opt.armijo_beta;
      }
      if (!accepted) break;  // numerically stuck on this centering; advance t
      x.swap(x_new);
      r.swap(r_new);
      // The rounding floor: a step that no longer lowers t f + phi moved
      // x by evaluation noise, so this centering is as good as it gets.
      const bool lowered = f_new < f_x;
      f_x = f_new;
      if (!lowered) break;
    }

    out.gap_bound = static_cast<double>(m) / t;
    if (out.gap_bound < opt.gap_tolerance) break;
    t *= opt.mu;
  }

  out.x = std::move(x);
  out.objective = objective.value(out.x);
  if (out.gap_bound >= opt.gap_tolerance * 10.0 && m > 0) {
    out.status = common::Status::not_converged("barrier: gap bound " +
                                               std::to_string(out.gap_bound));
  }
  return out;
}

}  // namespace easched::opt
