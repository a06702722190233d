#include "opt/barrier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "linalg/factor.hpp"

namespace easched::opt {
namespace {

/// A seeded program with a strictly feasible point: `terms` inverse-power
/// terms and `linear` linear ones on `vars` variables, random sparse rows
/// of 1–3 terms, and a box row per variable so the constraint Hessian
/// alone is definite.
struct RandomProgram {
  InversePowerObjective objective;
  std::vector<LinearConstraint> constraints;
  Vector x;
};

RandomProgram random_program(std::uint64_t seed, int vars, int terms, int rows) {
  common::Rng rng(seed);
  RandomProgram p;
  p.x.resize(static_cast<std::size_t>(vars));
  for (double& xi : p.x) xi = rng.uniform(0.5, 3.0);
  for (int k = 0; k < terms; ++k) {
    p.objective.add_term(static_cast<int>(rng.below(static_cast<std::uint64_t>(vars))),
                         rng.uniform(0.5, 5.0));
  }
  for (int j = 0; j < vars; ++j) p.objective.add_linear(j, rng.uniform(-1.0, 1.0));
  const auto add_row = [&p, &rng](std::vector<std::pair<int, double>> row) {
    double ax = 0.0;
    for (const auto& [j, c] : row) ax += c * p.x[static_cast<std::size_t>(j)];
    p.constraints.push_back({std::move(row), ax + rng.uniform(0.05, 1.0)});
  };
  for (int k = 0; k < rows; ++k) {
    std::vector<std::pair<int, double>> row;
    const auto width = 1 + static_cast<int>(rng.below(3));
    for (int w = 0; w < width; ++w) {
      row.emplace_back(static_cast<int>(rng.below(static_cast<std::uint64_t>(vars))),
                       rng.uniform(-2.0, 2.0));
    }
    add_row(std::move(row));
  }
  for (int j = 0; j < vars; ++j) add_row({{j, 1.0}});
  return p;
}

/// The textbook step: assemble the full Hessian and gradient of
/// t·f + φ densely and solve with linalg::solve_spd.
Vector dense_newton_step(const RandomProgram& p, double t) {
  const std::size_t n = p.x.size();
  Vector g(n, 0.0);
  p.objective.add_gradient(p.x, g);
  for (double& gi : g) gi *= t;
  Vector hd(n, 0.0);
  p.objective.add_hessian_diag(p.x, hd);
  linalg::Matrix h(n, n);
  for (std::size_t j = 0; j < n; ++j) h(j, j) = t * hd[j] + 1e-12;
  for (const auto& row : p.constraints) {
    double r = row.rhs;
    for (const auto& [j, c] : row.terms) r -= c * p.x[static_cast<std::size_t>(j)];
    for (const auto& [j1, c1] : row.terms) {
      g[static_cast<std::size_t>(j1)] += c1 / r;
      for (const auto& [j2, c2] : row.terms) {
        h(static_cast<std::size_t>(j1), static_cast<std::size_t>(j2)) += c1 * c2 / (r * r);
      }
    }
  }
  auto dx = linalg::solve_spd(h, g);
  EXPECT_TRUE(dx.is_ok());
  return dx.is_ok() ? dx.value() : Vector(n, 0.0);
}

/// max |a - b| / max |b|.
double relative_error(const Vector& a, const Vector& b) {
  double err = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    err = std::max(err, std::fabs(a[i] - b[i]));
    scale = std::max(scale, std::fabs(b[i]));
  }
  return err / scale;
}

Vector schur_newton_step(const RandomProgram& p, double t, std::size_t* eliminated) {
  Vector r;
  for (const auto& row : p.constraints) {
    double ri = row.rhs;
    for (const auto& [j, c] : row.terms) ri -= c * p.x[static_cast<std::size_t>(j)];
    r.push_back(ri);
  }
  NewtonSystem newton(p.objective, p.constraints, p.x.size());
  *eliminated = newton.num_eliminated();
  Vector g, dx;
  EXPECT_TRUE(newton.solve(p.x, r, t, g, dx).is_ok());
  return dx;
}

TEST(NewtonSystem, SchurStepMatchesDenseSolveOnRandomPrograms) {
  std::size_t eliminated_total = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomProgram p = random_program(seed, 12, 9, 14);
    for (double t : {1.0, 37.0, 2e3}) {
      std::size_t eliminated = 0;
      const Vector schur = schur_newton_step(p, t, &eliminated);
      EXPECT_LE(relative_error(schur, dense_newton_step(p, t)), 1e-10)
          << "seed " << seed << " t " << t;
      eliminated_total += eliminated;
    }
  }
  EXPECT_GT(eliminated_total, 0u);  // the block was exercised, not only empty
}

TEST(NewtonSystem, NoEliminableVariableRunsTheSameCodeWithAnEmptyBlock) {
  // Only linear objective terms: no variable carries the curvature the
  // eliminated block needs, so the Schur complement is the whole Hessian.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const RandomProgram p = random_program(100 + seed, 8, 0, 10);
    std::size_t eliminated = 1;
    const Vector schur = schur_newton_step(p, 5.0, &eliminated);
    EXPECT_EQ(eliminated, 0u);
    EXPECT_LE(relative_error(schur, dense_newton_step(p, 5.0)), 1e-10) << "seed " << seed;
  }
}

TEST(NewtonSystem, EliminatesEveryDurationOfAScheduleProgram) {
  // The BI-CRIT layout x = [s, d]: a chain's precedence rows, deadline
  // rows and speed bounds each touch one task's duration at most.
  const int n = 5;
  RandomProgram p;
  p.x.resize(2 * n);
  for (int i = 0; i < n; ++i) {
    p.objective.add_term(n + i, 1.0 + i);
    p.x[static_cast<std::size_t>(i)] = 0.1 + 1.1 * i;
    p.x[static_cast<std::size_t>(n + i)] = 1.0;
  }
  for (int i = 0; i + 1 < n; ++i) {
    p.constraints.push_back({{{i, 1.0}, {n + i, 1.0}, {i + 1, -1.0}}, 0.0});
  }
  for (int i = 0; i < n; ++i) {
    p.constraints.push_back({{{i, 1.0}, {n + i, 1.0}}, 8.0});
    p.constraints.push_back({{{i, -1.0}}, 0.0});
    p.constraints.push_back({{{n + i, 1.0}}, 4.0});
    p.constraints.push_back({{{n + i, -1.0}}, -0.25});
  }
  std::size_t eliminated = 0;
  const Vector schur = schur_newton_step(p, 50.0, &eliminated);
  EXPECT_EQ(eliminated, static_cast<std::size_t>(n));
  EXPECT_LE(relative_error(schur, dense_newton_step(p, 50.0)), 1e-10);
}

TEST(InversePowerObjective, ValueGradientHessian) {
  InversePowerObjective obj;
  obj.add_term(0, 8.0);   // 8/x0^2
  obj.add_linear(1, 3.0); // 3*x1
  const Vector x{2.0, 5.0};
  EXPECT_DOUBLE_EQ(obj.value(x), 2.0 + 15.0);
  Vector g(2, 0.0);
  obj.add_gradient(x, g);
  EXPECT_DOUBLE_EQ(g[0], -2.0 * 8.0 / 8.0);  // -2c/x^3 = -2
  EXPECT_DOUBLE_EQ(g[1], 3.0);
  Vector h(2, 0.0);
  obj.add_hessian_diag(x, h);
  EXPECT_DOUBLE_EQ(h[0], 6.0 * 8.0 / 16.0);  // 6c/x^4 = 3
  EXPECT_DOUBLE_EQ(h[1], 0.0);
}

TEST(Barrier, SingleVariableBudget) {
  // min 1/x^2 s.t. x <= 3 (and objective keeps x > 0): optimum x = 3.
  InversePowerObjective obj;
  obj.add_term(0, 1.0);
  std::vector<LinearConstraint> cons{{{ {0, 1.0} }, 3.0}};
  auto res = minimize_barrier(obj, cons, Vector{1.0});
  ASSERT_TRUE(res.status.is_ok()) << res.status.to_string();
  EXPECT_NEAR(res.x[0], 3.0, 1e-5);
  EXPECT_NEAR(res.objective, 1.0 / 9.0, 1e-7);
}

TEST(Barrier, TwoTaskTimeShareMatchesWaterfillStructure) {
  // min 1/x0^2 + 8/x1^2 s.t. x0 + x1 <= 3: optimal split 1:2.
  InversePowerObjective obj;
  obj.add_term(0, 1.0);
  obj.add_term(1, 8.0);
  std::vector<LinearConstraint> cons{{{ {0, 1.0}, {1, 1.0} }, 3.0}};
  auto res = minimize_barrier(obj, cons, Vector{1.4, 1.4});
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_NEAR(res.x[0], 1.0, 1e-4);
  EXPECT_NEAR(res.x[1], 2.0, 1e-4);
  EXPECT_NEAR(res.objective, 1.0 + 2.0, 1e-5);
}

TEST(Barrier, BoxConstraintsBind) {
  // min 1/x^2 s.t. x <= 5, x <= 2 -> x = 2 (tighter bound wins).
  InversePowerObjective obj;
  obj.add_term(0, 1.0);
  std::vector<LinearConstraint> cons{{{ {0, 1.0} }, 5.0}, {{ {0, 1.0} }, 2.0}};
  auto res = minimize_barrier(obj, cons, Vector{0.5});
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_NEAR(res.x[0], 2.0, 1e-5);
}

TEST(Barrier, RejectsInfeasibleStart) {
  InversePowerObjective obj;
  obj.add_term(0, 1.0);
  std::vector<LinearConstraint> cons{{{ {0, 1.0} }, 1.0}};
  auto res = minimize_barrier(obj, cons, Vector{2.0});  // violates x <= 1
  EXPECT_FALSE(res.status.is_ok());
}

TEST(Barrier, RejectsNonPositiveObjectiveCoordinate) {
  InversePowerObjective obj;
  obj.add_term(0, 1.0);
  std::vector<LinearConstraint> cons{{{ {0, -1.0} }, 5.0}};  // x >= -5 — weak
  auto res = minimize_barrier(obj, cons, Vector{-1.0});
  EXPECT_FALSE(res.status.is_ok());
}

TEST(Barrier, GapCertificateHolds) {
  // Known optimum: min 1/x^2, x <= 4 -> f* = 1/16. Certificate:
  // f(x_final) - f* <= gap_bound.
  InversePowerObjective obj;
  obj.add_term(0, 1.0);
  std::vector<LinearConstraint> cons{{{ {0, 1.0} }, 4.0}};
  auto res = minimize_barrier(obj, cons, Vector{1.0});
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_LE(res.objective - 1.0 / 16.0, res.gap_bound + 1e-12);
}

TEST(Barrier, EqualityLikeThinInterval) {
  // x sandwiched in [1.999999, 2.000001]: still converges to ~2.
  InversePowerObjective obj;
  obj.add_term(0, 1.0);
  std::vector<LinearConstraint> cons{
      {{{0, 1.0}}, 2.000001},
      {{{0, -1.0}}, -1.999999},
  };
  auto res = minimize_barrier(obj, cons, Vector{2.0});
  ASSERT_TRUE(res.status.is_ok());
  EXPECT_NEAR(res.x[0], 2.0, 1e-4);
}

TEST(Barrier, ChainProgramMatchesClosedForm) {
  // 3-task chain as a full (s, d) program: durations d_i, starts s_i.
  // Optimal: uniform speed sum(w)/D -> d_i = w_i * D / sum(w).
  const std::vector<double> w{1.0, 2.0, 3.0};
  const double D = 3.0;
  const int n = 3;
  InversePowerObjective obj;
  for (int i = 0; i < n; ++i) obj.add_term(n + i, w[static_cast<std::size_t>(i)] *
                                                     w[static_cast<std::size_t>(i)] *
                                                     w[static_cast<std::size_t>(i)]);
  std::vector<LinearConstraint> cons;
  // chain edges: s_i + d_i <= s_{i+1}
  for (int i = 0; i + 1 < n; ++i) {
    cons.push_back({{{i, 1.0}, {n + i, 1.0}, {i + 1, -1.0}}, 0.0});
  }
  for (int i = 0; i < n; ++i) {
    cons.push_back({{{i, 1.0}, {n + i, 1.0}}, D});
    cons.push_back({{{i, -1.0}}, 0.0});
  }
  // Strictly feasible start: fast uniform speed 4 (makespan 1.5), spread.
  Vector x0(static_cast<std::size_t>(2 * n));
  double tstart = 0.1;
  for (int i = 0; i < n; ++i) {
    x0[static_cast<std::size_t>(i)] = tstart;
    x0[static_cast<std::size_t>(n + i)] = w[static_cast<std::size_t>(i)] / 4.0;
    tstart += w[static_cast<std::size_t>(i)] / 4.0 + 0.1;
  }
  auto res = minimize_barrier(obj, cons, x0);
  ASSERT_TRUE(res.status.is_ok());
  const double total = 6.0;
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(res.x[static_cast<std::size_t>(n + i)], w[static_cast<std::size_t>(i)] * D / total,
                1e-3)
        << "duration " << i;
  }
  EXPECT_NEAR(res.objective, total * total * total / (D * D), 1e-4);
}

}  // namespace
}  // namespace easched::opt
