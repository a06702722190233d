#include "bicrit/continuous_dag.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "graph/analysis.hpp"

namespace easched::bicrit {

using graph::Dag;
using graph::TaskId;
using opt::LinearConstraint;
using sched::Schedule;
using sched::TaskDecision;

common::Result<DurationSolution> solve_durations(const Dag& aug, const DurationProgram& program,
                                                 double deadline,
                                                 const std::vector<double>& hint,
                                                 const ColdStart& cold_start,
                                                 const opt::BarrierOptions& barrier) {
  const int n = aug.num_tasks();
  const auto un = static_cast<std::size_t>(n);
  EASCHED_CHECK(program.coef.size() == un && program.lb.size() == un &&
                program.ub.size() == un);
  // Its topological sort is the acyclicity check of the augmented graph.
  auto reduced_res = graph::transitive_reduction(aug);
  if (!reduced_res.is_ok()) return sched::Mapping::orders_contradict_precedence();
  const Dag& reduced = reduced_res.value();

  // ---- Boundary cases, by longest paths over the bounds. ------------------
  auto lower = graph::time_analysis(aug, program.lb, 0.0);
  if (lower.makespan > deadline * (1.0 + 1e-9)) {
    return common::Status::infeasible("even all-fmax misses the deadline (makespan " +
                                      std::to_string(lower.makespan) + " > " +
                                      std::to_string(deadline) + ")");
  }
  auto upper = graph::time_analysis(aug, program.ub, 0.0);
  if (upper.makespan <= deadline) {
    // Every task at its longest duration fits, hence is optimal.
    return DurationSolution{DurationRegime::kAllUpper, program.ub, std::move(upper.asap)};
  }
  if (lower.makespan > deadline * (1.0 - 1e-9)) {
    // The feasible set has (numerically) empty interior: all-lb ASAP.
    return DurationSolution{DurationRegime::kAllLower, program.lb, std::move(lower.asap)};
  }

  // ---- The convex program over x = [s_0..s_{n-1}, d_0..d_{n-1}], with
  //      only the rows the others do not imply (see the header). ---------
  opt::InversePowerObjective objective;
  for (TaskId t = 0; t < n; ++t) {
    objective.add_term(n + t, program.coef[static_cast<std::size_t>(t)]);
  }
  std::vector<LinearConstraint> cons;
  cons.reserve(static_cast<std::size_t>(reduced.num_edges() + 4 * n));
  for (TaskId u = 0; u < n; ++u) {
    for (TaskId v : reduced.successors(u)) {
      // s_u + d_u - s_v <= 0
      cons.push_back(LinearConstraint{{{u, 1.0}, {n + u, 1.0}, {v, -1.0}}, 0.0});
    }
  }
  for (TaskId t = 0; t < n; ++t) {
    const auto i = static_cast<std::size_t>(t);
    if (aug.out_degree(t) == 0) {
      cons.push_back(LinearConstraint{{{t, 1.0}, {n + t, 1.0}}, deadline});  // s+d <= D
    }
    if (aug.in_degree(t) == 0) cons.push_back(LinearConstraint{{{t, -1.0}}, 0.0});  // s >= 0
    cons.push_back(LinearConstraint{{{n + t, 1.0}}, program.ub[i]});                // d <= ub
    cons.push_back(LinearConstraint{{{n + t, -1.0}}, -program.lb[i]});              // d >= lb
  }
  // The barrier stops once m/t < gap_tolerance. Scaled by m over the
  // spelled row count (one per aug edge, four per task), the tolerance
  // stops at the t the spelled program stops at; m/t is then a tighter
  // bound that still holds.
  opt::BarrierOptions stop = barrier;
  stop.gap_tolerance *=
      static_cast<double>(cons.size()) / static_cast<double>(aug.num_edges() + 4 * n);

  // ---- Strictly feasible start: the hint (clamped strictly inside the
  //      bounds) when it keeps slack, else the caller's cold start. Slack
  //      is spread by depth either way. ----------------------------------
  std::vector<double> d0;
  std::optional<graph::TimeAnalysis> warm_ta;
  if (hint.size() == un) {
    d0.resize(un);
    for (std::size_t i = 0; i < un; ++i) {
      // Converged warm starts often sit exactly on a bound, where the
      // barrier is undefined.
      d0[i] = std::clamp(hint[i], program.lb[i] * (1.0 + 1e-9), program.ub[i] * (1.0 - 1e-9));
    }
    warm_ta = graph::time_analysis(aug, d0, deadline);
    if (warm_ta->makespan >= deadline) {
      d0.clear();  // hint lost its slack under the new deadline: cold start
      warm_ta.reset();
    }
  }
  if (d0.empty()) d0 = cold_start(lower.makespan);
  const auto ta = warm_ta ? std::move(*warm_ta) : graph::time_analysis(aug, d0, deadline);
  const auto depth = graph::depth_levels(aug);
  const int max_depth = *std::max_element(depth.begin(), depth.end());
  const double slack = deadline - ta.makespan;
  EASCHED_CHECK_MSG(slack > 0.0, "internal: start point has no slack");
  opt::Vector x0(2 * un);
  for (std::size_t i = 0; i < un; ++i) {
    const double frac = static_cast<double>(depth[i] + 1) / static_cast<double>(max_depth + 2);
    x0[i] = ta.asap[i] + slack * frac;
    x0[un + i] = d0[i];
  }

  auto res = opt::minimize_barrier(objective, cons, x0, stop);
  if (!res.status.is_ok() && res.x.empty()) return res.status;
  return DurationSolution{DurationRegime::kBarrier,
                          std::vector<double>(res.x.begin() + n, res.x.end()),
                          std::vector<double>(res.x.begin(), res.x.begin() + n),
                          res.gap_bound,
                          res.newton_steps,
                          std::move(res.status)};
}

common::Result<ContinuousSolution> solve_continuous(const Dag& dag,
                                                    const sched::Mapping& mapping,
                                                    double deadline,
                                                    const model::SpeedModel& speeds,
                                                    const ContinuousOptions& options) {
  if (speeds.kind() != model::SpeedModelKind::kContinuous) {
    return common::Status::unsupported("solve_continuous needs the CONTINUOUS model");
  }
  EASCHED_CHECK(deadline > 0.0);
  // solve_durations checks the augmented graph for cycles.
  if (auto st = mapping.validate_assignment(dag); !st.is_ok()) return st;
  const int n = dag.num_tasks();
  if (n == 0) return common::Status::invalid("empty graph");
  for (TaskId t = 0; t < n; ++t) {
    if (dag.weight(t) <= 0.0) {
      return common::Status::unsupported("solve_continuous requires positive task weights");
    }
  }

  const Dag aug = mapping.augmented_graph(dag);
  const double fmin = speeds.fmin();
  const double fmax = speeds.fmax();
  DurationProgram program;
  for (TaskId t = 0; t < n; ++t) {
    const double w = dag.weight(t);
    program.coef.push_back(w * w * w);
    program.lb.push_back(w / fmax);
    program.ub.push_back(w / fmin);
  }
  // Cold start: one uniform speed halfway between the critical speed
  // M1/D (M1 the unit-speed makespan) and fmax.
  const ColdStart uniform_speed = [&](double) {
    std::vector<double> d(static_cast<std::size_t>(n));
    for (TaskId t = 0; t < n; ++t) d[static_cast<std::size_t>(t)] = dag.weight(t);
    const double f_start = 0.5 * (graph::time_analysis(aug, d, 0.0).makespan / deadline + fmax);
    for (double& x : d) x /= f_start;
    return d;
  };
  auto res = solve_durations(aug, program, deadline, options.start_durations, uniform_speed,
                             options.barrier);
  if (!res.is_ok()) return res.status();
  DurationSolution& ds = res.value();
  // A barrier that stopped early is surfaced, not answered.
  if (!ds.barrier_status.is_ok()) return ds.barrier_status;

  ContinuousSolution sol{Schedule(n), 0.0, std::move(ds.durations), std::move(ds.start_times),
                         ds.gap_bound, ds.newton_steps};
  for (TaskId t = 0; t < n; ++t) {
    const double w = dag.weight(t);
    const double f = ds.regime == DurationRegime::kAllUpper   ? fmin
                     : ds.regime == DurationRegime::kAllLower ? fmax
                     : std::clamp(w / sol.durations[static_cast<std::size_t>(t)], fmin, fmax);
    sol.schedule.at(t) = TaskDecision::single(f);
    sol.energy += model::execution_energy(w, f);
  }
  return sol;
}

}  // namespace easched::bicrit
