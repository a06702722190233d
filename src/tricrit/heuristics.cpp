#include "tricrit/heuristics.hpp"

#include <algorithm>

#include "bicrit/continuous_dag.hpp"
#include "graph/analysis.hpp"

namespace easched::tricrit {

namespace {

using graph::Dag;
using graph::TaskId;

/// The continuous program of a fixed mode set: a re-executed task is one
/// of effective weight 2w with speed floor f_inf, a single one has weight
/// w and floor frel (both floors at least fmin).
struct ModeProgram {
  bicrit::DurationProgram program;  ///< c = eff^3 on [eff/fmax, eff/floor]
  std::vector<double> floor_speed;
};

common::Result<ModeProgram> mode_program(const Dag& dag, const model::ReliabilityModel& rel,
                                         const model::SpeedModel& speeds,
                                         const std::vector<bool>& re_exec) {
  ModeProgram out;
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    const double w = dag.weight(t);
    double floor_speed = std::max(rel.frel(), speeds.fmin());
    double eff = w;
    if (re_exec[static_cast<std::size_t>(t)]) {
      auto finf = rel.f_inf(w);
      if (!finf.is_ok()) return finf.status();
      floor_speed = std::max(finf.value(), speeds.fmin());
      eff = 2.0 * w;
    }
    const double lb = eff / speeds.fmax();
    double ub = eff / floor_speed;
    // Keep a sliver of interior even when frel == fmax pins the speed.
    if (ub <= lb * (1.0 + 1e-9)) ub = lb * (1.0 + 1e-7);
    out.program.coef.push_back(eff * eff * eff);
    out.program.lb.push_back(lb);
    out.program.ub.push_back(ub);
    out.floor_speed.push_back(floor_speed);
  }
  return out;
}

TriCritSolution solution_from_durations(const Dag& dag, const model::SpeedModel& speeds,
                                        const ModeProgram& modes,
                                        const std::vector<bool>& re_exec,
                                        const std::vector<double>& durations) {
  TriCritSolution sol(dag.num_tasks());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    const auto i = static_cast<std::size_t>(t);
    const double w = dag.weight(t);
    const double runs = re_exec[i] ? 2.0 : 1.0;
    const double speed =
        std::clamp(runs * w / durations[i], modes.floor_speed[i], speeds.fmax());
    apply_choice(sol, t,
                 ExecChoice{re_exec[i], speed, runs * model::execution_energy(w, speed),
                            runs * w / speed});
  }
  return sol;
}

}  // namespace

common::Result<TriCritSolution> continuous_with_modes(const Dag& dag,
                                                      const sched::Mapping& mapping,
                                                      double deadline,
                                                      const model::ReliabilityModel& rel,
                                                      const model::SpeedModel& speeds,
                                                      const std::vector<bool>& re_exec) {
  if (speeds.kind() != model::SpeedModelKind::kContinuous) {
    return common::Status::unsupported("continuous_with_modes needs the CONTINUOUS model");
  }
  const int n = dag.num_tasks();
  EASCHED_CHECK(static_cast<int>(re_exec.size()) == n);
  EASCHED_CHECK(deadline > 0.0);
  for (TaskId t = 0; t < n; ++t) {
    if (dag.weight(t) <= 0.0) {
      return common::Status::unsupported("continuous_with_modes requires positive weights");
    }
  }
  auto modes_res = mode_program(dag, rel, speeds, re_exec);
  if (!modes_res.is_ok()) return modes_res.status();
  const ModeProgram& modes = modes_res.value();
  const auto& lb = modes.program.lb;
  const auto& ub = modes.program.ub;

  const Dag aug = mapping.augmented_graph(dag);
  // Cold start: durations lb + theta (ub - lb), theta bisected so the
  // makespan sits halfway between the all-lb makespan and the deadline.
  const bicrit::ColdStart interpolate = [&](double m_lb) {
    const double target = m_lb + 0.5 * (deadline - m_lb);
    auto durations_at = [&](double theta) {
      std::vector<double> d(lb.size());
      for (std::size_t i = 0; i < d.size(); ++i) d[i] = lb[i] + theta * (ub[i] - lb[i]);
      return d;
    };
    auto makespan_at = [&](double theta) {
      return graph::time_analysis(aug, durations_at(theta), 0.0).makespan;
    };
    double theta_lo = 1e-9, theta_hi = 1.0 - 1e-9;
    if (makespan_at(theta_hi) > target) {
      for (int it = 0; it < 100; ++it) {
        const double mid = 0.5 * (theta_lo + theta_hi);
        if (makespan_at(mid) <= target) {
          theta_lo = mid;
        } else {
          theta_hi = mid;
        }
      }
    } else {
      theta_lo = theta_hi;
    }
    return durations_at(theta_lo);
  };
  // The polish keeps an iterate even when the barrier stopped early.
  auto res = bicrit::solve_durations(aug, modes.program, deadline, {}, interpolate, {});
  if (!res.is_ok()) return res.status();
  return solution_from_durations(dag, speeds, modes, re_exec, res.value().durations);
}

common::Result<TriCritSolution> heuristic_uniform_reexec(const Dag& dag,
                                                         const sched::Mapping& mapping,
                                                         double deadline,
                                                         const model::ReliabilityModel& rel,
                                                         const model::SpeedModel& speeds,
                                                         const HeuristicOptions& options) {
  const int n = dag.num_tasks();
  if (auto st = mapping.validate(dag); !st.is_ok()) return st;
  const Dag aug = mapping.augmented_graph(dag);

  // Uniform slowdown: allocate t_i = w_i * D / M1 (unit-speed makespan M1).
  std::vector<double> unit(static_cast<std::size_t>(n));
  for (TaskId t = 0; t < n; ++t) unit[static_cast<std::size_t>(t)] = dag.weight(t);
  const double m1 = graph::time_analysis(aug, unit, 0.0).makespan;
  if (m1 / speeds.fmax() > deadline * (1.0 + 1e-9)) {
    return common::Status::infeasible("even all-fmax misses the deadline");
  }
  const double scale = deadline / m1;

  TriCritSolution sol(n);
  std::vector<bool> modes(static_cast<std::size_t>(n), false);
  for (TaskId t = 0; t < n; ++t) {
    const double budget = dag.weight(t) * scale;
    auto choice = best_choice(dag.weight(t), budget, rel, speeds);
    if (!choice.is_ok()) return choice.status();
    apply_choice(sol, t, choice.value());
    modes[static_cast<std::size_t>(t)] = choice.value().re_executed;
  }

  if (options.polish) {
    auto polished = continuous_with_modes(dag, mapping, deadline, rel, speeds, modes);
    if (polished.is_ok() && polished.value().energy < sol.energy) {
      return polished;
    }
  }
  return sol;
}

common::Result<TriCritSolution> heuristic_slack_reexec(const Dag& dag,
                                                       const sched::Mapping& mapping,
                                                       double deadline,
                                                       const model::ReliabilityModel& rel,
                                                       const model::SpeedModel& speeds,
                                                       const HeuristicOptions& options) {
  const int n = dag.num_tasks();
  if (auto st = mapping.validate(dag); !st.is_ok()) return st;
  const Dag aug = mapping.augmented_graph(dag);

  // Baseline: all-single continuous optimum (floors at frel).
  std::vector<bool> modes(static_cast<std::size_t>(n), false);
  auto base = continuous_with_modes(dag, mapping, deadline, rel, speeds, modes);
  if (!base.is_ok()) return base.status();
  std::vector<double> durations = base.value().schedule.durations(dag);
  std::vector<double> energy_of(static_cast<std::size_t>(n));
  for (TaskId t = 0; t < n; ++t) {
    energy_of[static_cast<std::size_t>(t)] = 0.0;
    for (const auto& e : base.value().schedule.at(t).executions) {
      energy_of[static_cast<std::size_t>(t)] += e.energy(dag.weight(t));
    }
  }

  // Walk tasks by decreasing slack; re-execute when the available window
  // pays for the second execution.
  for (;;) {
    const auto ta = graph::time_analysis(aug, durations, deadline);
    // Rank not-yet-re-executed tasks by current slack.
    std::vector<TaskId> order;
    order.reserve(static_cast<std::size_t>(n));
    for (TaskId t = 0; t < n; ++t) {
      if (!modes[static_cast<std::size_t>(t)]) order.push_back(t);
    }
    std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
      return ta.slack[static_cast<std::size_t>(a)] > ta.slack[static_cast<std::size_t>(b)];
    });
    bool changed = false;
    for (TaskId t : order) {
      const double budget = durations[static_cast<std::size_t>(t)] +
                            std::max(0.0, ta.slack[static_cast<std::size_t>(t)]);
      auto dbl = best_double(dag.weight(t), budget, rel, speeds);
      if (!dbl.is_ok()) continue;
      if (dbl.value().energy < energy_of[static_cast<std::size_t>(t)] - 1e-12) {
        modes[static_cast<std::size_t>(t)] = true;
        durations[static_cast<std::size_t>(t)] = dbl.value().time_used;
        energy_of[static_cast<std::size_t>(t)] = dbl.value().energy;
        changed = true;
        break;  // slacks changed; recompute the ranking
      }
    }
    if (!changed) break;
  }

  // Assemble the unpolished schedule.
  TriCritSolution sol(n);
  for (TaskId t = 0; t < n; ++t) {
    const double w = dag.weight(t);
    if (modes[static_cast<std::size_t>(t)]) {
      const double g = 2.0 * w / durations[static_cast<std::size_t>(t)];
      apply_choice(sol, t, ExecChoice{true, g, 2.0 * model::execution_energy(w, g),
                                      durations[static_cast<std::size_t>(t)]});
    } else {
      const double f = w / durations[static_cast<std::size_t>(t)];
      apply_choice(sol, t, ExecChoice{false, f, model::execution_energy(w, f),
                                      durations[static_cast<std::size_t>(t)]});
    }
  }

  if (options.polish) {
    auto polished = continuous_with_modes(dag, mapping, deadline, rel, speeds, modes);
    if (polished.is_ok() && polished.value().energy < sol.energy) {
      return polished;
    }
  }
  return sol;
}

common::Result<TriCritSolution> heuristic_greedy_reexec(const Dag& dag,
                                                        const sched::Mapping& mapping,
                                                        double deadline,
                                                        const model::ReliabilityModel& rel,
                                                        const model::SpeedModel& speeds) {
  const int n = dag.num_tasks();
  if (auto st = mapping.validate(dag); !st.is_ok()) return st;

  std::vector<bool> modes(static_cast<std::size_t>(n), false);
  auto current = continuous_with_modes(dag, mapping, deadline, rel, speeds, modes);
  if (!current.is_ok()) return current.status();

  for (;;) {
    int best_task = -1;
    common::Result<TriCritSolution> best = common::Status::internal("unset");
    for (TaskId t = 0; t < n; ++t) {
      if (modes[static_cast<std::size_t>(t)]) continue;
      modes[static_cast<std::size_t>(t)] = true;
      auto candidate = continuous_with_modes(dag, mapping, deadline, rel, speeds, modes);
      modes[static_cast<std::size_t>(t)] = false;
      if (!candidate.is_ok()) continue;
      const double incumbent =
          best_task >= 0 ? best.value().energy : current.value().energy;
      if (candidate.value().energy < incumbent - 1e-12) {
        best_task = t;
        best = std::move(candidate);
      }
    }
    if (best_task < 0) break;
    modes[static_cast<std::size_t>(best_task)] = true;
    current = std::move(best);
  }
  return current;
}

common::Result<TriCritSolution> heuristic_best_of(const Dag& dag,
                                                  const sched::Mapping& mapping,
                                                  double deadline,
                                                  const model::ReliabilityModel& rel,
                                                  const model::SpeedModel& speeds,
                                                  const HeuristicOptions& options) {
  auto a = heuristic_uniform_reexec(dag, mapping, deadline, rel, speeds, options);
  auto b = heuristic_slack_reexec(dag, mapping, deadline, rel, speeds, options);
  if (!a.is_ok() && !b.is_ok()) return a.status();
  if (!a.is_ok()) return b;
  if (!b.is_ok()) return a;
  return a.value().energy <= b.value().energy ? a : b;
}

}  // namespace easched::tricrit
