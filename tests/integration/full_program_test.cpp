// Tolerance gate for the continuous speed program: solve_continuous
// (BI-CRIT) and continuous_with_modes (the TRI-CRIT polish) must reach
// the optimum of the program as the augmented graph spells it — one
// precedence row per augmented-graph edge, and s + d <= D, s >= 0,
// d <= ub, d >= lb for every task — solved here with opt::minimize_barrier
// from a start point of the test's own. Whatever rows the library emits,
// the optimum is the spelled program's, to 1e-9 relative.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bicrit/continuous_dag.hpp"
#include "common/rng.hpp"
#include "core/corpus.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "opt/barrier.hpp"
#include "sched/list_scheduler.hpp"
#include "tricrit/heuristics.hpp"

namespace easched {
namespace {

using graph::TaskId;
using model::SpeedModel;

const SpeedModel kSpeeds = SpeedModel::continuous(0.2, 1.0);
const model::ReliabilityModel kRel(1e-5, 3.0, 0.2, 1.0, 0.8);
constexpr double kRelTolerance = 1e-9;

struct Program {
  std::vector<double> coef, lb, ub;
};

/// The optimum of the spelled program, or nullopt when it is not an
/// interior case (all-lb misses D, or all-ub already meets it).
std::optional<double> spelled_optimum(const graph::Dag& aug, const Program& p, double deadline) {
  const int n = aug.num_tasks();
  const auto un = static_cast<std::size_t>(n);
  const auto lower = graph::time_analysis(aug, p.lb, 0.0);
  const auto upper = graph::time_analysis(aug, p.ub, 0.0);
  if (lower.makespan >= deadline || upper.makespan <= deadline) return std::nullopt;

  opt::InversePowerObjective objective;
  for (TaskId t = 0; t < n; ++t) objective.add_term(n + t, p.coef[static_cast<std::size_t>(t)]);
  std::vector<opt::LinearConstraint> cons;
  for (TaskId u = 0; u < n; ++u) {
    for (TaskId v : aug.successors(u)) {
      cons.push_back(opt::LinearConstraint{{{u, 1.0}, {n + u, 1.0}, {v, -1.0}}, 0.0});
    }
  }
  for (TaskId t = 0; t < n; ++t) {
    const auto i = static_cast<std::size_t>(t);
    cons.push_back(opt::LinearConstraint{{{t, 1.0}, {n + t, 1.0}}, deadline});
    cons.push_back(opt::LinearConstraint{{{t, -1.0}}, 0.0});
    cons.push_back(opt::LinearConstraint{{{n + t, 1.0}}, p.ub[i]});
    cons.push_back(opt::LinearConstraint{{{n + t, -1.0}}, -p.lb[i]});
  }

  // Start: lb stretched towards the midpoint between the all-lb makespan
  // and D, capped halfway to ub; start times spread the slack by depth.
  const double stretch = 0.5 * (lower.makespan + deadline) / lower.makespan;
  std::vector<double> d0(un);
  for (std::size_t i = 0; i < un; ++i) {
    d0[i] = std::min(p.lb[i] * stretch, 0.5 * (p.lb[i] + p.ub[i]));
  }
  const auto ta = graph::time_analysis(aug, d0, deadline);
  const auto depth = graph::depth_levels(aug);
  const int max_depth = *std::max_element(depth.begin(), depth.end());
  opt::Vector x0(2 * un);
  for (std::size_t i = 0; i < un; ++i) {
    x0[i] = ta.asap[i] + (deadline - ta.makespan) * (depth[i] + 1.0) / (max_depth + 2.0);
    x0[un + i] = d0[i];
  }
  const auto res = opt::minimize_barrier(objective, cons, x0);
  EXPECT_TRUE(res.status.is_ok()) << res.status.to_string();
  return res.objective;
}

Program bicrit_program(const graph::Dag& dag) {
  Program p;
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    const double w = dag.weight(t);
    p.coef.push_back(w * w * w);
    p.lb.push_back(w / kSpeeds.fmax());
    p.ub.push_back(w / kSpeeds.fmin());
  }
  return p;
}

/// The polish's program: a re-executed task has effective weight 2w and
/// speed floor f_inf, a single one weight w and floor frel.
Program mode_program(const graph::Dag& dag, const std::vector<bool>& re_exec) {
  Program p;
  for (TaskId t = 0; t < dag.num_tasks(); ++t) {
    const double w = dag.weight(t);
    const bool twice = re_exec[static_cast<std::size_t>(t)];
    const double eff = twice ? 2.0 * w : w;
    const double floor_speed =
        std::max(twice ? kRel.f_inf(w).value() : kRel.frel(), kSpeeds.fmin());
    const double lb = eff / kSpeeds.fmax();
    double ub = eff / floor_speed;
    if (ub <= lb * (1.0 + 1e-9)) ub = lb * (1.0 + 1e-7);
    p.coef.push_back(eff * eff * eff);
    p.lb.push_back(lb);
    p.ub.push_back(ub);
  }
  return p;
}

double fmax_makespan(const graph::Dag& aug) {
  std::vector<double> d(static_cast<std::size_t>(aug.num_tasks()));
  for (TaskId t = 0; t < aug.num_tasks(); ++t) {
    d[static_cast<std::size_t>(t)] = aug.weight(t) / kSpeeds.fmax();
  }
  return graph::time_analysis(aug, d, 0.0).makespan;
}

/// Compares both solvers with the spelled program on one instance at one
/// deadline; returns how many interior programs were compared.
int compare_on(const graph::Dag& dag, const sched::Mapping& mapping, double deadline,
               const std::string& label) {
  const graph::Dag aug = mapping.augmented_graph(dag);
  int compared = 0;
  if (const auto full = spelled_optimum(aug, bicrit_program(dag), deadline)) {
    auto r = bicrit::solve_continuous(dag, mapping, deadline, kSpeeds);
    EXPECT_TRUE(r.is_ok()) << label << ": " << r.status().to_string();
    if (r.is_ok()) {
      EXPECT_NEAR(r.value().energy / *full, 1.0, kRelTolerance) << label << " bi-crit";
      ++compared;
    }
  }
  const int n = dag.num_tasks();
  for (int every : {1, 2, 3, 5}) {
    std::vector<bool> re_exec(static_cast<std::size_t>(n), false);
    for (TaskId t = 0; t < n; t += every) re_exec[static_cast<std::size_t>(t)] = true;
    const auto full = spelled_optimum(aug, mode_program(dag, re_exec), deadline);
    if (!full) continue;
    auto r = tricrit::continuous_with_modes(dag, mapping, deadline, kRel, kSpeeds, re_exec);
    EXPECT_TRUE(r.is_ok()) << label << ": " << r.status().to_string();
    if (r.is_ok()) {
      EXPECT_NEAR(r.value().energy / *full, 1.0, kRelTolerance)
          << label << " tri-crit, every " << every << " re-executed";
      ++compared;
    }
  }
  return compared;
}

// The serving benchmark's problems: standard-corpus families mapped on 3
// processors, speeds in [0.2, 1].
TEST(FullProgram, CorpusAt24And32TasksMatchesTheSpelledProgram) {
  int compared = 0;
  for (int tasks : {24, 32}) {
    common::Rng rng(static_cast<std::uint64_t>(tasks));
    core::CorpusOptions corpus;
    corpus.tasks = tasks;
    corpus.processors = 3;
    corpus.instances_per_family = 1;
    for (const auto& inst : core::standard_corpus(rng, corpus)) {
      for (double slack : {1.5, 3.0}) {
        const double D = core::deadline_with_slack(inst, kSpeeds.fmax(), slack);
        compared += compare_on(inst.dag, inst.mapping, D,
                               inst.name + " n=" + std::to_string(tasks) +
                                   " x" + std::to_string(slack));
      }
    }
  }
  EXPECT_GE(compared, 100);
}

TEST(FullProgram, RandomDagsAt64And128TasksMatchTheSpelledProgram) {
  int compared = 0;
  for (int tasks : {64, 128}) {
    common::Rng rng(static_cast<std::uint64_t>(1000 + tasks));
    const auto dag = graph::make_random_dag(tasks, 0.15, {1.0, 5.0}, rng);
    const auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
    const double m = fmax_makespan(mapping.augmented_graph(dag));
    for (double slack : {1.5, 3.0}) {
      compared += compare_on(dag, mapping, slack * m,
                             "random n=" + std::to_string(tasks) + " x" + std::to_string(slack));
    }
  }
  EXPECT_GE(compared, 14);
}

}  // namespace
}  // namespace easched
