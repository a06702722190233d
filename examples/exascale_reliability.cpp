// Exascale reliability: a wide layered workload on many processors where
// reliability cannot be neglected (the paper's petascale/exascale
// motivation). Solves TRI-CRIT with the BEST-OF heuristic, then validates
// the schedule with Monte-Carlo fault injection.

#include <iostream>

#include "common/table.hpp"
#include "engine/engine.hpp"
#include "core/problem.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"
#include "sim/fault_sim.hpp"

int main() {
  using namespace easched;

  // One engine per process: solver registry, shared cache and worker
  // pool in a single owned context (the public API surface).
  auto created = engine::Engine::create();
  if (!created.is_ok()) {
    std::cerr << "engine creation failed: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();

  common::Rng rng(2026);
  // 6 layers x 8-wide layered DAG: a bulk-synchronous-style workload.
  auto dag = graph::make_layered(6, 8, 0.3, {2.0, 8.0}, rng);
  const auto mapping = sched::list_schedule(dag, 8, sched::PriorityPolicy::kCriticalPath);

  const auto speeds = model::SpeedModel::continuous(0.2, 1.0);
  // Aggressive fault environment so the effect is visible in simulation.
  const model::ReliabilityModel rel(5e-4, 3.0, 0.2, 1.0, 0.8);

  // Deadline: 2.2x the critical path at fmax, divided by frel headroom.
  std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) d[static_cast<std::size_t>(t)] = dag.weight(t);
  const double fmax_ms =
      graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan;
  const double deadline = fmax_ms / rel.frel() * 2.2;

  core::Problem problem(dag, mapping, speeds, rel, deadline);
  auto best = eng.solve(problem, "best-of");
  if (!best.is_ok()) {
    std::cerr << "solve failed: " << best.status().to_string() << "\n";
    return 1;
  }
  std::cout << "tasks: " << dag.num_tasks() << ", processors: " << mapping.num_processors()
            << ", deadline: " << deadline << "\n"
            << "solver: " << best.value().solver << ", energy: " << best.value().energy
            << ", re-executed tasks: " << best.value().re_executed << "/"
            << dag.num_tasks() << "\n"
            << "validator: " << problem.check(best.value().schedule).to_string() << "\n\n";

  // Compare against the no-re-execution baseline (all singles at >= frel).
  core::Problem baseline(dag, mapping, model::SpeedModel::continuous(0.8, 1.0),
                         deadline);
  auto base = eng.solve(baseline, "continuous-ipm");
  if (base.is_ok()) {
    std::cout << "baseline (no re-execution, speeds >= frel): energy "
              << base.value().energy << "\n"
              << "re-execution saves "
              << common::format_pct(1.0 - best.value().energy / base.value().energy)
              << " energy at the same deadline and reliability.\n\n";
  }

  // Monte-Carlo fault injection: does the schedule deliver its promise?
  sim::SimOptions opt;
  opt.trials = 50000;
  const auto report = sim::simulate(dag, best.value().schedule, rel, opt);
  common::Table table({"metric", "value"});
  table.add_row({"application success rate",
                 common::format_pct(report.app_success.estimate(), 3)});
  table.add_row({"worst-case energy (charged)", common::format_g(report.worst_case_energy)});
  table.add_row({"actual energy (mean)", common::format_g(report.actual_energy.mean())});
  table.add_row({"actual / worst-case",
                 common::format_pct(report.actual_energy.mean() / report.worst_case_energy)});
  // Tasks at their constraint boundary sit exactly ON the threshold, so an
  // exact CI comparison would flag ~2.5% of them by chance; use a margin
  // well above the Monte-Carlo noise floor.
  int below = 0;
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    const double threshold = 1.0 - rel.threshold_failure(dag.weight(t));
    if (report.per_task[static_cast<std::size_t>(t)].success.wilson95().second <
        threshold - 2e-3) {
      ++below;
    }
  }
  table.add_row({"tasks measurably below R_i(frel)", common::format_int(below)});
  table.print(std::cout);
  return 0;
}
