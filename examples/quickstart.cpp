// Quickstart: build a small task graph, map it, and minimise the energy of
// its execution under a deadline with the CONTINUOUS speed model.
//
//   $ ./examples/quickstart
//
// Walks through the public API: Dag -> Mapping (list scheduling) ->
// core::Problem -> engine::Engine (the one context owning the solver
// registry, result cache and worker pool) -> validated Schedule. One
// engine per process is the intended shape; it serves synchronous calls
// (engine.solve) and asynchronous jobs (engine.submit) alike.

#include <iostream>

#include "core/problem.hpp"
#include "engine/engine.hpp"
#include "graph/io.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"

int main() {
  using namespace easched;

  // 1. The application: a diamond-shaped task graph (weights = work).
  graph::Dag dag;
  const auto load = dag.add_task(2.0, "load");
  const auto filter = dag.add_task(3.0, "filter");
  const auto fft = dag.add_task(5.0, "fft");
  const auto merge = dag.add_task(1.5, "merge");
  dag.add_edge(load, filter);
  dag.add_edge(load, fft);
  dag.add_edge(filter, merge);
  dag.add_edge(fft, merge);

  std::cout << "Task graph (Graphviz DOT):\n";
  graph::write_dot(dag, std::cout);

  // 2. The platform: 2 identical processors; mapping fixed up front by
  //    critical-path list scheduling (the paper's assumption: allocation
  //    is given, only speeds may change).
  const auto mapping = sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
  for (int p = 0; p < mapping.num_processors(); ++p) {
    std::cout << "processor " << p << ":";
    for (auto t : mapping.order_on(p)) std::cout << " " << dag.name(t);
    std::cout << "\n";
  }

  // 3. The engine: construct once per process from a declarative config.
  //    It owns the solver registry, a shared result cache and a worker
  //    pool — every solve and sweep goes through it.
  auto created = engine::Engine::create();
  if (!created.is_ok()) {
    std::cerr << "engine creation failed: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();

  // 4. BI-CRIT: minimise energy subject to deadline D = 10 with speeds in
  //    [0.2, 1.0] (normalised DVFS range). The registry picks the best
  //    applicable solver for the instance's structure and speed model.
  //    submit() returns a future-style JobHandle; get() joins it (the
  //    synchronous shorthand is eng.solve(problem)).
  core::Problem problem(dag, mapping, model::SpeedModel::continuous(0.2, 1.0), 10.0);
  auto job = eng.submit(engine::SolveQuery(problem));
  auto result = job.get();
  if (!result.is_ok()) {
    std::cerr << "solve failed: " << result.status().to_string() << "\n";
    return 1;
  }

  std::cout << "\nsolver: " << result.value().solver << " ("
            << result.value().wall_ms << " ms)"
            << "\ntotal energy: " << result.value().energy
            << "\nmakespan: " << result.value().makespan << " (deadline 10)\n";
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    const auto& exec = result.value().schedule.at(t).executions.front();
    std::cout << "  " << dag.name(t) << ": speed " << exec.speed << ", duration "
              << exec.duration(dag.weight(t)) << "\n";
  }

  // 5. Timeline view (Gantt) of the optimised schedule.
  std::cout << "\ntimeline:\n";
  sched::write_gantt(std::cout, dag, mapping, result.value().schedule);

  // 6. Independent feasibility check (the validator used by all tests).
  const auto check = problem.check(result.value().schedule);
  std::cout << "validator: " << check.to_string() << "\n";
  return check.is_ok() ? 0 : 1;
}
