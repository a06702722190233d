// Series-parallel scientific workflow: closed-form energy optimisation
// (the paper's trees/SP result) and the energy/deadline trade-off curve.
//
// Builds a nested fork-join workflow (stage-in -> parallel analyses with
// sub-pipelines -> reduce), optimises speeds in closed form via the SP
// decomposition, cross-checks against the interior-point solver, and
// prints E(D) — the W^3/D^2 law — for a sweep of deadlines.

#include <iostream>

#include "engine/engine.hpp"
#include "bicrit/closed_form.hpp"
#include "common/table.hpp"
#include "core/problem.hpp"
#include "graph/series_parallel.hpp"
#include "sched/mapping.hpp"

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

  // stage_in -> (pipelineA: a1->a2 | pipelineB: b1->b2->b3 | c1) -> reduce
  graph::Dag dag;
  const auto stage_in = dag.add_task(2.0, "stage_in");
  const auto a1 = dag.add_task(3.0, "a1");
  const auto a2 = dag.add_task(2.0, "a2");
  const auto b1 = dag.add_task(1.0, "b1");
  const auto b2 = dag.add_task(4.0, "b2");
  const auto b3 = dag.add_task(1.0, "b3");
  const auto c1 = dag.add_task(5.0, "c1");
  const auto reduce = dag.add_task(1.5, "reduce");
  dag.add_edge(stage_in, a1);
  dag.add_edge(a1, a2);
  dag.add_edge(a2, reduce);
  dag.add_edge(stage_in, b1);
  dag.add_edge(b1, b2);
  dag.add_edge(b2, b3);
  dag.add_edge(b3, reduce);
  dag.add_edge(stage_in, c1);
  dag.add_edge(c1, reduce);

  auto tree = graph::decompose_series_parallel(dag);
  if (!tree.is_ok()) {
    std::cerr << "workflow is not series-parallel: " << tree.status().to_string() << "\n";
    return 1;
  }
  const double W = bicrit::equivalent_weight(tree.value(), dag, tree.value().root());
  std::cout << "workflow recognised as series-parallel; equivalent weight W = " << W
            << "\n(energy law: E(D) = W^3 / D^2 while no speed bound binds)\n\n";

  const auto speeds = model::SpeedModel::continuous(0.05, 2.0);
  const auto mapping = sched::Mapping::one_task_per_processor(dag);

  common::Table table({"deadline", "E_closed_form", "W^3/D^2", "E_interior_point",
                       "speed(stage_in)", "speed(c1)"});
  for (double D : {8.0, 10.0, 14.0, 20.0, 30.0}) {
    core::Problem problem(dag, mapping, speeds, D);
    auto cf = eng.solve(problem, "closed-form-sp");
    auto ipm = eng.solve(problem, "continuous-ipm");
    if (!cf.is_ok() || !ipm.is_ok()) {
      std::cout << "D=" << D << ": " << cf.status().to_string() << " / "
                << ipm.status().to_string() << "\n";
      continue;
    }
    table.add_row({common::format_g(D), common::format_g(cf.value().energy),
                   common::format_g(W * W * W / (D * D)),
                   common::format_g(ipm.value().energy),
                   common::format_g(cf.value().schedule.at(stage_in).executions.front().speed),
                   common::format_g(cf.value().schedule.at(c1).executions.front().speed)});
  }
  table.print(std::cout);
  std::cout << "\nNote how the heavy parallel branch (c1, w=5) always gets the highest\n"
            << "branch speed, and every stage slows uniformly as the deadline relaxes.\n";
  return 0;
}
