// Embedded DVFS: a sensor-processing pipeline on an XScale-like processor
// with discrete frequency levels — the setting that motivates the paper's
// DISCRETE / VDD-HOPPING / INCREMENTAL comparison (section IV).
//
// Solves the same pipeline under all four speed models and prints the
// energy each model achieves, illustrating the paper's hierarchy:
//   CONTINUOUS <= VDD-HOPPING <= INCREMENTAL(fine) <= DISCRETE.

#include <iostream>

#include "common/table.hpp"
#include "engine/engine.hpp"
#include "core/problem.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"

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

  // Pipeline: sample -> {demodulate, calibrate} -> fuse -> transmit.
  graph::Dag dag;
  const auto sample = dag.add_task(1.0, "sample");
  const auto demod = dag.add_task(4.0, "demodulate");
  const auto calib = dag.add_task(3.0, "calibrate");
  const auto fuse = dag.add_task(2.0, "fuse");
  const auto tx = dag.add_task(0.5, "transmit");
  dag.add_edge(sample, demod);
  dag.add_edge(sample, calib);
  dag.add_edge(demod, fuse);
  dag.add_edge(calib, fuse);
  dag.add_edge(fuse, tx);

  // Two cores; mapping fixed by critical-path list scheduling.
  const auto mapping = sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
  const double deadline = 12.0;  // fmax makespan is 7.5 -> modest slack

  const auto levels = model::xscale_levels();  // {0.15, 0.4, 0.6, 0.8, 1.0}
  common::Table table({"model", "solver", "energy", "vs continuous", "time_ms"});

  double cont_energy = 0.0;
  {
    core::Problem p(dag, mapping,
                    model::SpeedModel::continuous(levels.front(), levels.back()),
                    deadline);
    auto r = eng.solve(p);
    if (!r.is_ok()) {
      std::cerr << "continuous failed: " << r.status().to_string() << "\n";
      return 1;
    }
    cont_energy = r.value().energy;
    table.add_row({"CONTINUOUS", r.value().solver, common::format_g(r.value().energy),
                   common::format_ratio(1.0), common::format_fixed(r.value().wall_ms, 2)});
  }
  {
    core::Problem p(dag, mapping, model::SpeedModel::vdd_hopping(levels), deadline);
    auto r = eng.solve(p);
    if (r.is_ok()) {
      table.add_row({"VDD-HOPPING", r.value().solver, common::format_g(r.value().energy),
                     common::format_ratio(r.value().energy / cont_energy),
                     common::format_fixed(r.value().wall_ms, 2)});
    }
  }
  {
    const auto inc = model::SpeedModel::incremental(levels.front(), levels.back(), 0.05);
    core::Problem p(dag, mapping, inc, deadline);
    api::SolveOptions opts;
    opts.approx_K = 50;
    auto r = eng.solve(p, "incremental-approx", opts);
    if (r.is_ok()) {
      table.add_row({"INCREMENTAL d=0.05", r.value().solver,
                     common::format_g(r.value().energy),
                     common::format_ratio(r.value().energy / cont_energy),
                     common::format_fixed(r.value().wall_ms, 2)});
    }
  }
  {
    core::Problem p(dag, mapping, model::SpeedModel::discrete(levels), deadline);
    auto r = eng.solve(p);
    if (r.is_ok()) {
      table.add_row({"DISCRETE (XScale)", r.value().solver,
                     common::format_g(r.value().energy),
                     common::format_ratio(r.value().energy / cont_energy),
                     common::format_fixed(r.value().wall_ms, 2)});
    }
  }

  std::cout << "Sensor pipeline, deadline " << deadline << ", levels {0.15,0.4,0.6,0.8,1.0}\n\n";
  table.print(std::cout);
  std::cout << "\nVDD-hopping recovers nearly all of the continuous optimum; the plain\n"
               "DISCRETE model pays the rounding penalty the paper's section IV analyses.\n";
  return 0;
}
