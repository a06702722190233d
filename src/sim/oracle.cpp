#include "sim/oracle.hpp"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/problem.hpp"
#include "graph/generators.hpp"
#include "model/energy.hpp"
#include "sched/mapping.hpp"
#include "sim/policy.hpp"

namespace easched::sim {

common::Result<OracleReport> oracle_baseline(const ArrivalTrace& trace,
                                             const SimConfig& config,
                                             engine::Engine& engine) {
  if (trace.jobs.empty()) {
    return common::Status::invalid("oracle needs a non-empty trace");
  }

  OracleReport report;
  double first_release = std::numeric_limits<double>::infinity();
  double last_deadline = 0.0;
  std::vector<double> works;
  works.reserve(trace.jobs.size());
  for (const auto& job : trace.jobs) {
    works.push_back(job.work);
    first_release = std::min(first_release, job.release);
    last_deadline = std::max(last_deadline, job.deadline);
    report.total_work += job.work;
  }
  report.window = last_deadline - first_release;
  if (report.window <= 0.0) {
    return common::Status::invalid("trace window is empty");
  }
  report.feasible_at_fmax =
      report.total_work / config.speeds.fmax() <= report.window + 1e-9;

  // The realized instance: a chain (the single processor serializes the
  // jobs anyway, and the chain structure unlocks the closed-form /
  // LP fast paths) over one global window. DISCRETE platforms solve as
  // VDD-HOPPING — the relaxation keeps the lower-bound semantics and the
  // LP is exact.
  graph::Dag dag = graph::make_chain(works);
  std::vector<graph::TaskId> order(works.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  sched::Mapping mapping = sched::Mapping::single_processor(dag, order);
  model::SpeedModel speeds =
      config.speeds.kind() == model::SpeedModelKind::kContinuous
          ? config.speeds
          : model::SpeedModel::vdd_hopping(config.speeds.levels());
  core::Problem problem(std::move(dag), std::move(mapping), speeds,
                        report.window);
  auto solved = engine.solve(problem);
  if (!solved.is_ok()) return solved.status();
  report.solver = solved.value().solver;

  // Candidate 1: awake over the whole window (one wake-up), with the
  // solver's minimal dynamic energy.
  const double awake_dynamic = solved.value().energy;
  const double awake_total = awake_dynamic + config.static_power * report.window +
                             config.wake_energy;

  // Candidate 2: race at the best sleeping speed and power down — all
  // work at max(critical speed, work/window, fmin), rounded up to the
  // platform ladder.
  double race_total = std::numeric_limits<double>::infinity();
  double race_dynamic = 0.0;
  double race_static = 0.0;
  double fc = std::max({critical_speed(config.static_power),
                        report.total_work / report.window, config.speeds.fmin()});
  if (fc <= config.speeds.fmax() + 1e-12) {
    auto rounded = speeds.round_up(std::min(fc, config.speeds.fmax()));
    if (rounded.is_ok()) {
      fc = rounded.value();
      race_dynamic = model::execution_energy(report.total_work, fc);
      race_static = config.static_power * (report.total_work / fc);
      race_total = race_dynamic + race_static + config.wake_energy;
    }
  }

  if (race_total < awake_total) {
    report.slept = true;
    report.energy = race_total;
    report.dynamic_energy = race_dynamic;
    report.static_energy = race_static;
  } else {
    report.energy = awake_total;
    report.dynamic_energy = awake_dynamic;
    report.static_energy = config.static_power * report.window;
  }
  report.wake_energy = config.wake_energy;
  return report;
}

}  // namespace easched::sim
