#include "sim/fault_sim.hpp"

#include <algorithm>

#include "common/parallel.hpp"
#include "sim/stream.hpp"

namespace easched::sim {

SimReport simulate(const graph::Dag& dag, const sched::Schedule& schedule,
                   const model::ReliabilityModel& rel, const SimOptions& options) {
  const int n = dag.num_tasks();
  EASCHED_CHECK(schedule.num_tasks() == n);
  EASCHED_CHECK(options.trials > 0);

  // Precompute per-execution failure probabilities and energies.
  struct ExecInfo {
    double fail = 0.0;
    double energy = 0.0;
  };
  std::vector<std::vector<ExecInfo>> execs(static_cast<std::size_t>(n));
  SimReport report;
  report.per_task.resize(static_cast<std::size_t>(n));
  for (graph::TaskId t = 0; t < n; ++t) {
    const double w = dag.weight(t);
    EASCHED_CHECK_MSG(!schedule.at(t).executions.empty(), "task without executions");
    double task_fail = 1.0;
    execs[static_cast<std::size_t>(t)].reserve(schedule.at(t).executions.size());
    for (const auto& e : schedule.at(t).executions) {
      ExecInfo info;
      info.fail = std::clamp(e.failure_prob(w, rel), 0.0, 1.0);
      info.energy = e.energy(w);
      report.worst_case_energy += info.energy;
      task_fail *= info.fail;
      execs[static_cast<std::size_t>(t)].push_back(info);
    }
    report.per_task[static_cast<std::size_t>(t)].analytic_success = 1.0 - task_fail;
  }

  // Parallel trials; one RNG substream per chunk keeps results independent
  // of the thread count.
  const std::size_t chunks = 64;
  struct ChunkAccum {
    std::vector<long long> task_success;
    std::vector<long long> first_failed;
    long long app_success = 0;
    long long trials = 0;
    common::OnlineStats energy;
  };
  std::vector<ChunkAccum> accums(chunks);
  common::WorkerPool pool(options.threads);
  common::parallel_chunks(
      pool, static_cast<std::size_t>(options.trials), chunks,
      [&](std::size_t chunk, std::size_t begin, std::size_t end) {
        auto& acc = accums[chunk];
        acc.task_success.assign(static_cast<std::size_t>(n), 0);
        acc.first_failed.assign(static_cast<std::size_t>(n), 0);
        // Per-chunk substream from the shared sim:: derivation scheme
        // (stream.hpp) — the same tagging the arrival generator uses.
        common::Rng rng = substream(options.seed, StreamPurpose::kFaultTrial, chunk);
        for (std::size_t trial = begin; trial < end; ++trial) {
          ++acc.trials;
          bool all_ok = true;
          double energy = 0.0;
          for (graph::TaskId t = 0; t < n; ++t) {
            const auto& infos = execs[static_cast<std::size_t>(t)];
            bool ok = false;
            // First execution always runs.
            energy += infos[0].energy;
            const bool fail1 = rng.bernoulli(infos[0].fail);
            if (fail1) {
              ++acc.first_failed[static_cast<std::size_t>(t)];
              if (infos.size() == 2) {
                energy += infos[1].energy;  // re-execution actually happens
                ok = !rng.bernoulli(infos[1].fail);
              }
            } else {
              ok = true;
            }
            if (ok) {
              ++acc.task_success[static_cast<std::size_t>(t)];
            } else {
              all_ok = false;
            }
          }
          if (all_ok) ++acc.app_success;
          acc.energy.add(energy);
        }
      });

  // Reduce.
  for (graph::TaskId t = 0; t < n; ++t) {
    auto& stats = report.per_task[static_cast<std::size_t>(t)];
    for (const auto& acc : accums) {
      if (acc.task_success.empty()) continue;
      stats.success.successes += static_cast<std::size_t>(
          acc.task_success[static_cast<std::size_t>(t)]);
      stats.success.trials += static_cast<std::size_t>(acc.trials);
      stats.first_failed.successes += static_cast<std::size_t>(
          acc.first_failed[static_cast<std::size_t>(t)]);
      stats.first_failed.trials += static_cast<std::size_t>(acc.trials);
    }
  }
  for (const auto& acc : accums) {
    report.app_success.successes += static_cast<std::size_t>(acc.app_success);
    report.app_success.trials += static_cast<std::size_t>(acc.trials);
    report.actual_energy.merge(acc.energy);
  }
  return report;
}

}  // namespace easched::sim
