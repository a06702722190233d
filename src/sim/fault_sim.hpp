#pragma once
// Monte-Carlo transient-fault injection (claim C11).
//
// The paper's reliability model is analytic; this simulator executes a
// schedule against randomly injected transient faults drawn from that same
// model and measures
//   * per-task observed success rate vs. the analytic R_i (model check),
//   * observed application success rate,
//   * actual energy (a re-execution only runs when the first attempt
//     fails) vs. the worst-case energy the paper's objective charges —
//     quantifying the price of worst-case provisioning.
//
// Faults are independent per execution: an execution at constant speed f
// fails with probability clamp(lambda_i(f), 0, 1); a VDD execution fails
// with clamp(sum_s rate(f_s) alpha_s, 0, 1). Trials run in parallel with
// deterministic per-chunk RNG substreams drawn through the shared
// sim::substream scheme (stream.hpp), so results are the same for any
// thread count and the injector shares one seeded-stream derivation with
// the arrival-stream simulator.

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "graph/dag.hpp"
#include "model/reliability.hpp"
#include "sched/schedule.hpp"

namespace easched::sim {

struct SimOptions {
  long long trials = 100000;
  std::uint64_t seed = 0x5eedULL;
  std::size_t threads = 0;  ///< local pool size; 0 = default_thread_count()
};

struct TaskSimStats {
  common::Proportion success;        ///< task completed (any execution succeeded)
  common::Proportion first_failed;   ///< first execution failed
  double analytic_success = 0.0;     ///< model-predicted task success prob
};

struct SimReport {
  std::vector<TaskSimStats> per_task;
  common::Proportion app_success;    ///< all tasks completed in a trial
  double worst_case_energy = 0.0;    ///< what the paper's objective charges
  common::OnlineStats actual_energy; ///< energy actually spent per trial
};

/// Runs the fault-injection simulation of `schedule` on `dag`.
SimReport simulate(const graph::Dag& dag, const sched::Schedule& schedule,
                   const model::ReliabilityModel& rel, const SimOptions& options = {});

}  // namespace easched::sim
