#pragma once
// Event-driven replay of an arrival trace under one online DVFS policy.
//
// Single preemptive processor, EDF dispatching, policy-chosen speeds
// (clamped into the speed model and rounded up to its ladder). The
// replay is a pure function of (trace, classes, config, policy): all
// arithmetic is sequential double math driven off the deterministic
// EventQueue, so the same seed gives bit-identical metrics on every run.
// run_policy_corpus fans a corpus of streams x policies out over a local
// common::WorkerPool with index-addressed result slots — thread count
// changes scheduling, never results.
//
// Energy accounting (consistent with the offline solvers, so competitive
// ratios are well-defined):
//   dynamic   f^3 * t per execution segment (model::power_time_energy)
//   static    static_power per awake time unit. Non-sleeping policies
//             stay awake over the whole accounting span
//             [0, max(last completion, last deadline)]; sleeping
//             policies power down when idle and pay wake_energy at each
//             busy-period start.
// A job finishing after its absolute deadline counts as a miss but still
// runs to completion (soft-deadline accounting: every policy processes
// the identical total work, so energies stay comparable).

#include <cstdint>
#include <string>
#include <vector>

#include "model/speed_model.hpp"
#include "obs/metrics.hpp"
#include "sim/policy.hpp"
#include "sim/stream.hpp"

namespace easched::sim {

/// Platform half of the simulation: the speed model the policies are
/// clamped to and the static/sleep energy parameters.
struct SimConfig {
  model::SpeedModel speeds = model::SpeedModel::continuous(0.05, 1.0);
  double static_power = 0.05;  ///< awake power draw (energy per time unit)
  double wake_energy = 0.5;    ///< cost of one sleep -> awake transition
};

/// Everything one (trace, policy) replay produced.
struct PolicyMetrics {
  std::string policy;
  std::uint64_t arrivals = 0;
  std::uint64_t completions = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t freq_transitions = 0;  ///< distinct speed changes between segments
  std::uint64_t wakeups = 0;           ///< sleep -> awake transitions
  double dynamic_energy = 0.0;
  double static_energy = 0.0;
  double wake_energy = 0.0;
  double busy_time = 0.0;
  double idle_time = 0.0;   ///< awake but not executing
  double sleep_time = 0.0;  ///< powered down (sleeping policies only)
  double span = 0.0;        ///< accounting horizon: max(last completion, last deadline)

  double total_energy() const noexcept {
    return dynamic_energy + static_energy + wake_energy;
  }
  double miss_rate() const noexcept {
    return completions == 0
               ? 0.0
               : static_cast<double>(deadline_misses) / static_cast<double>(completions);
  }
};

/// Replays `trace` under `policy`. `classes` must be the vector the
/// trace was generated from (policies derive worst-case densities from
/// it). With `registry` non-null the run's totals are recorded under
/// easched_sim_* series labelled policy=<name> — counters for arrivals /
/// completions / misses / freq transitions / wakeups, histograms for
/// idle and sleep time per replay. Strictly observational.
PolicyMetrics simulate_policy(const ArrivalTrace& trace,
                              const std::vector<TaskClass>& classes,
                              const SimConfig& config, Policy& policy,
                              obs::Registry* registry = nullptr);

/// The corpus harness: `streams` independent traces under the same seed
/// (stream indices 0..streams-1), each replayed under every named
/// policy. Result slot [s][p] is stream s under policy_names[p].
/// Cells run in parallel on a local pool of `threads` workers (0 =
/// common::default_thread_count()); each cell constructs its own Policy
/// instance, so results are bit-identical for every thread count.
std::vector<std::vector<PolicyMetrics>> run_policy_corpus(
    const std::vector<TaskClass>& classes, int streams, double horizon,
    std::uint64_t seed, const std::vector<std::string>& policies,
    const SimConfig& config, obs::Registry* registry = nullptr,
    std::size_t threads = 0);

}  // namespace easched::sim
