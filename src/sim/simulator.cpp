#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "model/energy.hpp"
#include "sim/event_queue.hpp"

namespace easched::sim {
namespace {

/// Clamps the policy's ideal speed into the platform: never below fmin,
/// never above fmax, rounded *up* to the ladder of a discrete-kind model
/// (rounding down would manufacture deadline misses).
double platform_speed(const model::SpeedModel& speeds, double desired) {
  double f = std::min(std::max(desired, speeds.fmin()), speeds.fmax());
  if (speeds.is_discrete_kind()) {
    auto up = speeds.round_up(f);
    EASCHED_CHECK(up.is_ok());  // f <= fmax by the clamp
    f = up.value();
  }
  return f;
}

/// Per-replay obs series, resolved once per simulate_policy call.
void record(obs::Registry* registry, const PolicyMetrics& m) {
  if (registry == nullptr) return;
  const obs::LabelSet labels = {{"policy", m.policy}};
  registry->counter("easched_sim_arrivals_total", labels)->inc(m.arrivals);
  registry->counter("easched_sim_completions_total", labels)->inc(m.completions);
  registry->counter("easched_sim_deadline_misses_total", labels)->inc(m.deadline_misses);
  registry->counter("easched_sim_freq_transitions_total", labels)->inc(m.freq_transitions);
  registry->counter("easched_sim_wakeups_total", labels)->inc(m.wakeups);
  registry->histogram("easched_sim_idle_time", labels)->observe(m.idle_time);
  registry->histogram("easched_sim_sleep_time", labels)->observe(m.sleep_time);
  registry->histogram("easched_sim_busy_time", labels)->observe(m.busy_time);
}

}  // namespace

PolicyMetrics simulate_policy(const ArrivalTrace& trace,
                              const std::vector<TaskClass>& classes,
                              const SimConfig& config, Policy& policy,
                              obs::Registry* registry) {
  PolicyMetrics m;
  m.policy = std::string(policy.name());

  PolicySetup setup;
  setup.classes = classes;
  setup.fmin = config.speeds.fmin();
  setup.fmax = config.speeds.fmax();
  setup.static_power = config.static_power;
  policy.reset(setup);

  const std::size_t n = trace.jobs.size();
  if (n == 0) return m;

  struct JobState {
    double remaining = 0.0;  ///< realized work left
    double executed = 0.0;   ///< work done so far (what the policy may infer)
    std::uint64_t generation = 0;
    bool finished = false;
  };
  std::vector<JobState> state(n);
  for (std::size_t i = 0; i < n; ++i) state[i].remaining = trace.jobs[i].work;

  EventQueue queue;
  double last_deadline = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    queue.push(trace.jobs[i].release, EventKind::kArrival, static_cast<int>(i));
    last_deadline = std::max(last_deadline, trace.jobs[i].deadline);
  }

  // EDF order with the trace index as deterministic tie-break.
  std::set<std::pair<double, int>> ready;

  double now = 0.0;
  int running = -1;       ///< job of the current execution segment
  double speed = 0.0;     ///< speed of the current execution segment
  double last_busy_speed = -1.0;  ///< last segment speed, for transition counts
  // Sleeping policies start powered down (nothing has arrived yet);
  // everyone else is awake and paying static power from t = 0.
  bool asleep = policy.sleeps();

  std::vector<ReadyJob> view;
  while (!queue.empty()) {
    const double t = queue.top().time;

    // Account the elapsed segment [now, t).
    const double dt = t - now;
    if (dt > 0.0) {
      if (running >= 0) {
        m.busy_time += dt;
        m.dynamic_energy += model::power_time_energy(speed, dt);
        m.static_energy += config.static_power * dt;
        auto& js = state[static_cast<std::size_t>(running)];
        js.remaining -= speed * dt;
        js.executed += speed * dt;
      } else if (asleep) {
        m.sleep_time += dt;
      } else {
        m.idle_time += dt;
        m.static_energy += config.static_power * dt;
      }
      now = t;
    }

    // Drain every event at exactly this time before rescheduling, so a
    // burst of simultaneous arrivals triggers one speed decision, not
    // one per job.
    while (!queue.empty() && queue.top().time == t) {
      const Event e = queue.pop();
      const auto j = static_cast<std::size_t>(e.job);
      if (e.kind == EventKind::kArrival) {
        if (asleep) {
          asleep = false;
          ++m.wakeups;
          m.wake_energy += config.wake_energy;
        }
        ready.emplace(trace.jobs[j].deadline, e.job);
        policy.on_release(trace.jobs[j]);
        ++m.arrivals;
      } else {  // kCompletion
        if (state[j].finished || state[j].generation != e.generation) continue;  // stale
        state[j].finished = true;
        state[j].executed += state[j].remaining;  // absorb rounding residue
        state[j].remaining = 0.0;
        ready.erase({trace.jobs[j].deadline, e.job});
        if (running == e.job) running = -1;
        ++m.completions;
        if (now > trace.jobs[j].deadline + 1e-9) ++m.deadline_misses;
        policy.on_complete(trace.jobs[j], trace.jobs[j].work);
      }
    }

    // Reschedule: EDF head at the policy's speed, or idle/sleep.
    if (!ready.empty()) {
      view.clear();
      for (const auto& [deadline, job] : ready) {
        const auto j = static_cast<std::size_t>(job);
        ReadyJob r;
        r.job = job;
        r.deadline = deadline;
        r.remaining_wcet = std::max(trace.jobs[j].wcet - state[j].executed, 0.0);
        view.push_back(r);
      }
      const double f = platform_speed(config.speeds, policy.select_speed(now, view));
      const int next = ready.begin()->second;
      if (f != last_busy_speed) {
        if (last_busy_speed >= 0.0) ++m.freq_transitions;
        last_busy_speed = f;
      }
      // A preempted job keeps an outstanding completion event; bump its
      // generation so that prediction can never fire while it is off
      // the processor.
      if (running >= 0 && running != next) {
        ++state[static_cast<std::size_t>(running)].generation;
      }
      running = next;
      speed = f;
      auto& js = state[static_cast<std::size_t>(next)];
      ++js.generation;
      queue.push(now + js.remaining / f, EventKind::kCompletion, next, js.generation);
    } else {
      running = -1;
      speed = 0.0;
      if (policy.sleeps()) asleep = true;  // eager sleep on any idle gap
    }
  }

  // Pad the accounting span so every non-sleeping policy is charged
  // static power over the same horizon: the processor is on for the
  // duration of the stream (through the last deadline) regardless of how
  // early its jobs finished. Sleeping policies sleep the tail instead.
  m.span = std::max(now, last_deadline);
  const double tail = m.span - now;
  if (tail > 0.0) {
    if (policy.sleeps()) {
      m.sleep_time += tail;
    } else {
      m.idle_time += tail;
      m.static_energy += config.static_power * tail;
    }
  }

  record(registry, m);
  return m;
}

std::vector<std::vector<PolicyMetrics>> run_policy_corpus(
    const std::vector<TaskClass>& classes, int streams, double horizon,
    std::uint64_t seed, const std::vector<std::string>& policies,
    const SimConfig& config, obs::Registry* registry, std::size_t threads) {
  EASCHED_CHECK(streams > 0);
  EASCHED_CHECK(!policies.empty());
  for (const auto& name : policies) {
    EASCHED_CHECK_MSG(make_policy(name).is_ok(), "unknown policy name");
  }

  std::vector<ArrivalTrace> traces(static_cast<std::size_t>(streams));
  std::vector<std::vector<PolicyMetrics>> out(static_cast<std::size_t>(streams));
  for (auto& row : out) row.resize(policies.size());

  // streams x policies cells, one slot each: parallel order never
  // touches results, and every cell owns a fresh Policy instance.
  const std::size_t cells = static_cast<std::size_t>(streams) * policies.size();
  common::WorkerPool pool(threads);
  pool.parallel(static_cast<std::size_t>(streams),
                [&](std::size_t s) { traces[s] = make_trace(classes, horizon, seed, s); });
  pool.parallel(cells, [&](std::size_t cell) {
    const std::size_t s = cell / policies.size();
    const std::size_t p = cell % policies.size();
    auto policy = make_policy(policies[p]);
    out[s][p] = simulate_policy(traces[s], classes, config, *policy.value(), registry);
  });
  return out;
}

}  // namespace easched::sim
