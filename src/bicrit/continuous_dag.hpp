#pragma once
// CONTINUOUS BI-CRIT on general mapped DAGs (claim C2), and the one
// continuous speed program every continuous solver of the repo solves.
//
// The paper: "We formulate the problem for general DAGs as a geometric
// programming problem for which efficient numerical schemes exist."
// Change of variables d_i = w_i / f_i turns the program into
//
//   minimize    sum_i  c_i / d_i^2
//   subject to  s_u + d_u <= s_v          for every edge of the augmented
//                                         graph (DAG + processor orders)
//               s_i + d_i <= D,  s_i >= 0
//               lb_i <= d_i <= ub_i
//
// — a convex program with linear constraints (solve_durations), solved by
// the log-barrier interior-point method in opt/barrier.hpp. The barrier
// gets only the rows the others do not imply:
//   * s_u + d_u <= s_v for the edges of the transitive reduction of the
//     augmented graph (graph::transitive_reduction);
//   * s_i + d_i <= D for sinks only, s_i >= 0 for sources only;
//   * both duration bounds for every task.
// Every duration is at least lb_i > 0, so an edge u -> v that a longer
// path u -> w -> ... -> v covers follows from that path's rows, a
// non-sink's deadline row from a path to a sink, and a non-source's
// s >= 0 from a path from a source. The feasible set, hence the optimum,
// is the spelled program's. Only the per-task coefficients and bounds
// differ between problems:
//   * BI-CRIT (solve_continuous): c_i = w_i^3, [w_i/fmax, w_i/fmin];
//   * the TRI-CRIT polish with a fixed re-execution set
//     (tricrit::continuous_with_modes): c_i = (k w_i)^3 and
//     [k w_i/fmax, k w_i/floor_i], with k = 2 and floor_i = f_inf for a
//     re-executed task, k = 1 and floor_i = frel otherwise.
// Two boundary cases bypass the barrier (which needs a strictly feasible
// interior):
//   * makespan at ub <= D  =>  all-ub is optimal (energy decreases in d);
//   * makespan at lb == D (within tolerance) => all-lb ASAP is the only
//     feasible point.

#include <functional>
#include <vector>

#include "common/status.hpp"
#include "graph/dag.hpp"
#include "model/speed_model.hpp"
#include "opt/barrier.hpp"
#include "sched/mapping.hpp"
#include "sched/schedule.hpp"

namespace easched::bicrit {

struct ContinuousOptions {
  opt::BarrierOptions barrier;
  /// Optional warm start: per-task durations of a neighbouring solution
  /// (e.g. the previous iterate of a tightening re-solve, or a nearby
  /// sweep point). When the size matches the task count they are clamped
  /// strictly inside the speed bounds and used as the barrier's starting
  /// point if the clamped point still has deadline slack; otherwise the
  /// standard cold start is used. Purely a performance hint: the barrier
  /// converges to the same optimum either way (to solver tolerance), and
  /// a given (instance, hint) pair is deterministic.
  std::vector<double> start_durations;
};

struct ContinuousSolution {
  sched::Schedule schedule;
  double energy = 0.0;
  std::vector<double> durations;    ///< optimal d_i
  std::vector<double> start_times;  ///< feasible start times s_i
  /// The barrier's m/t bound on energy - optimum (0 for boundary cases),
  /// m the rows solve_durations emits, t where the spelled program would
  /// stop. It holds for the barrier's exact central path; nothing checks
  /// it against a dual point yet.
  double gap_bound = 0.0;
  int newton_steps = 0;
};

/// Per-task data of the continuous speed program: energy c_i / d_i^2 and
/// duration bounds 0 < lb_i <= d_i <= ub_i.
struct DurationProgram {
  std::vector<double> coef;
  std::vector<double> lb;
  std::vector<double> ub;
};

/// Which case of the program answered.
enum class DurationRegime {
  kAllUpper,  ///< every task at ub fits the deadline, so that is optimal
  kAllLower,  ///< the deadline equals the all-lb makespan: all-lb ASAP
  kBarrier,   ///< the barrier's iterate
};

struct DurationSolution {
  DurationRegime regime = DurationRegime::kBarrier;
  std::vector<double> durations;
  std::vector<double> start_times;
  /// The barrier's m/t bound (0 for boundary cases). m counts the rows
  /// emitted, the reduced program's; t is where the spelled program would
  /// stop (see solve_durations), so the bound is below the spelled m/t.
  double gap_bound = 0.0;
  int newton_steps = 0;
  /// Not ok when the barrier stopped early but left an iterate; the
  /// durations are then that iterate. Callers decide whether to keep it.
  common::Status barrier_status = common::Status::ok();
};

/// Strictly feasible durations for the barrier's cold start, called only
/// when the program has an interior and no usable hint. Receives the
/// all-lb makespan, which lies below the deadline.
using ColdStart = std::function<std::vector<double>(double lower_makespan)>;

/// Solves the continuous speed program over the augmented graph `aug`,
/// whose transitive reduction it computes on every call (microseconds at
/// 32 tasks). A `hint` of one duration per task (a neighbouring solution)
/// is pulled strictly inside (lb, ub) and used as the barrier start when
/// it keeps deadline slack; otherwise `cold_start` supplies the durations.
/// Either way start times spread the remaining slack by topological depth.
/// The barrier's gap tolerance is scaled by the emitted over the spelled
/// row count (one per aug edge, four per task), so it stops at the same
/// barrier weight t as the spelled program, and fails as not converged at
/// the same t too. kInvalidArgument
/// (sched::Mapping::orders_contradict_precedence) when `aug` has a cycle;
/// kInfeasible when even all-lb misses the deadline.
common::Result<DurationSolution> solve_durations(const graph::Dag& aug,
                                                 const DurationProgram& program,
                                                 double deadline,
                                                 const std::vector<double>& hint,
                                                 const ColdStart& cold_start,
                                                 const opt::BarrierOptions& barrier);

/// Minimal-energy continuous speeds for (dag, mapping, deadline).
/// kInfeasible when even all-fmax misses the deadline.
common::Result<ContinuousSolution> solve_continuous(const graph::Dag& dag,
                                                    const sched::Mapping& mapping,
                                                    double deadline,
                                                    const model::SpeedModel& speeds,
                                                    const ContinuousOptions& options = {});

}  // namespace easched::bicrit
