#pragma once
// Structural and temporal DAG analysis: topological order, ASAP/ALAP
// schedules under given task durations, critical paths, level structure.
//
// These primitives back the makespan evaluator (sched/), the interior-point
// warm start (strictly feasible schedules need per-edge slack), and the
// tri-criteria heuristics (slack-driven re-execution, claim C6).

#include <vector>

#include "common/status.hpp"
#include "graph/dag.hpp"

namespace easched::graph {

/// Kahn topological order; kInvalidArgument if the graph has a cycle.
common::Result<std::vector<TaskId>> topological_order(const Dag& dag);

bool is_acyclic(const Dag& dag);

/// Earliest/latest start times of every task for fixed durations.
struct TimeAnalysis {
  std::vector<double> asap;       ///< earliest start times
  std::vector<double> alap;       ///< latest start times w.r.t. `horizon`
  std::vector<double> slack;      ///< alap - asap (>= horizon - makespan)
  double makespan = 0.0;          ///< length of the longest path
};

/// Computes ASAP/ALAP for the given durations; `horizon` is the deadline
/// the ALAP schedule is anchored to (usually the deadline D).
/// Requires an acyclic dag (checked).
TimeAnalysis time_analysis(const Dag& dag, const std::vector<double>& durations,
                           double horizon);

/// One longest (critical) path under the durations, as a task sequence.
std::vector<TaskId> critical_path(const Dag& dag, const std::vector<double>& durations);

/// Topological depth of each task (longest edge-count distance from a source).
std::vector<int> depth_levels(const Dag& dag);

/// The transitive reduction: the same tasks (weights and names kept) and
/// only the edges u -> v for which no other path u -> ... -> v exists, each
/// task's successors in the order `dag` lists them. Reachability sets are bitsets
/// built in reverse topological order; a task's successors are visited in
/// topological order, so an edge is dropped exactly when an earlier
/// successor already reaches its head. kInvalidArgument if the graph has a
/// cycle.
common::Result<Dag> transitive_reduction(const Dag& dag);

/// True iff the dag is a single linear chain T0 -> T1 -> ... (in some order).
bool is_chain(const Dag& dag);

/// True iff the dag is a fork: one source, all other tasks are isolated
/// successors of the source (the structure of the paper's fork theorem).
bool is_fork(const Dag& dag);

/// True iff the dag is a join: one sink, all other tasks are its direct
/// predecessors with no other edges.
bool is_join(const Dag& dag);

}  // namespace easched::graph
