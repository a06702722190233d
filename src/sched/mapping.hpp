#pragma once
// Mapping: the pre-allocation of tasks to processors the paper assumes.
//
// "Because the problem of finding a schedule that matches the makespan
//  constraint is NP-complete, we consider that the DAG is already mapped
//  on the processors ... say by an ordered list of tasks to execute on
//  each processor. While it is not possible to change the allocation of a
//  task, it is possible to change its speed." (sections I-II)
//
// A Mapping is exactly that ordered list per processor. The energy solvers
// operate on the *augmented graph*: DAG edges plus the
// consecutive-on-processor edges induced by the per-processor orders.

#include <vector>

#include "common/status.hpp"
#include "graph/dag.hpp"

namespace easched::sched {

using graph::Dag;
using graph::TaskId;

class Mapping {
 public:
  /// Empty mapping over `num_processors` processors for `num_tasks` tasks.
  Mapping(int num_processors, int num_tasks);

  /// Appends task t to the execution order of `processor`.
  void assign(TaskId t, int processor);

  int num_processors() const noexcept { return static_cast<int>(order_.size()); }
  int num_tasks() const noexcept { return static_cast<int>(proc_of_.size()); }

  /// Processor of a task; -1 if unassigned.
  int processor_of(TaskId t) const { return proc_of_.at(static_cast<std::size_t>(t)); }

  /// Ordered task list of one processor.
  const std::vector<TaskId>& order_on(int processor) const {
    return order_.at(static_cast<std::size_t>(processor));
  }

  /// Checks: every task assigned exactly once, and the union of DAG edges
  /// and processor-order edges is acyclic (a mapping whose orders
  /// contradict the precedence constraints is invalid).
  common::Status validate(const Dag& dag) const;

  /// validate() without the acyclicity check, for a caller that builds
  /// the augmented graph anyway and sorts it topologically itself; it
  /// reports a cycle there with orders_contradict_precedence().
  common::Status validate_assignment(const Dag& dag) const;

  /// validate()'s status when the augmented graph has a cycle.
  static common::Status orders_contradict_precedence();

  /// The augmented precedence graph: `dag` plus an edge between
  /// consecutive tasks of every processor order. Weights are preserved.
  Dag augmented_graph(const Dag& dag) const;

  /// Everything on one processor, in the order given (chain semantics).
  static Mapping single_processor(const Dag& dag, const std::vector<TaskId>& order);

  /// Each task on its own processor (fully parallel; used for closed-form
  /// structures where the graph itself is the only constraint).
  static Mapping one_task_per_processor(const Dag& dag);

 private:
  std::vector<std::vector<TaskId>> order_;
  std::vector<int> proc_of_;
};

}  // namespace easched::sched
