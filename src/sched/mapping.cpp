#include "sched/mapping.hpp"

#include "graph/analysis.hpp"

namespace easched::sched {

Mapping::Mapping(int num_processors, int num_tasks) {
  EASCHED_CHECK_MSG(num_processors >= 1, "need at least one processor");
  EASCHED_CHECK_MSG(num_tasks >= 0, "negative task count");
  order_.resize(static_cast<std::size_t>(num_processors));
  proc_of_.assign(static_cast<std::size_t>(num_tasks), -1);
}

void Mapping::assign(TaskId t, int processor) {
  EASCHED_CHECK_MSG(t >= 0 && t < num_tasks(), "task id out of range");
  EASCHED_CHECK_MSG(processor >= 0 && processor < num_processors(), "processor out of range");
  EASCHED_CHECK_MSG(proc_of_[static_cast<std::size_t>(t)] == -1, "task assigned twice");
  proc_of_[static_cast<std::size_t>(t)] = processor;
  order_[static_cast<std::size_t>(processor)].push_back(t);
}

common::Status Mapping::validate(const Dag& dag) const {
  if (auto st = validate_assignment(dag); !st.is_ok()) return st;
  if (!graph::is_acyclic(augmented_graph(dag))) return orders_contradict_precedence();
  return common::Status::ok();
}

common::Status Mapping::validate_assignment(const Dag& dag) const {
  if (dag.num_tasks() != num_tasks()) {
    return common::Status::invalid("mapping sized for a different task count");
  }
  for (TaskId t = 0; t < num_tasks(); ++t) {
    if (proc_of_[static_cast<std::size_t>(t)] < 0) {
      return common::Status::invalid("task " + std::to_string(t) + " is unassigned");
    }
  }
  return common::Status::ok();
}

common::Status Mapping::orders_contradict_precedence() {
  return common::Status::invalid("processor orders contradict the precedence constraints");
}

Dag Mapping::augmented_graph(const Dag& dag) const {
  Dag aug;
  for (TaskId t = 0; t < dag.num_tasks(); ++t) aug.add_task(dag.weight(t), dag.name(t));
  for (TaskId u = 0; u < dag.num_tasks(); ++u) {
    for (TaskId v : dag.successors(u)) aug.add_edge(u, v);
  }
  for (const auto& order : order_) {
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      if (order[i] != order[i + 1]) aug.add_edge(order[i], order[i + 1]);
    }
  }
  return aug;
}

Mapping Mapping::single_processor(const Dag& dag, const std::vector<TaskId>& order) {
  EASCHED_CHECK_MSG(static_cast<int>(order.size()) == dag.num_tasks(),
                    "order must cover every task");
  Mapping m(1, dag.num_tasks());
  for (TaskId t : order) m.assign(t, 0);
  return m;
}

Mapping Mapping::one_task_per_processor(const Dag& dag) {
  Mapping m(std::max(1, dag.num_tasks()), dag.num_tasks());
  for (TaskId t = 0; t < dag.num_tasks(); ++t) m.assign(t, t);
  return m;
}

}  // namespace easched::sched
