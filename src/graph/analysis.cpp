#include "graph/analysis.hpp"

#include <algorithm>
#include <cstdint>

namespace easched::graph {

common::Result<std::vector<TaskId>> topological_order(const Dag& dag) {
  const int n = dag.num_tasks();
  std::vector<int> indeg(static_cast<std::size_t>(n));
  std::vector<TaskId> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<TaskId> queue;
  for (TaskId t = 0; t < n; ++t) {
    indeg[static_cast<std::size_t>(t)] = dag.in_degree(t);
    if (indeg[static_cast<std::size_t>(t)] == 0) queue.push_back(t);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const TaskId u = queue[head];
    order.push_back(u);
    for (TaskId v : dag.successors(u)) {
      if (--indeg[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
    }
  }
  if (static_cast<int>(order.size()) != n) {
    return common::Status::invalid("graph contains a cycle");
  }
  return order;
}

bool is_acyclic(const Dag& dag) { return topological_order(dag).is_ok(); }

TimeAnalysis time_analysis(const Dag& dag, const std::vector<double>& durations,
                           double horizon) {
  const int n = dag.num_tasks();
  EASCHED_CHECK(static_cast<int>(durations.size()) == n);
  auto order_res = topological_order(dag);
  EASCHED_CHECK_MSG(order_res.is_ok(), "time_analysis requires an acyclic graph");
  const auto& order = order_res.value();

  TimeAnalysis out;
  out.asap.assign(static_cast<std::size_t>(n), 0.0);
  out.alap.assign(static_cast<std::size_t>(n), 0.0);
  out.slack.assign(static_cast<std::size_t>(n), 0.0);

  for (TaskId u : order) {
    const double finish = out.asap[static_cast<std::size_t>(u)] +
                          durations[static_cast<std::size_t>(u)];
    out.makespan = std::max(out.makespan, finish);
    for (TaskId v : dag.successors(u)) {
      out.asap[static_cast<std::size_t>(v)] =
          std::max(out.asap[static_cast<std::size_t>(v)], finish);
    }
  }
  for (TaskId t = 0; t < n; ++t) {
    out.alap[static_cast<std::size_t>(t)] = horizon - durations[static_cast<std::size_t>(t)];
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const TaskId u = *it;
    for (TaskId v : dag.successors(u)) {
      out.alap[static_cast<std::size_t>(u)] =
          std::min(out.alap[static_cast<std::size_t>(u)],
                   out.alap[static_cast<std::size_t>(v)] - durations[static_cast<std::size_t>(u)]);
    }
  }
  for (TaskId t = 0; t < n; ++t) {
    out.slack[static_cast<std::size_t>(t)] =
        out.alap[static_cast<std::size_t>(t)] - out.asap[static_cast<std::size_t>(t)];
  }
  return out;
}

std::vector<TaskId> critical_path(const Dag& dag, const std::vector<double>& durations) {
  const int n = dag.num_tasks();
  EASCHED_CHECK(static_cast<int>(durations.size()) == n);
  auto order_res = topological_order(dag);
  EASCHED_CHECK_MSG(order_res.is_ok(), "critical_path requires an acyclic graph");
  const auto& order = order_res.value();

  // dist[t] = longest finish time ending at t; parent for reconstruction.
  std::vector<double> dist(static_cast<std::size_t>(n), 0.0);
  std::vector<TaskId> parent(static_cast<std::size_t>(n), -1);
  for (TaskId u : order) {
    dist[static_cast<std::size_t>(u)] += durations[static_cast<std::size_t>(u)];
    for (TaskId v : dag.successors(u)) {
      if (dist[static_cast<std::size_t>(u)] > dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)];
        parent[static_cast<std::size_t>(v)] = u;
      }
    }
  }
  TaskId end = 0;
  for (TaskId t = 1; t < n; ++t) {
    if (dist[static_cast<std::size_t>(t)] > dist[static_cast<std::size_t>(end)]) end = t;
  }
  std::vector<TaskId> path;
  for (TaskId t = end; t != -1; t = parent[static_cast<std::size_t>(t)]) path.push_back(t);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<int> depth_levels(const Dag& dag) {
  auto order_res = topological_order(dag);
  EASCHED_CHECK_MSG(order_res.is_ok(), "depth_levels requires an acyclic graph");
  std::vector<int> depth(static_cast<std::size_t>(dag.num_tasks()), 0);
  for (TaskId u : order_res.value()) {
    for (TaskId v : dag.successors(u)) {
      depth[static_cast<std::size_t>(v)] =
          std::max(depth[static_cast<std::size_t>(v)], depth[static_cast<std::size_t>(u)] + 1);
    }
  }
  return depth;
}

common::Result<Dag> transitive_reduction(const Dag& dag) {
  auto order_res = topological_order(dag);
  if (!order_res.is_ok()) return order_res.status();
  const auto& order = order_res.value();
  const auto un = static_cast<std::size_t>(dag.num_tasks());
  std::vector<std::size_t> pos(un);
  for (std::size_t i = 0; i < un; ++i) pos[static_cast<std::size_t>(order[i])] = i;

  // reach[u]: the tasks reachable from u by a path of one or more edges,
  // one bit per task, `words` 64-bit words a row.
  const std::size_t words = (un + 63) / 64;
  std::vector<std::uint64_t> reach(un * words, 0);
  Dag out;
  for (TaskId t = 0; t < dag.num_tasks(); ++t) out.add_task(dag.weight(t), dag.name(t));
  std::vector<char> direct(un, 0);
  std::vector<TaskId> by_position;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto u = static_cast<std::size_t>(*it);
    const auto& succ = dag.successors(*it);
    by_position.assign(succ.begin(), succ.end());
    std::sort(by_position.begin(), by_position.end(), [&](TaskId a, TaskId b) {
      return pos[static_cast<std::size_t>(a)] < pos[static_cast<std::size_t>(b)];
    });
    std::uint64_t* row = reach.data() + u * words;
    for (TaskId v : by_position) {
      const auto vu = static_cast<std::size_t>(v);
      const std::uint64_t bit = std::uint64_t{1} << (vu % 64);
      if (row[vu / 64] & bit) continue;  // an earlier successor reaches v
      direct[vu] = 1;
      row[vu / 64] |= bit;
      const std::uint64_t* from = reach.data() + vu * words;
      for (std::size_t w = 0; w < words; ++w) row[w] |= from[w];
    }
    for (TaskId v : succ) {  // kept edges go in dag's order
      if (direct[static_cast<std::size_t>(v)]) out.add_edge(*it, v);
      direct[static_cast<std::size_t>(v)] = 0;
    }
  }
  return out;
}

bool is_chain(const Dag& dag) {
  const int n = dag.num_tasks();
  if (n == 0) return false;
  if (dag.num_edges() != n - 1) return false;
  int n_src = 0, n_sink = 0;
  for (TaskId t = 0; t < n; ++t) {
    if (dag.in_degree(t) > 1 || dag.out_degree(t) > 1) return false;
    if (dag.in_degree(t) == 0) ++n_src;
    if (dag.out_degree(t) == 0) ++n_sink;
  }
  return n_src == 1 && n_sink == 1;
}

bool is_fork(const Dag& dag) {
  const int n = dag.num_tasks();
  if (n < 2) return false;
  const auto srcs = dag.sources();
  if (srcs.size() != 1) return false;
  const TaskId src = srcs.front();
  if (dag.out_degree(src) != n - 1 || dag.num_edges() != n - 1) return false;
  for (TaskId t = 0; t < n; ++t) {
    if (t == src) continue;
    if (dag.in_degree(t) != 1 || dag.out_degree(t) != 0) return false;
  }
  return true;
}

bool is_join(const Dag& dag) {
  const int n = dag.num_tasks();
  if (n < 2) return false;
  const auto snks = dag.sinks();
  if (snks.size() != 1) return false;
  const TaskId sink = snks.front();
  if (dag.in_degree(sink) != n - 1 || dag.num_edges() != n - 1) return false;
  for (TaskId t = 0; t < n; ++t) {
    if (t == sink) continue;
    if (dag.out_degree(t) != 1 || dag.in_degree(t) != 0) return false;
  }
  return true;
}

}  // namespace easched::graph
