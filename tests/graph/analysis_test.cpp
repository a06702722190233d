#include "graph/analysis.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"

namespace easched::graph {
namespace {

Dag diamond() {
  Dag d;  // 0 -> {1,2} -> 3
  for (int i = 0; i < 4; ++i) d.add_task(1.0);
  d.add_edge(0, 1);
  d.add_edge(0, 2);
  d.add_edge(1, 3);
  d.add_edge(2, 3);
  return d;
}

TEST(TopologicalOrder, RespectsEdges) {
  const Dag d = diamond();
  auto order = topological_order(d);
  ASSERT_TRUE(order.is_ok());
  std::vector<int> pos(4);
  for (int i = 0; i < 4; ++i) {
    pos[static_cast<std::size_t>(order.value()[static_cast<std::size_t>(i)])] = i;
  }
  for (TaskId u = 0; u < 4; ++u) {
    for (TaskId v : d.successors(u)) EXPECT_LT(pos[static_cast<std::size_t>(u)], pos[static_cast<std::size_t>(v)]);
  }
}

TEST(TopologicalOrder, DetectsCycle) {
  Dag d;
  d.add_task(1.0);
  d.add_task(1.0);
  d.add_edge(0, 1);
  d.add_edge(1, 0);
  EXPECT_FALSE(topological_order(d).is_ok());
  EXPECT_FALSE(is_acyclic(d));
}

TEST(TimeAnalysis, DiamondAsapAlapSlack) {
  const Dag d = diamond();
  const std::vector<double> dur{1.0, 2.0, 1.0, 1.0};
  const auto ta = time_analysis(d, dur, 5.0);
  // ASAP: 0 at 0; 1,2 at 1; 3 at max(1+2, 1+1)=3. Makespan 4.
  EXPECT_DOUBLE_EQ(ta.asap[0], 0.0);
  EXPECT_DOUBLE_EQ(ta.asap[1], 1.0);
  EXPECT_DOUBLE_EQ(ta.asap[2], 1.0);
  EXPECT_DOUBLE_EQ(ta.asap[3], 3.0);
  EXPECT_DOUBLE_EQ(ta.makespan, 4.0);
  // ALAP anchored at 5: task3 starts 4; task1 starts 4-2=2; task2 4-1=3;
  // task0 min(2-1, 3-1)=1.
  EXPECT_DOUBLE_EQ(ta.alap[3], 4.0);
  EXPECT_DOUBLE_EQ(ta.alap[1], 2.0);
  EXPECT_DOUBLE_EQ(ta.alap[2], 3.0);
  EXPECT_DOUBLE_EQ(ta.alap[0], 1.0);
  // Slack: horizon - makespan = 1 for critical tasks (0,1,3); 2 for task2.
  EXPECT_DOUBLE_EQ(ta.slack[0], 1.0);
  EXPECT_DOUBLE_EQ(ta.slack[1], 1.0);
  EXPECT_DOUBLE_EQ(ta.slack[2], 2.0);
  EXPECT_DOUBLE_EQ(ta.slack[3], 1.0);
}

TEST(TimeAnalysis, SlackLowerBoundProperty) {
  common::Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const Dag d = make_random_dag(20, 0.2, {1.0, 5.0}, rng);
    std::vector<double> dur(20);
    for (auto& x : dur) x = rng.uniform(0.5, 2.0);
    const double horizon = 100.0;
    const auto ta = time_analysis(d, dur, horizon);
    for (int t = 0; t < 20; ++t) {
      EXPECT_GE(ta.slack[static_cast<std::size_t>(t)],
                horizon - ta.makespan - 1e-9);
    }
  }
}

TEST(CriticalPath, ChainIsWholeChain) {
  common::Rng rng(5);
  const Dag d = make_chain(6, {1.0, 3.0}, rng);
  const auto path = critical_path(d, std::vector<double>(6, 1.0));
  EXPECT_EQ(path.size(), 6u);
}

TEST(CriticalPath, PicksHeavierBranch) {
  const Dag d = diamond();
  const std::vector<double> dur{1.0, 5.0, 1.0, 1.0};
  const auto path = critical_path(d, dur);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], 0);
  EXPECT_EQ(path[1], 1);
  EXPECT_EQ(path[2], 3);
}

TEST(CriticalPath, LengthMatchesMakespan) {
  common::Rng rng(6);
  const Dag d = make_layered(4, 4, 0.4, {1.0, 4.0}, rng);
  std::vector<double> dur(static_cast<std::size_t>(d.num_tasks()));
  for (auto& x : dur) x = rng.uniform(0.5, 2.0);
  const auto path = critical_path(d, dur);
  double len = 0.0;
  for (TaskId t : path) len += dur[static_cast<std::size_t>(t)];
  EXPECT_NEAR(len, time_analysis(d, dur, 0.0).makespan, 1e-12);
}

TEST(DepthLevels, Diamond) {
  const auto depth = depth_levels(diamond());
  EXPECT_EQ(depth[0], 0);
  EXPECT_EQ(depth[1], 1);
  EXPECT_EQ(depth[2], 1);
  EXPECT_EQ(depth[3], 2);
}

TEST(StructurePredicates, Chain) {
  common::Rng rng(7);
  EXPECT_TRUE(is_chain(make_chain(5, {1.0, 2.0}, rng)));
  EXPECT_FALSE(is_chain(diamond()));
  EXPECT_FALSE(is_chain(make_fork({1.0, 2.0, 3.0})));
  Dag single;
  single.add_task(1.0);
  EXPECT_TRUE(is_chain(single));
}

TEST(StructurePredicates, Fork) {
  EXPECT_TRUE(is_fork(make_fork({1.0, 2.0, 3.0, 4.0})));
  EXPECT_FALSE(is_fork(diamond()));
  common::Rng rng(8);
  EXPECT_FALSE(is_fork(make_chain(3, {1.0, 2.0}, rng)));
  // Two-task chain is both a chain and (degenerately) a fork with 1 child.
  EXPECT_TRUE(is_fork(make_fork({1.0, 2.0})));
}

TEST(StructurePredicates, Join) {
  EXPECT_TRUE(is_join(make_join({1.0, 2.0, 3.0})));
  EXPECT_FALSE(is_join(make_fork({1.0, 2.0, 3.0})));
  EXPECT_FALSE(is_join(diamond()));
}

// Brute force: u -> v is in the reduction iff dropping that one edge
// leaves no path from u to v.
bool reaches_without(const Dag& d, TaskId from, TaskId to, TaskId skip_u, TaskId skip_v) {
  std::vector<char> seen(static_cast<std::size_t>(d.num_tasks()), 0);
  std::vector<TaskId> stack{from};
  while (!stack.empty()) {
    const TaskId u = stack.back();
    stack.pop_back();
    for (TaskId v : d.successors(u)) {
      if ((u == skip_u && v == skip_v) || seen[static_cast<std::size_t>(v)]) continue;
      if (v == to) return true;
      seen[static_cast<std::size_t>(v)] = 1;
      stack.push_back(v);
    }
  }
  return false;
}

void expect_reduction(const Dag& d, const std::string& label) {
  auto r = transitive_reduction(d);
  ASSERT_TRUE(r.is_ok()) << label;
  const Dag& red = r.value();
  ASSERT_EQ(red.num_tasks(), d.num_tasks()) << label;
  int kept = 0;
  for (TaskId u = 0; u < d.num_tasks(); ++u) {
    EXPECT_EQ(red.weight(u), d.weight(u)) << label;
    EXPECT_EQ(red.name(u), d.name(u)) << label;
    std::vector<TaskId> expected;
    for (TaskId v : d.successors(u)) {
      if (!reaches_without(d, u, v, u, v)) expected.push_back(v);
    }
    EXPECT_EQ(red.successors(u), expected) << label << " task " << u;
    kept += static_cast<int>(expected.size());
  }
  EXPECT_EQ(red.num_edges(), kept) << label;
}

TEST(TransitiveReduction, DropsTheDiamondsShortcut) {
  Dag d = diamond();
  d.add_edge(0, 3);  // implied by 0 -> 1 -> 3
  auto r = transitive_reduction(d);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().num_edges(), 4);
  EXPECT_FALSE(r.value().has_edge(0, 3));
  expect_reduction(d, "diamond");
}

TEST(TransitiveReduction, RejectsACycle) {
  Dag d;
  d.add_task(1.0);
  d.add_task(1.0);
  d.add_edge(0, 1);
  d.add_edge(1, 0);
  EXPECT_EQ(transitive_reduction(d).status().code(), common::StatusCode::kInvalidArgument);
}

TEST(TransitiveReduction, KeepsEveryEdgeOfChainsForksAndJoins) {
  common::Rng rng(11);
  EXPECT_EQ(transitive_reduction(Dag{}).value().num_tasks(), 0);
  for (int n : {3, 7, 20}) {
    const auto w = random_weights(n, {1.0, 4.0}, rng);
    for (const Dag& d : {make_chain(w), make_fork(w), make_join(w), make_fork_join(w)}) {
      auto r = transitive_reduction(d);
      ASSERT_TRUE(r.is_ok());
      EXPECT_EQ(r.value().num_edges(), d.num_edges()) << "n=" << n;
      expect_reduction(d, "n=" + std::to_string(n));
    }
  }
}

TEST(TransitiveReduction, MatchesBruteForceOnLayeredAndRandomDags) {
  common::Rng rng(12);
  for (int trial = 0; trial < 8; ++trial) {
    expect_reduction(make_layered(4, 5, 0.5, {1.0, 4.0}, rng),
                     "layered " + std::to_string(trial));
    expect_reduction(make_random_dag(30, 0.2, {1.0, 4.0}, rng),
                     "random " + std::to_string(trial));
  }
  // More than 64 tasks: reachability rows span several words.
  expect_reduction(make_random_dag(150, 0.05, {1.0, 4.0}, rng), "random 150");
}

// Augmented graphs: processor-order edges that repeat a DAG edge, or that
// a DAG path already implies, must go like any other implied edge.
TEST(TransitiveReduction, MatchesBruteForceOnAugmentedGraphs) {
  common::Rng rng(13);
  for (int trial = 0; trial < 8; ++trial) {
    const auto dag = make_random_dag(40, 0.15, {1.0, 4.0}, rng);
    for (int procs : {1, 3}) {
      const auto mapping = sched::list_schedule(dag, procs, sched::PriorityPolicy::kCriticalPath);
      const Dag aug = mapping.augmented_graph(dag);
      expect_reduction(aug, "aug " + std::to_string(trial) + " on " + std::to_string(procs));
      // One processor: the order is a topological order, so the
      // reduction is that chain.
      if (procs == 1) {
        EXPECT_EQ(transitive_reduction(aug).value().num_edges(), 39);
      }
    }
  }
}

}  // namespace
}  // namespace easched::graph
