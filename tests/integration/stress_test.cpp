// Randomized stress sweep: many seeds x random structure x random model
// parameters, pushed through the auto solver and the validator. Catches
// numerical-robustness regressions (barrier start points, simplex
// degeneracy, waterfill bracketing) that targeted tests can miss.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "api/registry.hpp"
#include "core/corpus.hpp"
#include "core/problem.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"
#include "tricrit/heuristics.hpp"

namespace easched {
namespace {

class StressTest : public ::testing::TestWithParam<int> {};

graph::Dag random_structure(common::Rng& rng) {
  switch (rng.below(6)) {
    case 0: return graph::make_chain(3 + static_cast<int>(rng.below(15)), {0.5, 8.0}, rng);
    case 1: return graph::make_fork(graph::random_weights(3 + static_cast<int>(rng.below(10)), {0.5, 8.0}, rng));
    case 2: return graph::make_out_tree(4 + static_cast<int>(rng.below(12)), 3, {0.5, 8.0}, rng);
    case 3: return graph::make_random_series_parallel(4 + static_cast<int>(rng.below(10)), {0.5, 8.0}, rng);
    case 4:
      return graph::make_layered(2 + static_cast<int>(rng.below(3)),
                                 2 + static_cast<int>(rng.below(3)), rng.uniform(0.2, 0.7),
                                 {0.5, 8.0}, rng);
    default: return graph::make_random_dag(5 + static_cast<int>(rng.below(10)), rng.uniform(0.1, 0.4), {0.5, 8.0}, rng);
  }
}

TEST_P(StressTest, BiCritAutoAlwaysFeasibleOrCleanlyInfeasible) {
  common::Rng rng(1000 + static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 6; ++round) {
    auto dag = random_structure(rng);
    const int procs = 1 + static_cast<int>(rng.below(4));
    auto mapping = sched::list_schedule(dag, procs, sched::PriorityPolicy::kCriticalPath);
    const double fmin = rng.uniform(0.05, 0.4);
    const double fmax = rng.uniform(0.8, 2.0);
    // Deadline anywhere from clearly infeasible to very loose.
    std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
    for (int t = 0; t < dag.num_tasks(); ++t) {
      d[static_cast<std::size_t>(t)] = dag.weight(t) / fmax;
    }
    const double base = graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan;
    const double D = base * rng.uniform(0.5, 6.0);

    model::SpeedModel speeds = model::SpeedModel::continuous(fmin, fmax);
    if (rng.bernoulli(0.5)) {
      std::vector<double> levels;
      const int m = 2 + static_cast<int>(rng.below(4));
      for (int s = 0; s < m; ++s) levels.push_back(rng.uniform(fmin, fmax));
      levels.push_back(fmax);
      speeds = rng.bernoulli(0.5) ? model::SpeedModel::vdd_hopping(levels)
                                  : model::SpeedModel::discrete(levels);
    }
    core::Problem p(std::move(dag), std::move(mapping), std::move(speeds), D);
    auto r = api::solve(p);
    if (D < base * (1.0 - 1e-9)) {
      EXPECT_FALSE(r.is_ok()) << "round " << round << ": accepted infeasible deadline";
      continue;
    }
    if (!r.is_ok()) {
      // Near-boundary deadlines may be declared infeasible by tolerance;
      // anything clearly above the bound must succeed.
      EXPECT_LT(D, base * 1.001) << "round " << round << ": " << r.status().to_string();
      continue;
    }
    EXPECT_TRUE(p.check(r.value().schedule).is_ok())
        << "round " << round << " solver " << r.value().solver;
  }
}

TEST_P(StressTest, TriCritBestOfAlwaysValidates) {
  common::Rng rng(2000 + static_cast<std::uint64_t>(GetParam()));
  for (int round = 0; round < 4; ++round) {
    auto dag = random_structure(rng);
    const int procs = 1 + static_cast<int>(rng.below(4));
    auto mapping = sched::list_schedule(dag, procs, sched::PriorityPolicy::kCriticalPath);
    const double fmax = 1.0;
    const double fmin = rng.uniform(0.05, 0.3);
    const double frel = rng.uniform(0.55, 0.95);
    const model::ReliabilityModel rel(rng.uniform(1e-6, 1e-4), rng.uniform(0.5, 5.0), fmin,
                                      fmax, frel);
    std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
    for (int t = 0; t < dag.num_tasks(); ++t) {
      d[static_cast<std::size_t>(t)] = dag.weight(t) / fmax;
    }
    const double base = graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan;
    const double D = base / frel * rng.uniform(1.05, 4.0);
    core::Problem p(std::move(dag), std::move(mapping),
                    model::SpeedModel::continuous(fmin, fmax), rel, D);
    auto r = api::solve(p, "best-of");
    ASSERT_TRUE(r.is_ok()) << "round " << round << ": " << r.status().to_string();
    EXPECT_TRUE(p.check(r.value().schedule).is_ok()) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest, ::testing::Range(0, 8),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace easched
