// Migration coverage for the retired core/solvers.hpp enum facade: every
// behaviour the shim's tests pinned down is preserved by the registry
// API it shimmed over. The old enum -> registry-name mapping:
//   BiCritSolver::kAuto              -> api::solve(problem)  (auto-select)
//   BiCritSolver::kClosedForm        -> "closed-form-chain" / "-fork" / "-sp"
//   BiCritSolver::kContinuousIpm     -> "continuous-ipm"
//   BiCritSolver::kVddLp             -> "vdd-lp"
//   BiCritSolver::kDiscreteBnb       -> "discrete-bnb"
//   BiCritSolver::kDiscreteGreedy    -> "discrete-greedy"
//   BiCritSolver::kIncrementalApprox -> "incremental-approx"
//   TriCritSolver::kChainExact       -> "chain-exact"     kChainGreedy -> "chain-greedy"
//   TriCritSolver::kForkPoly         -> "fork-poly"       kBestOf      -> "best-of"
//   TriCritSolver::kHeuristicA/B     -> "heuristic-A" / "heuristic-B"

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "common/rng.hpp"
#include "core/problem.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"

namespace easched::core {
namespace {

Problem chain_problem(model::SpeedModel speeds, double deadline) {
  auto dag = graph::make_chain({2.0, 3.0, 5.0});
  auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
  return Problem(std::move(dag), std::move(mapping), std::move(speeds), deadline);
}

TEST(SolveBiCrit, AutoPicksClosedFormForChain) {
  auto p = chain_problem(model::SpeedModel::continuous(0.1, 10.0), 4.0);
  auto r = api::solve(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().solver, "closed-form-chain");
  EXPECT_NEAR(r.value().energy, 62.5, 1e-9);
  EXPECT_TRUE(p.check(r.value().schedule).is_ok());
}

TEST(SolveBiCrit, AutoPicksLpForVdd) {
  auto p = chain_problem(model::SpeedModel::vdd_hopping({0.5, 1.0, 2.0}), 8.0);
  auto r = api::solve(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().solver, "vdd-lp");
  EXPECT_TRUE(p.check(r.value().schedule).is_ok());
}

TEST(SolveBiCrit, AutoPicksBnbForSmallDiscrete) {
  auto p = chain_problem(model::SpeedModel::discrete({0.5, 1.0, 2.0}), 8.0);
  auto r = api::solve(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().solver, "discrete-bnb");
  EXPECT_TRUE(p.check(r.value().schedule).is_ok());
}

TEST(SolveBiCrit, AutoPicksGreedyForLargeDiscrete) {
  common::Rng rng(1);
  auto dag = graph::make_random_dag(40, 0.1, {1.0, 3.0}, rng);
  auto mapping = sched::list_schedule(dag, 4, sched::PriorityPolicy::kCriticalPath);
  std::vector<double> dmax(static_cast<std::size_t>(dag.num_tasks()));
  for (int t = 0; t < dag.num_tasks(); ++t) dmax[static_cast<std::size_t>(t)] = dag.weight(t);
  const double D =
      graph::time_analysis(mapping.augmented_graph(dag), dmax, 0.0).makespan * 1.5;
  Problem p(std::move(dag), std::move(mapping),
            model::SpeedModel::discrete(model::xscale_levels()), D);
  auto r = api::solve(p);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().solver, "discrete-greedy");
  EXPECT_TRUE(p.check(r.value().schedule).is_ok());
}

TEST(SolveBiCrit, ExplicitSolverSelection) {
  auto p = chain_problem(model::SpeedModel::continuous(0.1, 10.0), 4.0);
  auto cf = api::solve(p, "closed-form-chain");
  auto ipm = api::solve(p, "continuous-ipm");
  ASSERT_TRUE(cf.is_ok());
  ASSERT_TRUE(ipm.is_ok());
  EXPECT_NEAR(cf.value().energy, ipm.value().energy, 1e-4 * cf.value().energy);
}

TEST(SolveBiCrit, IncrementalApproxEndToEnd) {
  auto p = chain_problem(model::SpeedModel::incremental(0.5, 2.5, 0.25), 4.0);
  api::SolveOptions options;
  options.approx_K = 10;
  auto r = api::solve(p, "incremental-approx", options);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_TRUE(p.check(r.value().schedule).is_ok());
}

TEST(SolveBiCrit, InvalidProblemRejected) {
  auto p = chain_problem(model::SpeedModel::continuous(0.1, 10.0), -1.0);
  EXPECT_FALSE(api::solve(p).is_ok());
}

TEST(SolveBiCrit, InfeasiblePropagates) {
  auto p = chain_problem(model::SpeedModel::continuous(0.1, 1.0), 4.0);  // needs 2.5
  EXPECT_FALSE(api::solve(p).is_ok());
}

Problem tri_chain_problem(double deadline) {
  auto dag = graph::make_chain({1.0, 2.0, 1.5});
  auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
  return Problem(std::move(dag), std::move(mapping),
                 model::SpeedModel::continuous(0.2, 1.0),
                 model::ReliabilityModel(1e-5, 3.0, 0.2, 1.0, 0.8), deadline);
}

TEST(SolveTriCrit, ChainExactAndGreedy) {
  auto p = tri_chain_problem(12.0);
  auto exact = api::solve(p, "chain-exact");
  auto greedy = api::solve(p, "chain-greedy");
  ASSERT_TRUE(exact.is_ok()) << exact.status().to_string();
  ASSERT_TRUE(greedy.is_ok());
  EXPECT_TRUE(p.check(exact.value().schedule).is_ok());
  EXPECT_TRUE(p.check(greedy.value().schedule).is_ok());
  EXPECT_GE(greedy.value().energy, exact.value().energy - 1e-9);
}

TEST(SolveTriCrit, ForkPoly) {
  auto dag = graph::make_fork({2.0, 1.0, 1.0});
  auto mapping = sched::Mapping::one_task_per_processor(dag);
  Problem p(std::move(dag), std::move(mapping),
                   model::SpeedModel::continuous(0.2, 1.0),
                   model::ReliabilityModel(1e-5, 3.0, 0.2, 1.0, 0.8), 10.0);
  auto r = api::solve(p, "fork-poly");
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(p.check(r.value().schedule).is_ok());
}

TEST(SolveTriCrit, HeuristicsOnGeneralDag) {
  common::Rng rng(2);
  auto dag = graph::make_layered(3, 3, 0.4, {1.0, 3.0}, rng);
  auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
  std::vector<double> dmax(static_cast<std::size_t>(dag.num_tasks()));
  for (int t = 0; t < dag.num_tasks(); ++t) dmax[static_cast<std::size_t>(t)] = dag.weight(t);
  const double D =
      graph::time_analysis(mapping.augmented_graph(dag), dmax, 0.0).makespan / 0.8 * 2.0;
  Problem p(std::move(dag), std::move(mapping),
                   model::SpeedModel::continuous(0.2, 1.0),
                   model::ReliabilityModel(1e-5, 3.0, 0.2, 1.0, 0.8), D);
  for (const char* solver : {"heuristic-A", "heuristic-B", "best-of"}) {
    auto r = api::solve(p, solver);
    ASSERT_TRUE(r.is_ok()) << solver;
    EXPECT_TRUE(p.check(r.value().schedule).is_ok()) << solver;
  }
}

TEST(SolveTriCrit, ChainSolverRejectsNonChain) {
  auto dag = graph::make_fork({1.0, 1.0, 1.0});
  auto mapping = sched::Mapping::one_task_per_processor(dag);
  Problem p(std::move(dag), std::move(mapping),
                   model::SpeedModel::continuous(0.2, 1.0),
                   model::ReliabilityModel(1e-5, 3.0, 0.2, 1.0, 0.8), 10.0);
  EXPECT_FALSE(api::solve(p, "chain-exact").is_ok());
}

TEST(SolverNames, Stable) {
  // The registry owns the stable names the enums used to map to.
  const auto& registry = api::SolverRegistry::instance();
  EXPECT_NE(registry.find("vdd-lp"), nullptr);
  EXPECT_NE(registry.find("best-of"), nullptr);
}

}  // namespace
}  // namespace easched::core
