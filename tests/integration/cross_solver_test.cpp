// Cross-solver consistency: the relations that must hold between
// independent solvers if each of them is correct. These are the strongest
// correctness checks in the suite — two implementations of the same
// optimum agreeing to tolerance, and ordering relations between models
// (CONTINUOUS <= VDD <= DISCRETE) that the paper's section IV discusses.

#include <gtest/gtest.h>

#include "api/registry.hpp"
#include "bicrit/continuous_dag.hpp"
#include "bicrit/vdd_lp.hpp"
#include "common/rng.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"
#include "tricrit/chain.hpp"
#include "tricrit/heuristics.hpp"

namespace easched {
namespace {

using model::SpeedModel;

double fmax_makespan(const graph::Dag& dag, const sched::Mapping& mapping, double fmax) {
  std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
  for (int t = 0; t < dag.num_tasks(); ++t) {
    d[static_cast<std::size_t>(t)] = dag.weight(t) / fmax;
  }
  return graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan;
}

struct SlackCase {
  double slack;
};

class ModelOrderingTest : public ::testing::TestWithParam<SlackCase> {};

TEST_P(ModelOrderingTest, ContinuousVddDiscreteOrdering) {
  common::Rng rng(101);
  const double slack = GetParam().slack;
  for (int trial = 0; trial < 3; ++trial) {
    const auto dag = graph::make_random_dag(6, 0.3, {1.0, 3.0}, rng);
    const auto mapping = sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
    const auto levels = model::xscale_levels();
    const double D = fmax_makespan(dag, mapping, levels.back()) * slack;
    core::Problem cont_p(dag, mapping,
                         SpeedModel::continuous(levels.front(), levels.back()), D);
    core::Problem vdd_p(dag, mapping, SpeedModel::vdd_hopping(levels), D);
    core::Problem disc_p(dag, mapping, SpeedModel::discrete(levels), D);
    auto cont = api::solve(cont_p, "continuous-ipm");
    auto vdd = api::solve(vdd_p, "vdd-lp");
    auto disc = api::solve(disc_p, "discrete-bnb");
    ASSERT_TRUE(cont.is_ok()) << trial;
    ASSERT_TRUE(vdd.is_ok()) << trial;
    ASSERT_TRUE(disc.is_ok()) << trial;
    EXPECT_LE(cont.value().energy, vdd.value().energy * (1.0 + 1e-6))
        << "slack " << slack << " trial " << trial;
    EXPECT_LE(vdd.value().energy, disc.value().energy * (1.0 + 1e-6))
        << "slack " << slack << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(SlackSweep, ModelOrderingTest,
                         ::testing::Values(SlackCase{1.15}, SlackCase{1.5}, SlackCase{2.5},
                                           SlackCase{4.0}),
                         [](const auto& info) {
                           return "slack_x" +
                                  std::to_string(static_cast<int>(info.param.slack * 100));
                         });

TEST(CrossSolver, ClosedFormVsIpmOnAllSpFamilies) {
  common::Rng rng(102);
  const auto speeds = SpeedModel::continuous(1e-5, 1e5);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<graph::Dag> dags;
    dags.push_back(graph::make_chain(7, {1.0, 4.0}, rng));
    dags.push_back(graph::make_fork(graph::random_weights(7, {1.0, 4.0}, rng)));
    dags.push_back(graph::make_fork_join(graph::random_weights(7, {1.0, 4.0}, rng)));
    dags.push_back(graph::make_out_tree(9, 3, {1.0, 4.0}, rng));
    dags.push_back(graph::make_random_series_parallel(9, {1.0, 4.0}, rng));
    for (std::size_t k = 0; k < dags.size(); ++k) {
      const auto& dag = dags[k];
      const auto mapping = sched::Mapping::one_task_per_processor(dag);
      const double D = fmax_makespan(dag, mapping, 1.0) * 1.3;  // any speed reachable
      core::Problem p(dag, mapping, speeds, D);
      auto cf = api::solve(p, "closed-form-sp");
      auto ipm = api::solve(p, "continuous-ipm");
      ASSERT_TRUE(cf.is_ok()) << k;
      ASSERT_TRUE(ipm.is_ok()) << k;
      // 1e-11: the tightest bound that held with the centering run to its
      // step limit (worst 4.5e-12 over these 20 programs); it must hold
      // with the rounding-floor stop rule too.
      EXPECT_NEAR(ipm.value().energy / cf.value().energy, 1.0, 1e-11)
          << "family " << k << " trial " << trial;
    }
  }
}

TEST(CrossSolver, IncrementalBnbWithinApproxBoundOfContinuous) {
  common::Rng rng(103);
  for (int trial = 0; trial < 4; ++trial) {
    const auto dag = graph::make_chain(6, {1.0, 3.0}, rng);
    const auto topo = graph::topological_order(dag).value();
    const auto mapping = sched::Mapping::single_processor(dag, topo);
    const auto inc = SpeedModel::incremental(0.3, 1.2, 0.15);
    const double D = dag.total_weight() / 1.2 * rng.uniform(1.2, 2.0);
    core::Problem p(dag, mapping, inc, D);
    api::SolveOptions opts;
    opts.approx_K = 20;
    auto exact = api::solve(p, "discrete-bnb");
    auto approx = api::solve(p, "incremental-approx", opts);
    ASSERT_TRUE(exact.is_ok()) << trial;
    ASSERT_TRUE(approx.is_ok()) << trial;
    // exact <= approx <= bound * continuous <= bound * exact.
    EXPECT_LE(exact.value().energy, approx.value().energy * (1.0 + 1e-9)) << trial;
    EXPECT_LE(approx.value().energy,
              approx.value().gap_bound * exact.value().energy * (1.0 + 1e-9))
        << trial;
  }
}

TEST(CrossSolver, TriCritChainGreedyVsHeuristicsVsExact) {
  common::Rng rng(104);
  const auto speeds = SpeedModel::continuous(0.2, 1.0);
  const model::ReliabilityModel rel(1e-5, 3.0, 0.2, 1.0, 0.8);
  for (int trial = 0; trial < 4; ++trial) {
    const auto w = graph::random_weights(6, {0.5, 2.0}, rng);
    const auto dag = graph::make_chain(w);
    std::vector<graph::TaskId> order(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) order[i] = static_cast<int>(i);
    const auto mapping = sched::Mapping::single_processor(dag, order);
    double total = 0.0;
    for (double x : w) total += x;
    const double D = total / 0.8 * rng.uniform(1.3, 3.0);
    core::Problem p(dag, mapping, speeds, rel, D);
    auto exact = tricrit::solve_chain_exact(w, D, rel, speeds);
    auto greedy = tricrit::solve_chain_greedy(w, D, rel, speeds);
    auto best = api::solve(p, "best-of");
    ASSERT_TRUE(exact.is_ok()) << trial;
    ASSERT_TRUE(greedy.is_ok()) << trial;
    ASSERT_TRUE(best.is_ok()) << trial;
    const double opt = exact.value().solution.energy;
    // best-of energies rest on discrete re-execution choices made on
    // barrier slacks: a last-bit change in the barrier can flip a
    // near-tied choice and move the energy by up to ~0.4%. The bounds
    // here hold for either choice: never below the exact optimum (1e-6
    // relative), within 20% above it.
    EXPECT_GE(greedy.value().solution.energy, opt - 1e-9) << trial;
    EXPECT_GE(best.value().energy, opt * (1.0 - 1e-6)) << trial;
    EXPECT_LE(greedy.value().solution.energy, opt * 1.2) << trial;
    EXPECT_LE(best.value().energy, opt * 1.2) << trial;
  }
}

TEST(CrossSolver, TriCritForkPolyVsHeuristics) {
  common::Rng rng(105);
  const auto speeds = SpeedModel::continuous(0.2, 1.0);
  const model::ReliabilityModel rel(1e-5, 3.0, 0.2, 1.0, 0.8);
  for (int trial = 0; trial < 4; ++trial) {
    const auto w = graph::random_weights(6, {0.5, 2.0}, rng);
    const auto dag = graph::make_fork(w);
    const auto mapping = sched::Mapping::one_task_per_processor(dag);
    const double D = fmax_makespan(dag, mapping, 1.0) / 0.8 * rng.uniform(1.4, 3.0);
    core::Problem p(dag, mapping, speeds, rel, D);
    api::SolveOptions opts;
    opts.fork_grid = 2048;
    auto poly = api::solve(p, "fork-poly", opts);
    auto best = api::solve(p, "best-of");
    ASSERT_TRUE(poly.is_ok()) << trial;
    ASSERT_TRUE(best.is_ok()) << trial;
    // The dedicated poly algorithm should never lose to the generic
    // heuristics by more than numerical noise (1e-3), and usually wins.
    // best-of energies rest on discrete re-execution choices made on
    // barrier slacks: a last-bit change in the barrier can flip a
    // near-tied choice and move the energy by up to ~0.4%. The bounds
    // here hold for either choice: a flip only ever moves best-of
    // up from the optimum poly approximates.
    EXPECT_LE(poly.value().energy, best.value().energy * (1.0 + 1e-3)) << trial;
  }
}

TEST(CrossSolver, TriCritReducesToBiCritWithoutSlackForReexec) {
  // When D equals the all-single-at-frel makespan, TRI-CRIT collapses to
  // BI-CRIT with fmin replaced by frel.
  const auto dag = graph::make_chain({1.0, 2.0, 1.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
  const auto speeds = SpeedModel::continuous(0.2, 1.0);
  const model::ReliabilityModel rel(1e-5, 3.0, 0.2, 1.0, 0.8);
  const double D = 4.0 / 0.8;
  auto tri = tricrit::solve_chain_exact({1.0, 2.0, 1.0}, D, rel, speeds);
  auto bi = bicrit::solve_continuous(dag, mapping, D, SpeedModel::continuous(0.8, 1.0));
  ASSERT_TRUE(tri.is_ok());
  ASSERT_TRUE(bi.is_ok());
  EXPECT_NEAR(tri.value().solution.energy, bi.value().energy, 1e-4 * bi.value().energy);
}

TEST(CrossSolver, TriCritWithoutReexecMatchesBiCritAtFrelOnA32TaskDag) {
  // With no task re-executed, the TRI-CRIT speed program is BI-CRIT's with
  // the speed floor raised from fmin to frel: same coefficients w^3, same
  // bounds [w/fmax, w/frel]. Checked at interior deadlines, where both
  // answers come from the barrier and not from a boundary case.
  common::Rng rng(2024);
  const auto dag = graph::make_random_dag(32, 0.15, {1.0, 5.0}, rng);
  const auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
  const auto speeds = SpeedModel::continuous(0.2, 1.0);
  const model::ReliabilityModel rel(1e-5, 3.0, 0.2, 1.0, 0.8);
  const double m_fmax = fmax_makespan(dag, mapping, 1.0);
  const std::vector<bool> single(32, false);
  for (double stretch : {1.05, 1.12, 1.2}) {
    const double D = stretch * m_fmax;  // the all-frel makespan is 1.25 m_fmax
    auto tri = tricrit::continuous_with_modes(dag, mapping, D, rel, speeds, single);
    auto bi = bicrit::solve_continuous(dag, mapping, D, SpeedModel::continuous(0.8, 1.0));
    ASSERT_TRUE(tri.is_ok()) << stretch << ": " << tri.status().to_string();
    ASSERT_TRUE(bi.is_ok()) << stretch << ": " << bi.status().to_string();
    ASSERT_GT(bi.value().newton_steps, 0) << stretch;
    EXPECT_NEAR(tri.value().energy, bi.value().energy, 1e-9 * bi.value().energy) << stretch;
  }
}

TEST(CrossSolver, VddRoundingSandwich) {
  common::Rng rng(106);
  const auto levels = model::xscale_levels();
  for (int trial = 0; trial < 3; ++trial) {
    const auto dag = graph::make_layered(3, 3, 0.4, {1.0, 3.0}, rng);
    const auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
    const double D = fmax_makespan(dag, mapping, levels.back()) * 1.8;
    auto cont = bicrit::solve_continuous(
        dag, mapping, D, SpeedModel::continuous(levels.front(), levels.back()));
    ASSERT_TRUE(cont.is_ok());
    auto lp = bicrit::solve_vdd_lp(dag, mapping, D, SpeedModel::vdd_hopping(levels));
    auto rounded = bicrit::vdd_from_continuous(dag, cont.value().durations,
                                               SpeedModel::vdd_hopping(levels));
    ASSERT_TRUE(lp.is_ok());
    ASSERT_TRUE(rounded.is_ok());
    EXPECT_LE(cont.value().energy, lp.value().energy * (1.0 + 1e-6)) << trial;
    EXPECT_LE(lp.value().energy, rounded.value().energy * (1.0 + 1e-6)) << trial;
  }
}

}  // namespace
}  // namespace easched
