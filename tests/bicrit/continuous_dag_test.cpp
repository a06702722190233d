#include "bicrit/continuous_dag.hpp"

#include <gtest/gtest.h>

#include "bicrit/closed_form.hpp"
#include "common/rng.hpp"
#include "core/corpus.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/validator.hpp"

namespace easched::bicrit {
namespace {

using model::SpeedModel;

sched::ValidationInput make_input(const SpeedModel& sm, double deadline) {
  sched::ValidationInput in;
  in.speed_model = &sm;
  in.deadline = deadline;
  return in;
}

TEST(ContinuousDag, ChainMatchesClosedForm) {
  const auto dag = graph::make_chain({2.0, 3.0, 5.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
  const auto speeds = SpeedModel::continuous(0.1, 10.0);
  auto ipm = solve_continuous(dag, mapping, 4.0, speeds);
  auto cf = solve_chain(dag, 4.0, speeds);
  ASSERT_TRUE(ipm.is_ok()) << ipm.status().to_string();
  ASSERT_TRUE(cf.is_ok());
  EXPECT_NEAR(ipm.value().energy, cf.value().energy, 1e-5 * cf.value().energy);
}

TEST(ContinuousDag, ForkMatchesPaperTheorem) {
  const auto dag = graph::make_fork({2.0, 1.0, 2.0, 3.0});
  const auto mapping = sched::Mapping::one_task_per_processor(dag);
  const auto speeds = SpeedModel::continuous(0.01, 10.0);
  auto ipm = solve_continuous(dag, mapping, 10.0, speeds);
  auto cf = solve_fork(dag, 10.0, speeds);
  ASSERT_TRUE(ipm.is_ok());
  ASSERT_TRUE(cf.is_ok());
  EXPECT_NEAR(ipm.value().energy, cf.value().energy, 1e-5 * cf.value().energy);
}

TEST(ContinuousDag, SeriesParallelMatchesClosedForm) {
  common::Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const auto dag = graph::make_random_series_parallel(10, {1.0, 3.0}, rng);
    const auto mapping = sched::Mapping::one_task_per_processor(dag);
    const double D = 25.0;
    const auto speeds = SpeedModel::continuous(1e-4, 1e4);
    auto ipm = solve_continuous(dag, mapping, D, speeds);
    auto cf = solve_series_parallel(dag, D, speeds);
    ASSERT_TRUE(ipm.is_ok()) << trial << ": " << ipm.status().to_string();
    ASSERT_TRUE(cf.is_ok()) << trial;
    EXPECT_NEAR(ipm.value().energy, cf.value().energy, 2e-4 * cf.value().energy)
        << "trial " << trial;
  }
}

// Newton steps are an exact, deterministic count, so this gate has no
// noise. A centering that ran on below the rounding floor of t·f + φ
// took ~290 steps a solve on this corpus; stopping once a step no longer
// lowers it takes ~96.
TEST(ContinuousDag, MeanNewtonStepsOnA32TaskCorpus) {
  common::Rng rng(7);
  core::CorpusOptions corpus;
  corpus.tasks = 32;
  corpus.processors = 3;
  corpus.instances_per_family = 2;
  const auto speeds = SpeedModel::continuous(0.2, 1.0);
  long steps = 0;
  int solves = 0;
  for (const auto& inst : core::standard_corpus(rng, corpus)) {
    for (double slack : {1.5, 3.0}) {
      const double D = core::deadline_with_slack(inst, speeds.fmax(), slack);
      auto r = solve_continuous(inst.dag, inst.mapping, D, speeds);
      ASSERT_TRUE(r.is_ok()) << inst.name << ": " << r.status().to_string();
      ASSERT_GT(r.value().newton_steps, 0) << inst.name;  // the barrier ran
      steps += r.value().newton_steps;
      ++solves;
    }
  }
  ASSERT_EQ(solves, 32);
  EXPECT_LE(static_cast<double>(steps) / solves, 130.0);
}

TEST(ContinuousDag, SchedulesAreAlwaysFeasible) {
  common::Rng rng(3);
  for (int trial = 0; trial < 6; ++trial) {
    const auto dag = graph::make_layered(3, 4, 0.4, {1.0, 5.0}, rng);
    const auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
    const auto speeds = SpeedModel::continuous(0.2, 2.0);
    // Deadline with 1.6x headroom over the all-fmax makespan.
    std::vector<double> dmax(static_cast<std::size_t>(dag.num_tasks()));
    for (int t = 0; t < dag.num_tasks(); ++t) {
      dmax[static_cast<std::size_t>(t)] = dag.weight(t) / speeds.fmax();
    }
    const double ms = graph::time_analysis(mapping.augmented_graph(dag), dmax, 0.0).makespan;
    const double D = ms * 1.6;
    auto r = solve_continuous(dag, mapping, D, speeds);
    ASSERT_TRUE(r.is_ok()) << trial << ": " << r.status().to_string();
    EXPECT_TRUE(
        sched::validate_schedule(dag, mapping, r.value().schedule, make_input(speeds, D))
            .is_ok())
        << "trial " << trial;
  }
}

TEST(ContinuousDag, InfeasibleWhenDeadlineBelowFmaxMakespan) {
  const auto dag = graph::make_chain({4.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0});
  EXPECT_FALSE(
      solve_continuous(dag, mapping, 1.0, SpeedModel::continuous(0.5, 2.0)).is_ok());
}

TEST(ContinuousDag, AllFminWhenDeadlineIsLoose) {
  const auto dag = graph::make_chain({1.0, 1.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0, 1});
  const auto speeds = SpeedModel::continuous(0.5, 2.0);
  auto r = solve_continuous(dag, mapping, 100.0, speeds);
  ASSERT_TRUE(r.is_ok());
  for (int t = 0; t < 2; ++t) {
    EXPECT_DOUBLE_EQ(r.value().schedule.at(t).executions.front().speed, 0.5);
  }
}

TEST(ContinuousDag, TightDeadlineReturnsAllFmax) {
  const auto dag = graph::make_chain({2.0, 2.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0, 1});
  const auto speeds = SpeedModel::continuous(0.5, 2.0);
  auto r = solve_continuous(dag, mapping, 2.0, speeds);  // exactly fmax makespan
  ASSERT_TRUE(r.is_ok());
  for (int t = 0; t < 2; ++t) {
    EXPECT_DOUBLE_EQ(r.value().schedule.at(t).executions.front().speed, 2.0);
  }
}

TEST(ContinuousDag, MappingConstraintsRaiseEnergy) {
  // The same fork on 3 processors vs. serialised on 1: the 1-proc mapping
  // forces more total speed, hence at least as much energy.
  const auto dag = graph::make_fork({1.0, 2.0, 2.0});
  const auto speeds = SpeedModel::continuous(0.01, 10.0);
  const double D = 4.0;
  const auto par = sched::Mapping::one_task_per_processor(dag);
  auto mapping1 = sched::Mapping(1, 3);
  mapping1.assign(0, 0);
  mapping1.assign(1, 0);
  mapping1.assign(2, 0);
  auto r_par = solve_continuous(dag, par, D, speeds);
  auto r_one = solve_continuous(dag, mapping1, D, speeds);
  ASSERT_TRUE(r_par.is_ok());
  ASSERT_TRUE(r_one.is_ok());
  EXPECT_GE(r_one.value().energy, r_par.value().energy - 1e-9);
}

TEST(ContinuousDag, EnergyDecreasesWithDeadline) {
  common::Rng rng(5);
  const auto dag = graph::make_random_dag(12, 0.25, {1.0, 4.0}, rng);
  const auto mapping = sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
  const auto speeds = SpeedModel::continuous(0.05, 2.0);
  std::vector<double> dmax(static_cast<std::size_t>(dag.num_tasks()));
  for (int t = 0; t < dag.num_tasks(); ++t) {
    dmax[static_cast<std::size_t>(t)] = dag.weight(t) / speeds.fmax();
  }
  const double base = graph::time_analysis(mapping.augmented_graph(dag), dmax, 0.0).makespan;
  double prev = 1e300;
  for (double factor : {1.1, 1.4, 2.0, 3.0}) {
    auto r = solve_continuous(dag, mapping, base * factor, speeds);
    ASSERT_TRUE(r.is_ok()) << factor;
    EXPECT_LE(r.value().energy, prev * (1.0 + 1e-9)) << factor;
    prev = r.value().energy;
  }
}

TEST(ContinuousDag, GapCertificateIsSmall) {
  const auto dag = graph::make_chain({1.0, 2.0, 3.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
  auto r = solve_continuous(dag, mapping, 4.0, SpeedModel::continuous(0.1, 10.0));
  ASSERT_TRUE(r.is_ok());
  EXPECT_LT(r.value().gap_bound, 1e-6);
}

TEST(ContinuousDag, RejectsZeroWeights) {
  graph::Dag dag;
  dag.add_task(0.0);
  auto mapping = sched::Mapping(1, 1);
  mapping.assign(0, 0);
  EXPECT_FALSE(solve_continuous(dag, mapping, 1.0, SpeedModel::continuous(0.1, 1.0)).is_ok());
}

TEST(ContinuousDag, RejectsDiscreteModel) {
  const auto dag = graph::make_chain({1.0});
  const auto mapping = sched::Mapping::single_processor(dag, {0});
  EXPECT_FALSE(solve_continuous(dag, mapping, 10.0, SpeedModel::discrete({1.0})).is_ok());
}

}  // namespace
}  // namespace easched::bicrit
