// The registry contract: capability-based auto-selection picks the
// expected solver for every (speed model x structure) cell, explicit
// names resolve (or cleanly fail with kNotFound), and requests are
// validated before any solver runs.

#include "api/registry.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"

namespace easched::api {
namespace {

using model::SpeedModel;

core::Problem chain_problem(SpeedModel speeds, double deadline = 8.0) {
  auto dag = graph::make_chain({2.0, 3.0, 5.0});
  auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
  return core::Problem(std::move(dag), std::move(mapping), std::move(speeds),
                       deadline);
}

core::Problem fork_problem(SpeedModel speeds, int processors, double deadline = 8.0) {
  auto dag = graph::make_fork({2.0, 1.0, 1.5, 1.0});
  auto mapping = processors >= dag.num_tasks()
                     ? sched::Mapping::one_task_per_processor(dag)
                     : sched::list_schedule(dag, processors,
                                            sched::PriorityPolicy::kCriticalPath);
  return core::Problem(std::move(dag), std::move(mapping), std::move(speeds),
                       deadline);
}

/// Diamond = fork-join: series-parallel but neither chain nor fork.
core::Problem sp_problem(SpeedModel speeds, double deadline = 10.0) {
  auto dag = graph::make_fork_join({1.0, 2.0, 2.0, 1.0});
  auto mapping = sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
  return core::Problem(std::move(dag), std::move(mapping), std::move(speeds),
                       deadline);
}

/// The "N" graph — the canonical non-series-parallel DAG.
graph::Dag n_graph() {
  graph::Dag dag;
  const auto a = dag.add_task(1.0, "a");
  const auto b = dag.add_task(1.0, "b");
  const auto c = dag.add_task(1.0, "c");
  const auto d = dag.add_task(1.0, "d");
  dag.add_edge(a, c);
  dag.add_edge(a, d);
  dag.add_edge(b, d);
  return dag;
}

core::Problem general_problem(SpeedModel speeds, double deadline = 10.0) {
  auto dag = n_graph();
  auto mapping = sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
  return core::Problem(std::move(dag), std::move(mapping), std::move(speeds),
                       deadline);
}

TEST(ClassifyStructure, MostSpecificClassWins) {
  EXPECT_EQ(classify_structure(graph::make_chain({1.0, 1.0})), GraphClass::kChain);
  EXPECT_EQ(classify_structure(graph::make_fork({1.0, 1.0, 1.0})), GraphClass::kFork);
  EXPECT_EQ(classify_structure(graph::make_fork_join({1.0, 1.0, 1.0, 1.0})),
            GraphClass::kSeriesParallel);
  EXPECT_EQ(classify_structure(n_graph()), GraphClass::kGeneral);
}

struct SelectionCase {
  const char* label;
  core::Problem problem;
  const char* expected_solver;
};

// The (speed model x structure) auto-selection matrix. The CONTINUOUS
// rows reproduce the old facade's kAuto routing exactly: closed forms
// only for chains and processor-rich forks, interior point elsewhere
// (including SP graphs — the SP closed form assumes one processor per
// branch and stays explicit-only).
TEST(AutoSelection, SpeedModelTimesStructureMatrix) {
  const auto levels = std::vector<double>{0.5, 1.0, 2.0};
  std::vector<SelectionCase> cases;
  cases.push_back({"continuous/chain", chain_problem(SpeedModel::continuous(0.1, 10.0)),
                   "closed-form-chain"});
  cases.push_back({"continuous/fork", fork_problem(SpeedModel::continuous(0.1, 10.0), 4),
                   "closed-form-fork"});
  cases.push_back({"continuous/fork-mapped",
                   fork_problem(SpeedModel::continuous(0.1, 10.0), 2), "continuous-ipm"});
  cases.push_back(
      {"continuous/sp", sp_problem(SpeedModel::continuous(0.1, 10.0)), "continuous-ipm"});
  cases.push_back({"continuous/general", general_problem(SpeedModel::continuous(0.1, 10.0)),
                   "continuous-ipm"});
  cases.push_back(
      {"vdd/chain", chain_problem(SpeedModel::vdd_hopping(levels)), "vdd-lp"});
  cases.push_back(
      {"vdd/general", general_problem(SpeedModel::vdd_hopping(levels)), "vdd-lp"});
  cases.push_back(
      {"discrete/chain", chain_problem(SpeedModel::discrete(levels)), "discrete-bnb"});
  cases.push_back(
      {"discrete/general", general_problem(SpeedModel::discrete(levels)), "discrete-bnb"});
  cases.push_back({"incremental/chain",
                   chain_problem(SpeedModel::incremental(0.5, 2.5, 0.25)), "discrete-bnb"});

  for (auto& c : cases) {
    auto r = solve(c.problem);
    ASSERT_TRUE(r.is_ok()) << c.label << ": " << r.status().to_string();
    EXPECT_EQ(r.value().solver, c.expected_solver) << c.label;
    EXPECT_TRUE(c.problem.check(r.value().schedule).is_ok()) << c.label;
    EXPECT_GT(r.value().energy, 0.0) << c.label;
  }
}

TEST(AutoSelection, LargeDiscreteSearchSpaceFallsBackToGreedy) {
  common::Rng rng(7);
  auto dag = graph::make_random_dag(40, 0.1, {1.0, 3.0}, rng);
  auto mapping = sched::list_schedule(dag, 4, sched::PriorityPolicy::kCriticalPath);
  core::Problem p(std::move(dag), std::move(mapping),
                  SpeedModel::discrete(model::xscale_levels()), 400.0);
  auto r = solve(p);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().solver, "discrete-greedy");
}

core::Problem tri_problem(graph::Dag dag, sched::Mapping mapping,
                          double deadline) {
  return core::Problem(std::move(dag), std::move(mapping),
                       SpeedModel::continuous(0.2, 1.0),
                       model::ReliabilityModel(1e-5, 3.0, 0.2, 1.0, 0.8), deadline);
}

TEST(AutoSelection, TriCritRoutesByStructure) {
  {
    auto dag = graph::make_chain({1.0, 2.0, 1.5});
    auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
    auto p = tri_problem(std::move(dag), std::move(mapping), 12.0);
    auto r = solve(p);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().solver, "chain-greedy");
  }
  {
    auto dag = graph::make_fork({2.0, 1.0, 1.0});
    auto mapping = sched::Mapping::one_task_per_processor(dag);
    auto p = tri_problem(std::move(dag), std::move(mapping), 10.0);
    auto r = solve(p);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().solver, "fork-poly");
  }
  {
    auto dag = n_graph();
    auto mapping = sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
    auto p = tri_problem(std::move(dag), std::move(mapping), 12.0);
    auto r = solve(p);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    EXPECT_EQ(r.value().solver, "best-of");
    EXPECT_TRUE(p.check(r.value().schedule).is_ok());
  }
}

TEST(AutoSelection, TriCritVddRoutesToAdaptation) {
  auto dag = graph::make_chain({1.0, 2.0, 1.5});
  auto mapping = sched::Mapping::single_processor(dag, {0, 1, 2});
  core::Problem p(std::move(dag), std::move(mapping),
                  SpeedModel::vdd_hopping({0.2, 0.4, 0.6, 0.8, 1.0}),
                  model::ReliabilityModel(1e-5, 3.0, 0.2, 1.0, 0.8), 14.0);
  auto r = solve(p);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().solver, "vdd-adapt");
  EXPECT_TRUE(p.check(r.value().schedule).is_ok());
}

TEST(ExplicitSelection, ByNameBypassesAutoProfile) {
  // closed-form-sp is never auto-selected but runs fine by name.
  auto p = sp_problem(SpeedModel::continuous(1e-4, 1e4));
  auto sp = solve(p, "closed-form-sp");
  auto ipm = solve(p, "continuous-ipm");
  ASSERT_TRUE(sp.is_ok()) << sp.status().to_string();
  ASSERT_TRUE(ipm.is_ok());
  EXPECT_EQ(sp.value().solver, "closed-form-sp");
  EXPECT_NEAR(sp.value().energy, ipm.value().energy, 5e-4 * sp.value().energy);
}

TEST(ExplicitSelection, UnknownNameIsNotFound) {
  auto p = chain_problem(SpeedModel::continuous(0.1, 10.0));
  auto r = solve(p, "no-such-solver");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kNotFound);
  // The message lists the registered alternatives.
  EXPECT_NE(r.status().message().find("closed-form-chain"), std::string::npos);
}

TEST(Validation, MalformedProblemsNeverReachASolver) {
  auto negative_deadline = chain_problem(SpeedModel::continuous(0.1, 10.0), -1.0);
  auto r = solve(negative_deadline);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kInvalidArgument);

  // Also through explicit names and bad options.
  EXPECT_EQ(solve(negative_deadline, "continuous-ipm").status().code(),
            common::StatusCode::kInvalidArgument);
  auto p = chain_problem(SpeedModel::continuous(0.1, 10.0));
  SolveOptions bad;
  bad.deadline_slack = 0.0;
  EXPECT_EQ(solve(p, bad).status().code(), common::StatusCode::kInvalidArgument);
}

TEST(Options, DeadlineSlackPolicyScalesTheDeadline) {
  auto p = chain_problem(SpeedModel::continuous(0.1, 10.0), 4.0);
  SolveOptions relaxed;
  relaxed.deadline_slack = 2.0;
  auto tight = solve(p);
  auto loose = solve(p, relaxed);
  ASSERT_TRUE(tight.is_ok());
  ASSERT_TRUE(loose.is_ok());
  // Chain closed form: E = W^3 / D^2, so doubling D quarters the energy.
  EXPECT_NEAR(loose.value().energy, tight.value().energy / 4.0,
              1e-9 * tight.value().energy);
}

TEST(Registry, DuplicateNamesRejected) {
  class Dummy final : public Solver {
   public:
    std::string_view name() const noexcept override { return "vdd-lp"; }
    const Capabilities& capabilities() const noexcept override {
      static const Capabilities caps{};
      return caps;
    }

   protected:
    common::Result<SolveReport> do_run(const SolveRequest&) const override {
      return common::Status::internal("unreachable");
    }
  };
  auto st = SolverRegistry::instance().add(std::make_unique<Dummy>());
  EXPECT_EQ(st.code(), common::StatusCode::kInvalidArgument);
}

TEST(Registry, NamesCoverBothProblemKinds) {
  const auto& registry = SolverRegistry::instance();
  const auto bi = registry.names(ProblemKind::kBiCrit);
  const auto tri = registry.names(ProblemKind::kTriCrit);
  EXPECT_GE(bi.size(), 9u);
  EXPECT_GE(tri.size(), 8u);
  EXPECT_EQ(registry.names().size(), bi.size() + tri.size());
  EXPECT_NE(registry.find("chain-bnb"), nullptr);
  EXPECT_EQ(registry.find("nope"), nullptr);
}

TEST(Telemetry, ReportCarriesSolverNameWallTimeAndMakespan) {
  auto p = chain_problem(SpeedModel::continuous(0.1, 10.0), 4.0);
  auto r = solve(p);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().problem, ProblemKind::kBiCrit);
  EXPECT_GE(r.value().wall_ms, 0.0);
  EXPECT_NEAR(r.value().makespan, 4.0, 1e-9);  // chain optimum uses the whole deadline
  EXPECT_TRUE(r.value().exact);
}

}  // namespace
}  // namespace easched::api
