#include "core/problem.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace easched::core {
namespace {

Problem make_bicrit(double deadline = 10.0) {
  auto dag = graph::make_chain({1.0, 2.0});
  auto mapping = sched::Mapping::single_processor(dag, {0, 1});
  return Problem(std::move(dag), std::move(mapping),
                 model::SpeedModel::continuous(0.2, 1.0), deadline);
}

Problem make_tricrit(double deadline = 10.0) {
  auto dag = graph::make_chain({1.0, 2.0});
  auto mapping = sched::Mapping::single_processor(dag, {0, 1});
  return Problem(std::move(dag), std::move(mapping),
                        model::SpeedModel::continuous(0.2, 1.0),
                        model::ReliabilityModel(1e-5, 3.0, 0.2, 1.0, 0.8), deadline);
}

TEST(BiCritProblem, ValidInstancePasses) {
  EXPECT_TRUE(make_bicrit().validate().is_ok());
}

TEST(BiCritProblem, NonPositiveDeadlineRejected) {
  EXPECT_FALSE(make_bicrit(0.0).validate().is_ok());
  EXPECT_FALSE(make_bicrit(-5.0).validate().is_ok());
}

TEST(BiCritProblem, CheckAcceptsFeasibleSchedule) {
  const auto p = make_bicrit();
  const auto s = sched::Schedule::uniform(p.dag, 1.0);
  EXPECT_TRUE(p.check(s).is_ok());
}

TEST(BiCritProblem, CheckRejectsReexecution) {
  const auto p = make_bicrit(100.0);
  sched::Schedule s(2);
  s.at(0) = sched::TaskDecision::re_exec(1.0, 1.0);
  s.at(1) = sched::TaskDecision::single(1.0);
  EXPECT_FALSE(p.check(s).is_ok());
}

TEST(BiCritProblem, CheckRejectsDeadlineMiss) {
  const auto p = make_bicrit(1.0);
  const auto s = sched::Schedule::uniform(p.dag, 0.2);
  EXPECT_FALSE(p.check(s).is_ok());
}

TEST(TriCritProblem, ValidatesAndChecks) {
  const auto p = make_tricrit();
  EXPECT_TRUE(p.validate().is_ok());
  // At frel: fine. Below frel single: violation.
  EXPECT_TRUE(p.check(sched::Schedule::uniform(p.dag, 0.8)).is_ok());
  EXPECT_FALSE(p.check(sched::Schedule::uniform(p.dag, 0.5)).is_ok());
}

TEST(TriCritProblem, CheckAllowsReexecution) {
  const auto p = make_tricrit(100.0);
  sched::Schedule s(2);
  s.at(0) = sched::TaskDecision::re_exec(0.5, 0.5);
  s.at(1) = sched::TaskDecision::single(0.9);
  EXPECT_TRUE(p.check(s).is_ok());
}

}  // namespace
}  // namespace easched::core
