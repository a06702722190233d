// Cross-cutting property sweeps: invariants that must hold for EVERY
// solver on EVERY instance family, parameterized over (family, slack).
//  P1  feasibility: whatever a solver returns passes the validator;
//  P2  dominance: no discrete-kind solver beats the continuous optimum;
//  P3  deadline monotonicity: more slack never costs energy;
//  P4  TRI-CRIT collapses to the frel-floored BI-CRIT when re-execution
//      is not used.

#include <gtest/gtest.h>

#include <string>

#include "api/registry.hpp"
#include "bicrit/continuous_dag.hpp"
#include "bicrit/discrete_exact.hpp"
#include "bicrit/vdd_lp.hpp"
#include "common/rng.hpp"
#include "core/corpus.hpp"
#include "core/problem.hpp"
#include "graph/analysis.hpp"
#include "tricrit/heuristics.hpp"

namespace easched {
namespace {

struct PropertyCase {
  const char* family;
  double slack;
};

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  std::string f = info.param.family;
  for (auto& c : f) {
    if (c == '-') c = '_';
  }
  return f + "_x" + std::to_string(static_cast<int>(info.param.slack * 100));
}

core::Instance make_instance(const char* family, common::Rng& rng) {
  core::CorpusOptions opt;
  opt.tasks = 9;
  opt.processors = 3;
  opt.instances_per_family = 1;
  for (auto& inst : core::standard_corpus(rng, opt)) {
    if (inst.name == family) return std::move(inst);
  }
  throw std::logic_error(std::string("unknown family ") + family);
}

class SolverPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SolverPropertyTest, AllBiCritSolversFeasibleAndOrdered) {
  common::Rng rng(301);
  auto inst = make_instance(GetParam().family, rng);
  const auto levels = model::xscale_levels();
  const double D = core::deadline_with_slack(inst, levels.back(), GetParam().slack);

  // Continuous optimum = the global lower bound for all level-based models.
  const auto cont_model = model::SpeedModel::continuous(levels.front(), levels.back());
  auto cont = bicrit::solve_continuous(inst.dag, inst.mapping, D, cont_model);
  ASSERT_TRUE(cont.is_ok()) << cont.status().to_string();
  core::Problem cont_problem(inst.dag, inst.mapping, cont_model, D);
  EXPECT_TRUE(cont_problem.check(cont.value().schedule).is_ok());

  // Registry solver names stand in for the retired core::BiCritSolver
  // enums (the shim mapped kVddLp -> "vdd-lp" and so on).
  struct Candidate {
    const char* name;
    model::SpeedModel speeds;
  };
  const std::vector<Candidate> candidates{
      {"vdd-lp", model::SpeedModel::vdd_hopping(levels)},
      {"discrete-bnb", model::SpeedModel::discrete(levels)},
      {"discrete-greedy", model::SpeedModel::discrete(levels)},
      {"incremental-approx",
       model::SpeedModel::incremental(levels.front(), levels.back(), 0.1)},
  };
  api::SolveOptions options;
  options.approx_K = 10;
  for (const auto& c : candidates) {
    core::Problem p(inst.dag, inst.mapping, c.speeds, D);
    auto r = api::solve(p, c.name, options);
    ASSERT_TRUE(r.is_ok()) << c.name << ": " << r.status().to_string();
    EXPECT_TRUE(p.check(r.value().schedule).is_ok()) << c.name;           // P1
    EXPECT_GE(r.value().energy, cont.value().energy * (1.0 - 1e-6)) << c.name;  // P2
  }
}

TEST_P(SolverPropertyTest, EnergyMonotoneInDeadline) {
  common::Rng rng(302);
  auto inst = make_instance(GetParam().family, rng);
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  double prev = 1e300;
  for (double extra : {1.0, 1.3, 1.8, 3.0}) {
    const double D = core::deadline_with_slack(inst, 1.0, GetParam().slack * extra);
    auto r = bicrit::solve_continuous(inst.dag, inst.mapping, D, speeds);
    ASSERT_TRUE(r.is_ok()) << extra;
    EXPECT_LE(r.value().energy, prev * (1.0 + 1e-7)) << extra;  // P3
    prev = r.value().energy;
  }
}

TEST_P(SolverPropertyTest, TriCritNeverWorseThanFrelFlooredBiCrit) {
  common::Rng rng(303);
  auto inst = make_instance(GetParam().family, rng);
  const model::ReliabilityModel rel(1e-5, 3.0, 0.1, 1.0, 0.8);
  const double D = core::deadline_with_slack(inst, 1.0, GetParam().slack) / rel.frel();
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  auto tri = tricrit::heuristic_best_of(inst.dag, inst.mapping, D, rel, speeds);
  ASSERT_TRUE(tri.is_ok()) << tri.status().to_string();
  // Validator with reliability on.
  core::Problem p(inst.dag, inst.mapping, speeds, rel, D);
  EXPECT_TRUE(p.check(tri.value().schedule).is_ok());
  // Baseline: the frel-floored BI-CRIT (no re-execution allowed).
  auto base = bicrit::solve_continuous(inst.dag, inst.mapping, D,
                                       model::SpeedModel::continuous(0.8, 1.0));
  if (base.is_ok()) {
    // A near-tied re-execution choice can flip with the barrier's last
    // bits, but best-of keeps the all-single candidate, this very program:
    // 1e-4 only has to cover barrier tolerance.
    EXPECT_LE(tri.value().energy, base.value().energy * (1.0 + 1e-4));  // P4
  }
}

INSTANTIATE_TEST_SUITE_P(FamilySlackGrid, SolverPropertyTest,
                         ::testing::Values(PropertyCase{"chain", 1.3},
                                           PropertyCase{"chain", 2.5},
                                           PropertyCase{"fork", 1.3},
                                           PropertyCase{"fork", 2.5},
                                           PropertyCase{"fork-join", 1.5},
                                           PropertyCase{"out-tree", 1.5},
                                           PropertyCase{"sp", 1.5},
                                           PropertyCase{"layered", 1.5},
                                           PropertyCase{"random-dag", 1.5},
                                           PropertyCase{"random-dag", 3.0}),
                         case_name);

}  // namespace
}  // namespace easched
