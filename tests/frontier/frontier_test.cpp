// FrontierEngine invariants — the ISSUE's property suite:
//  * every returned point is non-dominated (pairwise, under the axis'
//    dominance sense),
//  * the frontier is monotone along the constraint axis (energy strictly
//    decreasing in the deadline, strictly increasing in frel),
//  * cached (warm) and cold sweeps return bit-identical points, as do
//    sweeps on pools of different sizes.

#include "frontier/frontier.hpp"

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "core/corpus.hpp"
#include "frontier/analytics.hpp"

namespace easched::frontier {
namespace {

/// The pool every sweep below fans out on, unless a test compares sizes.
common::WorkerPool& pool() {
  static common::WorkerPool shared(4);
  return shared;
}

std::vector<core::Instance> small_corpus() {
  common::Rng rng(77);
  core::CorpusOptions options;
  options.tasks = 8;
  options.processors = 3;
  options.instances_per_family = 1;
  return core::standard_corpus(rng, options);
}

double fmax_deadline(const core::Instance& inst, double fmax) {
  return core::deadline_with_slack(inst, fmax, 1.0);
}

void expect_frontier_invariants(const FrontierResult& result, double lo, double hi) {
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const auto& p = result.points[i];
    EXPECT_GE(p.constraint, lo);
    EXPECT_LE(p.constraint, hi);
    EXPECT_GT(p.energy, 0.0);
    for (std::size_t j = 0; j < result.points.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(dominates(result.points[j], p, result.axis))
          << "point " << j << " dominates point " << i;
    }
  }
  for (std::size_t i = 0; i + 1 < result.points.size(); ++i) {
    EXPECT_LT(result.points[i].constraint, result.points[i + 1].constraint);
    if (result.axis == ConstraintAxis::kDeadline) {
      EXPECT_GT(result.points[i].energy, result.points[i + 1].energy)
          << "energy must strictly decrease as the deadline relaxes";
    } else {
      EXPECT_LT(result.points[i].energy, result.points[i + 1].energy)
          << "energy must strictly increase with the reliability threshold";
    }
  }
}

TEST(DeadlineSweep, FrontierInvariantsAcrossTheCorpus) {
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  FrontierEngine engine(pool());
  FrontierOptions options;
  options.initial_points = 7;
  options.max_points = 15;
  for (const auto& inst : small_corpus()) {
    const double base = fmax_deadline(inst, speeds.fmax());
    core::Problem problem(inst.dag, inst.mapping, speeds, base * 3.0);
    const auto result =
        engine.deadline_sweep(problem, base * 1.05, base * 3.0, options);
    EXPECT_GE(result.points.size(), 2u) << inst.name;
    EXPECT_LE(result.evaluated, static_cast<std::size_t>(options.max_points))
        << inst.name;
    expect_frontier_invariants(result, base * 1.05, base * 3.0);
  }
}

TEST(DeadlineSweep, RefinementSpendsBudgetWhereTheCurveBends) {
  // The energy-deadline curve follows W^3/D^2 — strongly convex near the
  // tight end — so bisection must add points beyond the initial grid.
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.05, 1.0);
  const auto& inst = corpus.front();  // chain
  const double base = fmax_deadline(inst, speeds.fmax());
  core::Problem problem(inst.dag, inst.mapping, speeds, base * 6.0);

  FrontierEngine engine(pool());
  FrontierOptions options;
  options.initial_points = 5;
  options.max_points = 17;
  const auto result = engine.deadline_sweep(problem, base * 1.02, base * 6.0, options);
  EXPECT_GT(result.evaluated, 5u) << "no refinement happened";

  // The refined points must cluster towards the knee: more evaluations in
  // the tight half of the range than the loose half.
  std::size_t tight = 0;
  const double mid = base * (1.02 + 6.0) / 2.0;
  for (const auto& p : result.points) {
    if (p.constraint < mid) ++tight;
  }
  EXPECT_GT(tight, result.points.size() / 2);
}

TEST(DeadlineSweep, InfeasibleRegionIsReportedNotReturned) {
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.2, 1.0);
  const auto& inst = corpus.front();
  const double base = fmax_deadline(inst, speeds.fmax());
  // Half the range lies below the all-fmax makespan: infeasible.
  core::Problem problem(inst.dag, inst.mapping, speeds, base * 2.0);
  FrontierEngine engine(pool());
  const auto result = engine.deadline_sweep(problem, base * 0.4, base * 2.0);
  EXPECT_GT(result.infeasible, 0u);
  for (const auto& p : result.points) {
    EXPECT_GE(p.constraint, base * 0.999);
  }
}

TEST(DeadlineSweep, ColdAndWarmSweepsAreBitIdentical) {
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  FrontierOptions options;
  options.initial_points = 6;
  options.max_points = 12;

  for (const auto& inst : small_corpus()) {
    const double base = fmax_deadline(inst, speeds.fmax());
    core::Problem problem(inst.dag, inst.mapping, speeds, base * 2.5);

    SolveCache cache;
    FrontierEngine cached_engine(pool(), &cache);
    FrontierEngine plain_engine(pool());

    const auto cold =
        cached_engine.deadline_sweep(problem, base * 1.1, base * 2.5, options);
    const auto warm =
        cached_engine.deadline_sweep(problem, base * 1.1, base * 2.5, options);
    const auto uncached =
        plain_engine.deadline_sweep(problem, base * 1.1, base * 2.5, options);

    EXPECT_EQ(warm.cache_hits, warm.evaluated) << inst.name;
    ASSERT_EQ(cold.points.size(), warm.points.size()) << inst.name;
    ASSERT_EQ(cold.points.size(), uncached.points.size()) << inst.name;
    for (std::size_t i = 0; i < cold.points.size(); ++i) {
      EXPECT_EQ(cold.points[i].constraint, warm.points[i].constraint);
      EXPECT_EQ(cold.points[i].energy, warm.points[i].energy);
      EXPECT_EQ(cold.points[i].makespan, warm.points[i].makespan);
      EXPECT_EQ(cold.points[i].solver, warm.points[i].solver);
      EXPECT_EQ(cold.points[i].energy, uncached.points[i].energy);
      EXPECT_EQ(cold.points[i].constraint, uncached.points[i].constraint);
    }
  }
}

TEST(DeadlineSweep, ThreadCountNeverChangesThePoints) {
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  const auto& inst = corpus.back();  // random-dag
  const double base = fmax_deadline(inst, speeds.fmax());
  core::Problem problem(inst.dag, inst.mapping, speeds, base * 3.0);

  common::WorkerPool one(1);
  common::WorkerPool eight(8);
  const FrontierEngine serial(one);
  const FrontierEngine wide(eight);
  const auto a = serial.deadline_sweep(problem, base * 1.05, base * 3.0);
  const auto b = wide.deadline_sweep(problem, base * 1.05, base * 3.0);
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    EXPECT_EQ(a.points[i].constraint, b.points[i].constraint);
    EXPECT_EQ(a.points[i].energy, b.points[i].energy);
  }
  EXPECT_EQ(a.evaluated, b.evaluated);
}

TEST(Resweep, BitIdenticalToColdSweepOfThePerturbedInstance) {
  // The ISSUE acceptance property: after perturbing one task weight, a
  // resweep seeded from the stale curve must return exactly the curve a
  // cold sweep of the perturbed instance returns — same constraints,
  // energies, makespans, solvers, bit for bit — across thread counts.
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  FrontierOptions options;
  options.initial_points = 6;
  options.max_points = 14;

  for (const auto& inst : small_corpus()) {
    const double base = fmax_deadline(inst, speeds.fmax());
    core::Problem problem(inst.dag, inst.mapping, speeds, base * 2.5);

    SolveCache cache;
    FrontierEngine engine(pool(), &cache);
    const auto prev = engine.deadline_sweep(problem, base * 1.1, base * 2.5, options);
    ASSERT_FALSE(prev.probes.empty()) << inst.name;

    // Perturb one weight; the perturbed instance shares nothing with the
    // cached entries (fresh digest), so the resweep does real solving.
    core::Problem perturbed = problem;
    perturbed.dag.set_weight(0, perturbed.dag.weight(0) * 1.05);

    FrontierEngine plain_engine(pool());  // no cache: the reference cold sweep
    const auto cold =
        plain_engine.deadline_sweep(perturbed, base * 1.1, base * 2.5, options);

    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      common::WorkerPool sized(threads);
      SolveCache resweep_cache;
      FrontierEngine resweep_engine(sized, &resweep_cache);
      const auto warm =
          resweep_engine.resweep(prev, perturbed, base * 1.1, base * 2.5, options);
      EXPECT_GT(warm.prefetched, 0u) << inst.name;
      ASSERT_EQ(cold.points.size(), warm.points.size())
          << inst.name << " threads=" << threads;
      for (std::size_t i = 0; i < cold.points.size(); ++i) {
        EXPECT_EQ(cold.points[i].constraint, warm.points[i].constraint) << inst.name;
        EXPECT_EQ(cold.points[i].energy, warm.points[i].energy) << inst.name;
        EXPECT_EQ(cold.points[i].makespan, warm.points[i].makespan) << inst.name;
        EXPECT_EQ(cold.points[i].solver, warm.points[i].solver) << inst.name;
        EXPECT_EQ(cold.points[i].exact, warm.points[i].exact) << inst.name;
      }
      ASSERT_EQ(cold.probes.size(), warm.probes.size()) << inst.name;
      for (std::size_t i = 0; i < cold.probes.size(); ++i) {
        EXPECT_EQ(cold.probes[i], warm.probes[i]) << inst.name;
      }
      EXPECT_EQ(cold.infeasible, warm.infeasible) << inst.name;
    }
  }
}

TEST(Resweep, ReplayFindsThePrefetchedProbesCached) {
  // When the instance did not change at all, the prefetch re-fills every
  // probe of the replay: the replayed sweep runs at pure cache speed.
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  const auto& inst = corpus.front();
  const double base = fmax_deadline(inst, speeds.fmax());
  core::Problem problem(inst.dag, inst.mapping, speeds, base * 2.5);

  SolveCache cache;
  FrontierEngine engine(pool(), &cache);
  FrontierOptions options;
  options.initial_points = 6;
  options.max_points = 14;
  const auto prev = engine.deadline_sweep(problem, base * 1.1, base * 2.5, options);

  SolveCache fresh_cache;
  FrontierEngine fresh_engine(pool(), &fresh_cache);
  const auto again = fresh_engine.resweep(prev, problem, base * 1.1, base * 2.5, options);
  EXPECT_EQ(again.cache_hits, again.evaluated)
      << "an unchanged instance must replay fully from the prefetch";
  ASSERT_EQ(prev.points.size(), again.points.size());
  for (std::size_t i = 0; i < prev.points.size(); ++i) {
    EXPECT_EQ(prev.points[i].energy, again.points[i].energy);
  }
}

TEST(Resweep, WithoutACacheDegeneratesToACorrectColdSweep) {
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  const auto& inst = corpus.front();
  const double base = fmax_deadline(inst, speeds.fmax());
  core::Problem problem(inst.dag, inst.mapping, speeds, base * 2.5);

  FrontierEngine plain_engine(pool());
  FrontierOptions options;
  options.initial_points = 5;
  options.max_points = 11;
  const auto cold = plain_engine.deadline_sweep(problem, base * 1.1, base * 2.5, options);
  const auto re = plain_engine.resweep(cold, problem, base * 1.1, base * 2.5, options);
  EXPECT_EQ(re.prefetched, 0u) << "no cache: prefetching would just double-solve";
  ASSERT_EQ(cold.points.size(), re.points.size());
  for (std::size_t i = 0; i < cold.points.size(); ++i) {
    EXPECT_EQ(cold.points[i].energy, re.points[i].energy);
    EXPECT_EQ(cold.points[i].constraint, re.points[i].constraint);
  }
}

TEST(ResweepReliability, BitIdenticalAcrossTheAxis) {
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.2, 1.0);
  const model::ReliabilityModel rel = model::default_reliability(0.2, 1.0, 0.9);
  const auto& inst = corpus.front();
  const double deadline = fmax_deadline(inst, speeds.fmax()) * 2.5;
  core::Problem problem(inst.dag, inst.mapping, speeds, rel, deadline);

  FrontierOptions options;
  options.initial_points = 5;
  options.max_points = 9;
  SolveCache cache;
  FrontierEngine engine(pool(), &cache);
  const auto prev = engine.reliability_sweep(problem, 0.3, 0.9, options);
  if (prev.points.empty()) GTEST_SKIP() << "family not handled by tri-crit heuristics";

  core::Problem perturbed = problem;
  perturbed.dag.set_weight(0, perturbed.dag.weight(0) * 1.05);

  FrontierEngine plain_engine(pool());
  const auto cold = plain_engine.reliability_sweep(perturbed, 0.3, 0.9, options);
  SolveCache fresh_cache;
  FrontierEngine fresh_engine(pool(), &fresh_cache);
  const auto warm = fresh_engine.resweep_reliability(prev, perturbed, 0.3, 0.9, options);
  ASSERT_EQ(cold.points.size(), warm.points.size());
  for (std::size_t i = 0; i < cold.points.size(); ++i) {
    EXPECT_EQ(cold.points[i].constraint, warm.points[i].constraint);
    EXPECT_EQ(cold.points[i].energy, warm.points[i].energy);
  }
}

TEST(ReliabilitySweep, FrontierInvariantsAndDeterminism) {
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.2, 1.0);
  const model::ReliabilityModel rel = model::default_reliability(0.2, 1.0, 0.9);
  FrontierOptions options;
  options.initial_points = 6;
  options.max_points = 12;

  for (const auto& inst : corpus) {
    const double deadline = fmax_deadline(inst, speeds.fmax()) * 2.5;
    core::Problem problem(inst.dag, inst.mapping, speeds, rel, deadline);

    SolveCache cache;
    FrontierEngine engine(pool(), &cache);
    const auto cold = engine.reliability_sweep(problem, 0.3, 0.9, options);
    if (cold.points.empty()) continue;  // family not handled by tri-crit heuristics
    expect_frontier_invariants(cold, 0.3, 0.9);

    const auto warm = engine.reliability_sweep(problem, 0.3, 0.9, options);
    EXPECT_EQ(warm.cache_hits, warm.evaluated) << inst.name;
    ASSERT_EQ(cold.points.size(), warm.points.size()) << inst.name;
    for (std::size_t i = 0; i < cold.points.size(); ++i) {
      EXPECT_EQ(cold.points[i].constraint, warm.points[i].constraint) << inst.name;
      EXPECT_EQ(cold.points[i].energy, warm.points[i].energy) << inst.name;
    }
  }
}

TEST(TriCritDeadlineSweep, FrontierInvariantsAtFixedReliability) {
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.2, 1.0);
  const model::ReliabilityModel rel = model::default_reliability(0.2, 1.0, 0.8);
  const auto& inst = corpus.front();
  const double base = fmax_deadline(inst, speeds.fmax());
  core::Problem problem(inst.dag, inst.mapping, speeds, rel, base * 3.0);

  FrontierEngine engine(pool());
  FrontierOptions options;
  options.initial_points = 6;
  options.max_points = 12;
  const auto result =
      engine.deadline_sweep(problem, base * 1.2, base * 3.0, options);
  EXPECT_TRUE(result.error.is_ok()) << result.error.to_string();
  EXPECT_GE(result.points.size(), 2u);
  expect_frontier_invariants(result, base * 1.2, base * 3.0);
}

TEST(FrontierSweep, UnknownSolverIsAnErrorNotInfeasibility) {
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  const auto& inst = corpus.front();
  const double base = fmax_deadline(inst, speeds.fmax());
  core::Problem problem(inst.dag, inst.mapping, speeds, base * 2.0);

  FrontierEngine engine(pool());
  FrontierOptions options;
  options.initial_points = 5;
  options.solver = "no-such-solver";
  const auto result = engine.deadline_sweep(problem, base * 1.1, base * 2.0, options);
  EXPECT_EQ(result.error.code(), common::StatusCode::kNotFound);
  EXPECT_TRUE(result.points.empty());
  EXPECT_EQ(result.infeasible, 0u)
      << "a request-level failure must not masquerade as infeasible points";
  EXPECT_EQ(result.evaluated, 5u) << "the sweep must stop refining after the grid";
}

TEST(FrontierSweep, SinglePointRangeAndFixedSolver) {
  const auto corpus = small_corpus();
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  const auto& inst = corpus.front();
  const double base = fmax_deadline(inst, speeds.fmax());
  core::Problem problem(inst.dag, inst.mapping, speeds, base * 2.0);

  FrontierEngine engine(pool());
  FrontierOptions options;
  options.solver = "continuous-ipm";
  const auto result = engine.deadline_sweep(problem, base * 2.0, base * 2.0, options);
  ASSERT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points[0].solver, "continuous-ipm");
  EXPECT_EQ(result.points[0].constraint, base * 2.0);
}

}  // namespace
}  // namespace easched::frontier
