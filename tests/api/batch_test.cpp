// Batch acceptance: fanning the standard corpus (8 families x 3
// instances) across the engine's worker pool must return per-family
// aggregates identical to sequential solves — batching changes
// throughput, never results.

#include "api/batch.hpp"

#include <gtest/gtest.h>

#include "engine/engine.hpp"

namespace easched::api {
namespace {

/// Runs `jobs` as one batch on a fresh engine with a `threads`-worker pool.
BatchReport run_batch(std::vector<BatchJob> jobs, std::size_t threads = 4,
                      std::string solver = {}) {
  engine::EngineConfig config;
  config.threads = threads;
  auto eng = engine::Engine::create(config);
  EXPECT_TRUE(eng.is_ok());
  return eng.value().solve_batch(std::move(jobs), std::move(solver));
}

std::vector<core::Instance> standard_corpus_for_test() {
  common::Rng rng(42);
  core::CorpusOptions opt;
  opt.tasks = 10;
  opt.processors = 4;
  opt.instances_per_family = 3;
  return core::standard_corpus(rng, opt);
}

TEST(EngineBatch, MatchesSequentialSolvesExactly) {
  const auto corpus = standard_corpus_for_test();
  const auto jobs =
      corpus_bicrit_jobs(corpus, model::SpeedModel::continuous(0.1, 1.0), 1.6);
  ASSERT_EQ(jobs.size(), corpus.size());
  ASSERT_EQ(jobs.size(), 24u) << "standard corpus should be 8 families x 3 instances";

  const auto batch = run_batch(jobs);
  ASSERT_EQ(batch.results.size(), jobs.size());

  // Sequential reference: the exact same requests, one at a time.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto seq = solve(*jobs[i].bicrit);
    ASSERT_EQ(seq.is_ok(), batch.results[i].is_ok()) << jobs[i].family;
    if (!seq.is_ok()) continue;
    EXPECT_EQ(batch.results[i].value().energy, seq.value().energy) << jobs[i].family;
    EXPECT_EQ(batch.results[i].value().solver, seq.value().solver) << jobs[i].family;
    EXPECT_EQ(batch.results[i].value().re_executed, seq.value().re_executed);
  }

  // Per-family aggregates match the sequential accumulation bit for bit.
  std::map<std::string, common::OnlineStats> reference;
  std::size_t solved = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!batch.results[i].is_ok()) continue;
    reference[jobs[i].family].add(batch.results[i].value().energy);
    ++solved;
  }
  EXPECT_EQ(batch.solved, solved);
  EXPECT_EQ(batch.failed, jobs.size() - solved);
  EXPECT_EQ(batch.by_family.size(), 8u);
  for (const auto& [family, agg] : batch.by_family) {
    ASSERT_TRUE(reference.count(family)) << family;
    EXPECT_EQ(agg.energy.count(), reference[family].count()) << family;
    EXPECT_EQ(agg.energy.mean(), reference[family].mean()) << family;
    EXPECT_EQ(agg.energy.variance(), reference[family].variance()) << family;
    EXPECT_EQ(agg.wall_ms.count(), agg.energy.count()) << family;
    EXPECT_EQ(agg.solved + agg.failed, 3u) << family;
  }
}

TEST(EngineBatch, ThreadCountNeverChangesResults) {
  const auto corpus = standard_corpus_for_test();
  const auto jobs =
      corpus_bicrit_jobs(corpus, model::SpeedModel::discrete(model::xscale_levels()), 1.8);

  const auto a = run_batch(jobs, /*threads=*/1);
  const auto b = run_batch(jobs, /*threads=*/8);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].is_ok(), b.results[i].is_ok()) << i;
    if (!a.results[i].is_ok()) {
      EXPECT_EQ(a.results[i].status().code(), b.results[i].status().code()) << i;
      continue;
    }
    EXPECT_EQ(a.results[i].value().energy, b.results[i].value().energy) << i;
    EXPECT_EQ(a.results[i].value().solver, b.results[i].value().solver) << i;
  }
}

TEST(EngineBatch, TriCritCorpusAggregates) {
  common::Rng rng(43);
  core::CorpusOptions opt;
  opt.tasks = 6;
  opt.processors = 3;
  opt.instances_per_family = 1;
  const auto corpus = core::standard_corpus(rng, opt);
  const model::ReliabilityModel rel(1e-5, 3.0, 0.2, 1.0, 0.8);
  const auto jobs =
      corpus_tricrit_jobs(corpus, model::SpeedModel::continuous(0.2, 1.0), rel, 2.0);

  const auto batch = run_batch(jobs);
  EXPECT_EQ(batch.solved + batch.failed, jobs.size());
  EXPECT_GT(batch.solved, 0u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!batch.results[i].is_ok()) continue;
    EXPECT_EQ(batch.results[i].value().problem, ProblemKind::kTriCrit);
    EXPECT_TRUE(jobs[i].tricrit->check(batch.results[i].value().schedule).is_ok())
        << jobs[i].family;
  }
}

TEST(EngineBatch, PerJobFailuresAreIsolated) {
  const auto corpus = standard_corpus_for_test();
  auto jobs = corpus_bicrit_jobs(corpus, model::SpeedModel::continuous(0.1, 1.0), 1.6);
  jobs.resize(3);
  jobs[1].solver = "no-such-solver";  // per-job override with an unknown name

  const auto batch = run_batch(jobs);
  ASSERT_EQ(batch.results.size(), 3u);
  EXPECT_TRUE(batch.results[0].is_ok());
  EXPECT_EQ(batch.results[1].status().code(), common::StatusCode::kNotFound);
  EXPECT_TRUE(batch.results[2].is_ok());
  EXPECT_EQ(batch.failed, 1u);
  EXPECT_EQ(batch.solved, 2u);
}

TEST(EngineBatch, BatchLevelSolverOverrideApplies) {
  const auto corpus = standard_corpus_for_test();
  auto jobs = corpus_bicrit_jobs(corpus, model::SpeedModel::continuous(0.05, 1.0), 2.0);

  // Force IPM even where closed forms exist.
  const auto batch = run_batch(jobs, /*threads=*/4, "continuous-ipm");
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    if (!batch.results[i].is_ok()) continue;
    EXPECT_EQ(batch.results[i].value().solver, "continuous-ipm") << jobs[i].family;
  }
  EXPECT_GT(batch.solved, 0u);
}

TEST(EngineBatch, MalformedJobReported) {
  BatchJob empty;
  empty.family = "broken";
  const auto batch = run_batch({empty});
  ASSERT_EQ(batch.results.size(), 1u);
  EXPECT_EQ(batch.results[0].status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_EQ(batch.by_family.at("broken").failed, 1u);
}

}  // namespace
}  // namespace easched::api
