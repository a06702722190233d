// serve::build_problem and serve::ProblemMemo: the daemon's spec -> built
// problem layer, without sockets.
//   * a repeat spec returns the very same built problem;
//   * the memo evicts least-recently-used problems to stay in budget;
//   * failed builds and over-budget problems are never memoized;
//   * the processor bound is checked before anything is built.

#include "serve/problem.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/dag.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "obs/metrics.hpp"

namespace easched::serve {
namespace {

ProblemSpec make_spec(std::uint64_t seed, int tasks, std::int32_t processors = 3) {
  common::Rng rng(seed);
  ProblemSpec spec;
  spec.dag_text = graph::to_text(graph::make_random_dag(tasks, 0.2, {1.0, 4.0}, rng));
  spec.processors = processors;
  spec.fmin = 0.1;
  spec.fmax = 1.0;
  spec.deadline = 100.0;
  return spec;
}

/// The memo's counters and resident-bytes gauge, read back from its registry.
struct MemoSeries {
  explicit MemoSeries(obs::Registry& registry)
      : hits(registry.counter("easched_serve_problem_memo_hits_total")),
        misses(registry.counter("easched_serve_problem_memo_misses_total")),
        evictions(registry.counter("easched_serve_problem_memo_evictions_total")),
        bytes(registry.gauge("easched_serve_problem_memo_bytes")) {}
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Gauge* bytes;
};

TEST(ProblemMemo, RepeatSpecReturnsTheSameBuiltProblem) {
  obs::Registry registry;
  const MemoSeries series(registry);
  ProblemMemo memo(&registry);
  const ProblemSpec spec = make_spec(1, 32);
  auto first = memo.get(spec);
  auto second = memo.get(spec);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(first.value()->kind(), core::ProblemKind::kBiCrit);
  // A 32-task problem is charged a few KB: the budget holds dozens.
  EXPECT_GT(memo.bytes(), footprint_bytes(first.value()));
  EXPECT_LT(memo.bytes(), ProblemMemo::kBudgetBytes / 32);

  // Any byte of the spec is part of the key: another deadline is another
  // problem.
  ProblemSpec later = spec;
  later.deadline = 120.0;
  auto third = memo.get(later);
  ASSERT_TRUE(third.is_ok());
  EXPECT_NE(third.value().get(), first.value().get());
  EXPECT_EQ(third.value()->deadline, 120.0);

  EXPECT_EQ(series.hits->value(), 1u);
  EXPECT_EQ(series.misses->value(), 2u);
  EXPECT_EQ(series.evictions->value(), 0u);
  EXPECT_EQ(series.bytes->value(), static_cast<double>(memo.bytes()));
}

TEST(ProblemMemo, FootprintCountsTheBuiltProblem) {
  auto small = build_problem(make_spec(2, 8), 100.0);
  auto large = build_problem(make_spec(2, 64), 100.0);
  auto wide = build_problem(make_spec(2, 8, 4096), 100.0);
  ASSERT_TRUE(small.is_ok());
  ASSERT_TRUE(large.is_ok());
  ASSERT_TRUE(wide.is_ok());
  // At least the task weights and the processor assignment of every task.
  EXPECT_GE(footprint_bytes(small.value()), 8 * (sizeof(double) + sizeof(int)));
  EXPECT_GT(footprint_bytes(large.value()), 4 * footprint_bytes(small.value()));
  // One order vector per processor, used or not.
  EXPECT_GE(footprint_bytes(wide.value()), 4096 * sizeof(std::vector<graph::TaskId>));
}

TEST(ProblemMemo, EvictsLeastRecentlyUsedWithinBudget) {
  // 8192 processors make each problem ~200 KB, so the 1 MiB budget holds
  // about five of the eight.
  std::vector<ProblemSpec> specs;
  for (std::uint64_t s = 0; s < 8; ++s) specs.push_back(make_spec(10 + s, 12, 8192));

  obs::Registry registry;
  const MemoSeries series(registry);
  ProblemMemo memo(&registry);
  for (const auto& spec : specs) {
    ASSERT_TRUE(memo.get(spec).is_ok());
    EXPECT_GT(memo.bytes(), 0u);
    EXPECT_LE(memo.bytes(), ProblemMemo::kBudgetBytes);
  }
  const std::uint64_t evicted = series.evictions->value();
  EXPECT_GE(evicted, 2u);
  EXPECT_LE(evicted, 6u);

  // The newest problem is resident; the oldest was evicted and rebuilds.
  ASSERT_TRUE(memo.get(specs.back()).is_ok());
  EXPECT_EQ(series.hits->value(), 1u);
  ASSERT_TRUE(memo.get(specs.front()).is_ok());
  EXPECT_EQ(series.hits->value(), 1u);
  EXPECT_EQ(series.misses->value(), specs.size() + 1);
  EXPECT_GT(series.evictions->value(), evicted);
  EXPECT_LE(memo.bytes(), ProblemMemo::kBudgetBytes);
}

TEST(ProblemMemo, FailedAndOversizedBuildsAreNotMemoized) {
  obs::Registry registry;
  const MemoSeries series(registry);
  ProblemMemo memo(&registry);
  ProblemSpec malformed = make_spec(3, 8);
  malformed.dag_text = "not a dag";
  for (int i = 0; i < 2; ++i) {
    auto built = memo.get(malformed);
    ASSERT_FALSE(built.is_ok());
    EXPECT_EQ(built.status().code(), common::StatusCode::kInvalidArgument);
  }
  ProblemSpec bad_speeds = make_spec(3, 8);
  bad_speeds.fmin = 2.0;  // above fmax: the model constructor refuses it
  EXPECT_FALSE(memo.get(bad_speeds).is_ok());
  EXPECT_EQ(series.misses->value(), 3u);
  EXPECT_EQ(memo.bytes(), 0u);

  // A problem larger than the whole budget (65536 order vectors) is
  // served, not memoized, and evicts nothing.
  ASSERT_TRUE(memo.get(make_spec(4, 12)).is_ok());
  const std::size_t resident = memo.bytes();
  ASSERT_TRUE(memo.get(make_spec(4, 12, kMaxProcessors)).is_ok());
  EXPECT_EQ(memo.bytes(), resident);
  EXPECT_EQ(series.evictions->value(), 0u);
}

TEST(ProblemMemo, ProcessorBoundIsCheckedBeforeBuilding) {
  ProblemSpec spec = make_spec(5, 8);
  spec.processors = std::numeric_limits<std::int32_t>::max();
  auto built = build_problem(spec, spec.deadline);
  ASSERT_FALSE(built.is_ok());
  EXPECT_EQ(built.status().code(), common::StatusCode::kInvalidArgument);

  spec.processors = kMaxProcessors;  // the bound itself is accepted
  spec.dag_text = "dag 1\ntask 0 1.0 t\n";
  EXPECT_TRUE(build_problem(spec, spec.deadline).is_ok());
}

}  // namespace
}  // namespace easched::serve
