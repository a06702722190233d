// SolveCache acceptance: the canonical fingerprint separates exactly the
// requests a solver could tell apart, hits return the stored report
// unchanged, failures are memoized like successes, and a hammered cache
// stays consistent under the thread pool.

#include "frontier/cache.hpp"

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "core/problem.hpp"
#include "sched/list_scheduler.hpp"

namespace easched::frontier {
namespace {

graph::Dag diamond_dag() {
  graph::Dag dag;
  const auto a = dag.add_task(2.0, "a");
  const auto b = dag.add_task(3.0, "b");
  const auto c = dag.add_task(5.0, "c");
  const auto d = dag.add_task(1.5, "d");
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  dag.add_edge(b, d);
  dag.add_edge(c, d);
  return dag;
}

core::BiCritProblem diamond_problem(double deadline,
                                    model::SpeedModel speeds =
                                        model::SpeedModel::continuous(0.2, 1.0)) {
  const auto dag = diamond_dag();
  const auto mapping =
      sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
  return core::BiCritProblem(dag, mapping, std::move(speeds), deadline);
}

TEST(CanonicalFingerprint, EqualRequestsShareAKey) {
  const auto p1 = diamond_problem(12.0);
  const auto p2 = diamond_problem(12.0);
  EXPECT_EQ(canonical_fingerprint(api::SolveRequest(p1)),
            canonical_fingerprint(api::SolveRequest(p2)));
}

TEST(CanonicalFingerprint, SlackFoldsIntoTheEffectiveDeadline) {
  const auto p1 = diamond_problem(12.0);
  const auto p2 = diamond_problem(6.0);
  api::SolveOptions doubled;
  doubled.deadline_slack = 2.0;
  // 6 * 2 == 12 * 1 exactly in binary, so the keys must collide (that is
  // the point: sweeps retarget deadlines through the slack policy).
  EXPECT_EQ(canonical_fingerprint(api::SolveRequest(p1)),
            canonical_fingerprint(api::SolveRequest(p2, "", doubled)));
}

TEST(CanonicalFingerprint, SeparatesEverySolveRelevantField) {
  const auto base = diamond_problem(12.0);
  const std::string key = canonical_fingerprint(api::SolveRequest(base));

  EXPECT_NE(key, canonical_fingerprint(api::SolveRequest(diamond_problem(12.5))));
  EXPECT_NE(key, canonical_fingerprint(api::SolveRequest(
                     diamond_problem(12.0, model::SpeedModel::continuous(0.1, 1.0)))));
  EXPECT_NE(key, canonical_fingerprint(api::SolveRequest(
                     diamond_problem(12.0, model::SpeedModel::discrete({0.2, 1.0})))));
  EXPECT_NE(key, canonical_fingerprint(api::SolveRequest(base, "continuous-ipm")));

  api::SolveOptions options;
  options.approx_K = 11;
  EXPECT_NE(key, canonical_fingerprint(api::SolveRequest(base, "", options)));

  auto heavier = diamond_problem(12.0);
  heavier.dag.set_weight(0, 2.5);
  EXPECT_NE(key, canonical_fingerprint(api::SolveRequest(heavier)));

  // Task names are cosmetic: no algorithm reads them.
  auto renamed = diamond_problem(12.0);
  renamed.dag.set_name(0, "renamed");
  EXPECT_EQ(key, canonical_fingerprint(api::SolveRequest(renamed)));
}

TEST(CanonicalFingerprint, TriCritIncludesReliability) {
  const auto dag = diamond_dag();
  const auto mapping =
      sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
  const auto speeds = model::SpeedModel::continuous(0.2, 1.0);
  const core::TriCritProblem p1(dag, mapping, speeds,
                                model::default_reliability(0.2, 1.0, 0.8), 20.0);
  const core::TriCritProblem p2(dag, mapping, speeds,
                                model::default_reliability(0.2, 1.0, 0.7), 20.0);
  EXPECT_NE(canonical_fingerprint(api::SolveRequest(p1)),
            canonical_fingerprint(api::SolveRequest(p2)));
}

TEST(SolveCache, HitReturnsTheStoredReport) {
  const auto problem = diamond_problem(14.0);
  SolveCache cache;

  bool hit = true;
  const auto cold = cache.solve(api::SolveRequest(problem), &hit);
  ASSERT_TRUE(cold.is_ok());
  EXPECT_FALSE(hit);

  const auto warm = cache.solve(api::SolveRequest(problem), &hit);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cold.value().energy, warm.value().energy);
  EXPECT_EQ(cold.value().makespan, warm.value().makespan);
  EXPECT_EQ(cold.value().solver, warm.value().solver);
  EXPECT_EQ(cold.value().wall_ms, warm.value().wall_ms)
      << "a hit must return the stored report, not re-time a solve";

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(SolveCache, FailuresAreMemoizedToo) {
  // Deadline below the all-fmax critical path: every solver refuses.
  const auto problem = diamond_problem(0.5);
  SolveCache cache;

  bool hit = true;
  const auto cold = cache.solve(api::SolveRequest(problem), &hit);
  EXPECT_FALSE(cold.is_ok());
  EXPECT_FALSE(hit);

  const auto warm = cache.solve(api::SolveRequest(problem), &hit);
  EXPECT_FALSE(warm.is_ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cold.status().code(), warm.status().code());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SolveCache, ClearForgetsEntriesAndCounters) {
  const auto problem = diamond_problem(14.0);
  SolveCache cache;
  (void)cache.solve(api::SolveRequest(problem));
  (void)cache.solve(api::SolveRequest(problem));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);

  bool hit = true;
  (void)cache.solve(api::SolveRequest(problem), &hit);
  EXPECT_FALSE(hit);
}

TEST(InstanceInterner, SameBytesShareAnIdForgedCollisionsDoNot) {
  InstanceInterner interner;
  // The digest narrows candidates; the exact byte comparison decides. Two
  // different byte strings under a *forged identical digest* — the
  // collision case a 128-bit hash makes astronomically rare but the
  // interner must still survive — get distinct ids.
  const api::InstanceDigest forged{0xdeadbeefULL, 0x1234ULL};
  const auto a = interner.intern(forged, "instance-a");
  const auto b = interner.intern(forged, "instance-b");
  EXPECT_NE(a, b) << "digest collision must not alias different instances";
  EXPECT_EQ(a, interner.intern(forged, "instance-a"));
  EXPECT_EQ(b, interner.intern(forged, "instance-b"));
  EXPECT_EQ(interner.size(), 2u);

  // Same bytes under a different digest are a different identity: the
  // digest is part of what callers derive from the bytes, so this only
  // happens across incompatible serialisation versions.
  const api::InstanceDigest other{0xdeadbeefULL, 0x5678ULL};
  EXPECT_NE(a, interner.intern(other, "instance-a"));
}

TEST(InstanceInterner, EpochTagMakesClearedIdsUnmintable) {
  InstanceInterner interner;
  EXPECT_EQ(interner.epoch(), 0u);
  const api::InstanceDigest digest{0xaaULL, 0xbbULL};
  const auto before = interner.intern(digest, "instance");
  EXPECT_EQ(InstanceInterner::id_epoch(before), 0u);
  EXPECT_TRUE(interner.live(before));

  interner.clear();
  EXPECT_EQ(interner.epoch(), 1u);
  EXPECT_FALSE(interner.live(before));
  EXPECT_FALSE(interner.find(before).has_value());

  // The same bytes re-intern under the new epoch: the per-epoch sequence
  // restarts (same low bits as `before`), yet the ids differ because the
  // generation tag is part of the id — the structural non-alias guarantee.
  const auto after = interner.intern(digest, "instance");
  EXPECT_EQ(InstanceInterner::id_sequence(after), InstanceInterner::id_sequence(before));
  EXPECT_EQ(InstanceInterner::id_epoch(after), 1u);
  EXPECT_NE(after, before);
  EXPECT_TRUE(interner.live(after));
  EXPECT_FALSE(interner.live(before)) << "pre-clear ids stay dead forever";
}

TEST(InstanceInterner, ReclaimedThenReinternedInstanceGetsAFreshId) {
  InstanceInterner interner;
  const api::InstanceDigest digest{0x11ULL, 0x22ULL};
  const auto original = interner.intern(digest, "instance");
  interner.add_ref(original);
  interner.release(original);  // last reference: blob reclaimed
  EXPECT_FALSE(interner.live(original));

  const auto fresh = interner.intern(digest, "instance");
  EXPECT_NE(fresh, original) << "a reclaimed id is never handed out again";
  EXPECT_EQ(InstanceInterner::id_epoch(fresh), InstanceInterner::id_epoch(original));
  EXPECT_TRUE(interner.live(fresh));
}

TEST(SolveCache, StaleContextAfterClearMissesInsteadOfAliasing) {
  // The ROADMAP interner-pinning hole, end to end: a long-lived sweep
  // context outliving a clear() must never be served another instance's
  // entry under a recycled id — it simply misses and re-solves.
  const auto p1 = diamond_problem(14.0);
  auto p2 = diamond_problem(14.0);
  p2.dag.set_weight(0, 2.5);  // different instance, different optimum

  SolveCache cache;
  const api::SolveRequest r1(p1);
  const auto stale_context = cache.context_for(r1);
  const auto stale_key = SolveCache::key_for(stale_context, r1);
  const auto before = cache.solve(r1, stale_key);
  ASSERT_TRUE(before.is_ok());

  cache.clear();

  // A different instance interned after the clear restarts the sequence
  // counter — without the epoch tag its id could collide with the stale
  // context's.
  const api::SolveRequest r2(p2);
  const auto fresh_context = cache.context_for(r2);
  EXPECT_NE(fresh_context.instance, stale_context.instance);
  EXPECT_EQ(InstanceInterner::id_sequence(fresh_context.instance),
            InstanceInterner::id_sequence(stale_context.instance));
  ASSERT_TRUE(cache.solve(r2, SolveCache::key_for(fresh_context, r2)).is_ok());

  // Probing through the stale context misses (no alias with p2's entry)
  // and still computes p1's correct energy.
  bool hit = true;
  const auto replay = cache.solve(r1, stale_key, &hit);
  ASSERT_TRUE(replay.is_ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(replay.value().energy, before.value().energy);
}

TEST(SolveCacheCollisionFallback, ForgedDigestCollisionStillSeparatesRequests) {
  // End-to-end version of the interner property: two problems that differ
  // only in one task weight route through the digest-keyed cache and must
  // produce their own energies even though they share shard machinery.
  const auto p1 = diamond_problem(14.0);
  auto p2 = diamond_problem(14.0);
  p2.dag.set_weight(0, 2.5);

  const auto d1 = api::instance_digest(api::SolveRequest(p1));
  const auto d2 = api::instance_digest(api::SolveRequest(p2));
  EXPECT_NE(d1, d2) << "a one-weight perturbation must change the digest";

  SolveCache cache;
  const auto r1 = cache.solve(api::SolveRequest(p1));
  bool hit = true;
  const auto r2 = cache.solve(api::SolveRequest(p2), &hit);
  ASSERT_TRUE(r1.is_ok());
  ASSERT_TRUE(r2.is_ok());
  EXPECT_FALSE(hit) << "the perturbed instance must miss, not alias the original";
  EXPECT_NE(r1.value().energy, r2.value().energy);

  // Perturbing the weight *back* restores the original identity: the
  // interner keys on exact bytes, so the original entry hits again.
  p2.dag.set_weight(0, 2.0);
  const auto r3 = cache.solve(api::SolveRequest(p2), &hit);
  ASSERT_TRUE(r3.is_ok());
  EXPECT_TRUE(hit) << "identical bytes must re-intern to the same id";
  EXPECT_EQ(r1.value().energy, r3.value().energy);
}

TEST(SolveCachePropertyTest, PerturbingAnyOneWeightInvalidatesOnlyTheDigest) {
  // Property over every task: bumping task t's weight yields a fresh
  // digest (no stale hit) and restoring it yields a hit — the digest is
  // exactly as fine-grained as the instance content.
  const auto base = diamond_problem(14.0);
  SolveCache cache;
  const auto cold = cache.solve(api::SolveRequest(base));
  ASSERT_TRUE(cold.is_ok());

  for (graph::TaskId t = 0; t < base.dag.num_tasks(); ++t) {
    auto perturbed = diamond_problem(14.0);
    const double w = perturbed.dag.weight(t);
    perturbed.dag.set_weight(t, w * 1.25);
    EXPECT_NE(api::instance_digest(api::SolveRequest(base)),
              api::instance_digest(api::SolveRequest(perturbed)))
        << "task " << t;
    bool hit = true;
    const auto r = cache.solve(api::SolveRequest(perturbed), &hit);
    EXPECT_FALSE(hit) << "stale hit after perturbing task " << t;
    ASSERT_TRUE(r.is_ok());
    EXPECT_NE(r.value().energy, cold.value().energy) << "task " << t;

    perturbed.dag.set_weight(t, w);
    (void)cache.solve(api::SolveRequest(perturbed), &hit);
    EXPECT_TRUE(hit) << "restored weight must hit again, task " << t;
  }
}

TEST(SolveCacheLru, CapEvictsLeastRecentlyUsedInOrder) {
  // One shard, room for two entries: A, B fill it; touching A makes B the
  // LRU entry, so inserting C evicts B (not A).
  const auto a = diamond_problem(10.0);
  const auto b = diamond_problem(11.0);
  const auto c = diamond_problem(12.0);
  SolveCache cache(/*shards=*/1, /*max_entries=*/2);
  EXPECT_EQ(cache.capacity(), 2u);

  (void)cache.solve(api::SolveRequest(a));
  (void)cache.solve(api::SolveRequest(b));
  bool hit = false;
  (void)cache.solve(api::SolveRequest(a), &hit);  // touch A: B is now LRU
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().evictions, 0u);

  (void)cache.solve(api::SolveRequest(c));  // evicts B
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  (void)cache.solve(api::SolveRequest(a), &hit);
  EXPECT_TRUE(hit) << "A was touched and must survive the eviction";
  (void)cache.solve(api::SolveRequest(b), &hit);
  EXPECT_FALSE(hit) << "B was the least recently used entry and must be gone";
  // Re-solving B evicted the next-LRU entry (C) to stay within the cap.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(SolveCacheLru, DefaultIsUnbounded) {
  SolveCache cache;
  EXPECT_EQ(cache.capacity(), 0u);
  for (int i = 0; i < 12; ++i) {
    (void)cache.solve(api::SolveRequest(diamond_problem(10.0 + i)));
  }
  EXPECT_EQ(cache.size(), 12u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(SolveCacheKey, ContextAndKeyProbeMatchesConvenienceOverload) {
  // The O(1) per-probe path (context_for once + key_for per probe) and
  // the per-call convenience overload must address the same entries.
  const auto problem = diamond_problem(14.0);
  SolveCache cache;

  api::SolveRequest request(problem);
  const auto context = cache.context_for(request);
  bool hit = true;
  const auto cold = cache.solve(request, SolveCache::key_for(context, request), &hit);
  ASSERT_TRUE(cold.is_ok());
  EXPECT_FALSE(hit);

  const auto warm = cache.solve(api::SolveRequest(problem), &hit);
  ASSERT_TRUE(warm.is_ok());
  EXPECT_TRUE(hit) << "convenience overload must hit the keyed entry";
  EXPECT_EQ(cold.value().energy, warm.value().energy);

  // Slack folding carries over to the POD key: (D=7, slack=2) == (D=14).
  const auto half = diamond_problem(7.0);
  api::SolveOptions doubled;
  doubled.deadline_slack = 2.0;
  (void)cache.solve(api::SolveRequest(half, "", doubled), &hit);
  EXPECT_TRUE(hit) << "equal effective deadlines must share a key";
}

TEST(SolveCache, ConcurrentMixedWorkloadStaysConsistent) {
  // 64 workers hammer 8 distinct requests; every result must equal the
  // uncached reference and the books must balance. Run under
  // check.sh --sanitize this doubles as the data-race check.
  std::vector<core::BiCritProblem> problems;
  problems.reserve(8);
  for (int i = 0; i < 8; ++i) {
    problems.push_back(diamond_problem(10.0 + i));
  }
  std::vector<double> reference;
  reference.reserve(problems.size());
  for (const auto& p : problems) {
    const auto r = api::solve(api::SolveRequest(p));
    ASSERT_TRUE(r.is_ok());
    reference.push_back(r.value().energy);
  }

  SolveCache cache(4);
  const std::size_t kCalls = 64;
  std::vector<double> energies(kCalls, -1.0);
  common::WorkerPool pool(8);
  pool.parallel(kCalls, [&](std::size_t i) {
    const auto& p = problems[i % problems.size()];
    const auto r = cache.solve(api::SolveRequest(p));
    ASSERT_TRUE(r.is_ok());
    energies[i] = r.value().energy;
  });

  for (std::size_t i = 0; i < kCalls; ++i) {
    EXPECT_EQ(energies[i], reference[i % problems.size()]) << i;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kCalls);
  EXPECT_EQ(stats.entries, problems.size());
  EXPECT_GE(stats.misses, problems.size())
      << "every distinct request misses at least once";
}

}  // namespace
}  // namespace easched::frontier
