// Deterministic-seeded concurrency stress for the Engine façade and the
// cache/store attachment paths. These tests exist for scripts/check.sh
// --tsan: every schedule interleaving they provoke must be data-race
// free, and every completed job must still produce the deterministic
// result its synchronous counterpart produces. Sized to finish under
// ThreadSanitizer on a single-core CI box — the point is interleaving
// coverage on shared state (one engine, one cache, one store), not
// volume.
//
//   * MixedSubmittersOneEngine — several submitter threads mix
//     solve/batch/sweep/resweep/cancel against ONE engine with an
//     attached store; all results are checked against sync references.
//   * AttachStoreRacesClearAndSolve — attach_store(store/nullptr)
//     toggled against clear() (epoch bumps) and live solve() traffic.
//   * CancelRacesCompletion — JobHandle::cancel() fired while the job is
//     completing; every get() returns a coherent terminal state.
//   * SyncHitsRaceClearAndEviction — solves answered at submit from the
//     cache, racing clear() (epoch bumps) and a 4-entry LRU's evictions;
//     every answer still equals a direct api::solve bit for bit.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "frontier/cache.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"
#include "store/store.hpp"

namespace easched::engine {
namespace {

core::Problem random_bicrit(std::uint64_t seed, int tasks, double slack) {
  common::Rng rng(seed);
  auto dag = graph::make_random_dag(tasks, 0.2, {1.0, 4.0}, rng);
  auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
  std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    d[static_cast<std::size_t>(t)] = dag.weight(t);
  }
  const double deadline =
      graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan * slack;
  return core::Problem(std::move(dag), std::move(mapping),
                       model::SpeedModel::continuous(0.1, 1.0), deadline);
}

std::string temp_store_path(const char* tag) {
  return ::testing::TempDir() + "stress_" + tag + "_" + std::to_string(::getpid()) +
         ".log";
}

frontier::FrontierOptions small_sweep_options() {
  frontier::FrontierOptions opts;
  opts.initial_points = 5;
  opts.max_points = 9;
  opts.max_refine_rounds = 2;
  return opts;
}

TEST(EngineStress, MixedSubmittersOneEngine) {
  const std::string store_path = temp_store_path("mixed");
  std::remove(store_path.c_str());

  EngineConfig cfg;
  cfg.threads = 3;
  cfg.cache_max_entries = 48;  // small cap: LRU eviction + spill under load
  cfg.store_path = store_path;
  auto engine = Engine::create(cfg);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  Engine& eng = engine.value();

  // Shared fixed corpus; every thread draws from the same problems so the
  // cache, interner and store see genuine cross-thread sharing.
  std::vector<std::shared_ptr<const core::Problem>> problems;
  for (std::uint64_t s = 0; s < 3; ++s) {
    problems.push_back(
        std::make_shared<const core::Problem>(random_bicrit(90 + s, 8, 1.7)));
  }
  // Sync references, computed up front on the same engine (also warms the
  // store so submitter threads race loads against appends).
  std::vector<double> ref_energy;
  std::vector<frontier::FrontierResult> ref_sweeps;
  for (const auto& p : problems) {
    auto direct = eng.solve(*p);
    ASSERT_TRUE(direct.is_ok()) << direct.status().to_string();
    ref_energy.push_back(direct.value().energy);
    ref_sweeps.push_back(eng.sweep(FrontierQuery::deadline(
        p, p->deadline * 0.9, p->deadline * 1.3, small_sweep_options())));
    ASSERT_TRUE(ref_sweeps.back().error.ok());
  }

  constexpr int kSubmitters = 4;
  constexpr int kOpsPerThread = 6;
  std::vector<Engine::SolveHandle> solves[kSubmitters];
  std::vector<std::size_t> solve_problem[kSubmitters];
  std::vector<Engine::FrontierHandle> sweeps[kSubmitters];
  std::vector<std::size_t> sweep_problem[kSubmitters];
  std::vector<Engine::SolveHandle> cancelled[kSubmitters];

  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      common::Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::size_t pi = rng.below(problems.size());
        const auto& p = problems[pi];
        switch (rng.below(4)) {
          case 0: {
            solves[t].push_back(eng.submit(SolveQuery(p)));
            solve_problem[t].push_back(pi);
            break;
          }
          case 1: {
            sweeps[t].push_back(eng.submit(FrontierQuery::deadline(
                p, p->deadline * 0.9, p->deadline * 1.3, small_sweep_options())));
            sweep_problem[t].push_back(pi);
            break;
          }
          case 2: {
            ResweepQuery rq{ref_sweeps[pi],
                            FrontierQuery::deadline(p, p->deadline * 0.9,
                                                    p->deadline * 1.3,
                                                    small_sweep_options())};
            sweeps[t].push_back(eng.submit(std::move(rq)));
            sweep_problem[t].push_back(pi);
            break;
          }
          default: {
            auto job = eng.submit(SolveQuery(p));
            job.cancel();  // may land before or after the job ran
            cancelled[t].push_back(job);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every uncancelled job terminates with exactly the synchronous result.
  for (int t = 0; t < kSubmitters; ++t) {
    for (std::size_t i = 0; i < solves[t].size(); ++i) {
      const auto& result = solves[t][i].get();
      ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      EXPECT_EQ(result.value().energy, ref_energy[solve_problem[t][i]]);
    }
    for (std::size_t i = 0; i < sweeps[t].size(); ++i) {
      const auto& result = sweeps[t][i].get();
      ASSERT_TRUE(result.error.ok()) << result.error.to_string();
      const auto& ref = ref_sweeps[sweep_problem[t][i]];
      ASSERT_EQ(result.points.size(), ref.points.size());
      for (std::size_t k = 0; k < ref.points.size(); ++k) {
        EXPECT_EQ(result.points[k].energy, ref.points[k].energy);
        EXPECT_EQ(result.points[k].constraint, ref.points[k].constraint);
      }
    }
    // Cancelled jobs either never ran (kCancelled) or completed normally
    // — both are coherent terminal states; get() must never hang or tear.
    for (auto& job : cancelled[t]) {
      const auto& result = job.get();
      if (result.is_ok()) {
        EXPECT_GT(result.value().energy, 0.0);
      } else {
        EXPECT_EQ(result.status().code(), common::StatusCode::kCancelled);
      }
    }
  }

  const auto stats = eng.cache_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  std::remove(store_path.c_str());
}

TEST(EngineStress, AttachStoreRacesClearAndSolve) {
  const std::string store_path = temp_store_path("attach");
  std::remove(store_path.c_str());

  store::StoreOptions sopts;
  sopts.path = store_path;
  sopts.load_on_open = false;  // attach toggling shouldn't replay the log
  auto store = store::SolveStore::open(sopts);
  ASSERT_TRUE(store.is_ok()) << store.status().to_string();

  frontier::SolveCache cache(/*shards=*/4, /*max_entries=*/16);
  const auto p0 = random_bicrit(7, 8, 1.6);
  const auto p1 = random_bicrit(8, 8, 1.6);

  // Thread A toggles the attachment; thread B bumps the interner epoch
  // via clear(); threads C/D keep solving through the cache. Whatever
  // snapshot of the store pointer a solve observes must stay coherent.
  std::thread attacher([&] {
    for (int i = 0; i < 24; ++i) {
      ASSERT_TRUE(cache.attach_store(&store.value()).ok());
      ASSERT_TRUE(cache.attach_store(nullptr).ok());
    }
  });
  std::thread clearer([&] {
    for (int i = 0; i < 24; ++i) cache.clear();
  });
  std::vector<std::thread> solvers;
  for (int t = 0; t < 2; ++t) {
    solvers.emplace_back([&, t] {
      const auto& p = t == 0 ? p0 : p1;
      for (int i = 0; i < 24; ++i) {
        auto result = cache.solve(api::SolveRequest(p));
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
      }
    });
  }
  attacher.join();
  clearer.join();
  for (auto& th : solvers) th.join();

  // Post-race sanity: attached solves still persist and replay.
  ASSERT_TRUE(cache.attach_store(&store.value()).ok());
  auto result = cache.solve(api::SolveRequest(p0));
  ASSERT_TRUE(result.is_ok());
  std::remove(store_path.c_str());
}

TEST(EngineStress, SyncHitsRaceClearAndEviction) {
  EngineConfig cfg;
  cfg.threads = 2;
  cfg.cache_max_entries = 4;  // fewer entries than problems: constant eviction
  auto engine = Engine::create(cfg);
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  Engine& eng = engine.value();

  std::vector<std::shared_ptr<const core::Problem>> problems;
  std::vector<api::SolveReport> refs;
  for (std::uint64_t s = 0; s < 6; ++s) {
    problems.push_back(
        std::make_shared<const core::Problem>(random_bicrit(500 + s, 8, 1.6)));
    auto ref = api::solve(*problems.back());
    ASSERT_TRUE(ref.is_ok()) << ref.status().to_string();
    refs.push_back(std::move(ref).take());
  }

  std::atomic<bool> done{false};
  std::thread clearer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      eng.cache().clear();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> submitters;
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&, t] {
      common::Rng rng(700 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 40; ++i) {
        // Mostly the two hottest problems, so many submits hit.
        const std::size_t k = rng.next_double() < 0.7 ? static_cast<std::size_t>(i % 2)
                                                  : 2 + static_cast<std::size_t>(i % 4);
        auto job = eng.submit(SolveQuery(problems[k]));
        const auto& result = job.get();
        ASSERT_TRUE(result.is_ok()) << result.status().to_string();
        const api::SolveReport& got = result.value();
        EXPECT_EQ(got.energy, refs[k].energy);
        EXPECT_EQ(got.makespan, refs[k].makespan);
        EXPECT_EQ(got.solver, refs[k].solver);
        EXPECT_EQ(got.schedule.durations(problems[k]->dag),
                  refs[k].schedule.durations(problems[k]->dag));
      }
    });
  }
  for (auto& th : submitters) th.join();
  done.store(true, std::memory_order_relaxed);
  clearer.join();

  // Quiesced: a repeat solve is answered at submit.
  ASSERT_TRUE(eng.submit(SolveQuery(problems[0])).get().is_ok());
  EXPECT_TRUE(eng.submit(SolveQuery(problems[0])).done());
}

TEST(EngineStress, CancelRacesCompletion) {
  auto engine = Engine::create(EngineConfig{});
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  Engine& eng = engine.value();
  const auto problem =
      std::make_shared<const core::Problem>(random_bicrit(42, 8, 1.5));
  const double ref = eng.solve(*problem).value().energy;

  for (int round = 0; round < 16; ++round) {
    auto job = eng.submit(SolveQuery(problem));
    std::thread canceller([&job] { job.cancel(); });
    const auto& result = job.get();  // races the cancel — must not tear
    canceller.join();
    if (result.is_ok()) {
      EXPECT_EQ(result.value().energy, ref);
    } else {
      EXPECT_EQ(result.status().code(), common::StatusCode::kCancelled);
    }
  }
}

}  // namespace
}  // namespace easched::engine
