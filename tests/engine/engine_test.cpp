// Engine façade: the async submit()/JobHandle surface over the shared
// cache, store and worker pool. The acceptance-critical properties live
// here:
//   * concurrent mixed query types on ONE engine produce exactly the
//     results their synchronous counterparts produce;
//   * cancellation mid-sweep stops early and leaves the cache and store
//     consistent (a following sweep completes bit-identical to cold);
//   * a streamed FrontierQuery's observed points reproduce the
//     synchronous sweep's curve bit-identically;
//   * priorities order queued jobs, expired deadlines fail fast.

#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/batch.hpp"
#include "common/rng.hpp"
#include "core/corpus.hpp"
#include "frontier/analytics.hpp"
#include "frontier/frontier.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "sched/list_scheduler.hpp"
#include "store/store.hpp"

namespace easched::engine {
namespace {

core::BiCritProblem random_bicrit(std::uint64_t seed, int tasks, double slack) {
  common::Rng rng(seed);
  auto dag = graph::make_random_dag(tasks, 0.2, {1.0, 4.0}, rng);
  auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
  std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    d[static_cast<std::size_t>(t)] = dag.weight(t);
  }
  const double deadline =
      graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan * slack;
  return core::BiCritProblem(std::move(dag), std::move(mapping),
                             model::SpeedModel::continuous(0.1, 1.0), deadline);
}

core::TriCritProblem random_tricrit(std::uint64_t seed, int tasks, double slack) {
  common::Rng rng(seed);
  auto dag = graph::make_layered(3, (tasks + 2) / 3, 0.4, {1.0, 3.0}, rng);
  auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
  std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    d[static_cast<std::size_t>(t)] = dag.weight(t);
  }
  const model::ReliabilityModel rel(1e-5, 3.0, 0.2, 1.0, 0.8);
  const double deadline =
      graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan / rel.frel() *
      slack;
  return core::TriCritProblem(std::move(dag), std::move(mapping),
                              model::SpeedModel::continuous(0.2, 1.0), rel, deadline);
}

bool same_curve(const std::vector<frontier::FrontierPoint>& a,
                const std::vector<frontier::FrontierPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].constraint != b[i].constraint || a[i].energy != b[i].energy ||
        a[i].makespan != b[i].makespan || a[i].solver != b[i].solver ||
        a[i].exact != b[i].exact) {
      return false;
    }
  }
  return true;
}

std::string temp_store_path(const char* tag) {
  return ::testing::TempDir() + "engine_" + tag + "_" +
         std::to_string(::getpid()) + ".log";
}

TEST(Engine, SolveMatchesDirectApi) {
  auto engine = Engine::create();
  ASSERT_TRUE(engine.is_ok()) << engine.status().to_string();
  const auto problem = random_bicrit(11, 10, 1.6);

  auto via_engine = engine.value().solve(problem);
  auto direct = api::solve(problem);
  ASSERT_TRUE(via_engine.is_ok()) << via_engine.status().to_string();
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(via_engine.value().energy, direct.value().energy);
  EXPECT_EQ(via_engine.value().solver, direct.value().solver);

  // Second identical solve is served by the shared cache.
  auto again = engine.value().solve(problem);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().energy, direct.value().energy);
  EXPECT_GE(engine.value().cache_stats().hits, 1u);
}

TEST(Engine, SubmitReturnsFutureStyleHandle) {
  auto engine = Engine::create();
  ASSERT_TRUE(engine.is_ok());
  const auto problem = random_bicrit(12, 10, 1.5);

  auto job = engine.value().submit(SolveQuery(problem));
  ASSERT_TRUE(job.valid());
  EXPECT_GT(job.id(), 0u);
  job.wait();
  EXPECT_TRUE(job.done());
  const auto& result = job.get();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  auto direct = api::solve(problem);
  ASSERT_TRUE(direct.is_ok());
  EXPECT_EQ(result.value().energy, direct.value().energy);
}

TEST(Engine, MovedEngineKeepsInFlightJobsValid) {
  auto created = Engine::create();
  ASSERT_TRUE(created.is_ok());
  const auto problem = random_bicrit(13, 12, 1.5);
  auto job = created.value().submit(SolveQuery(problem));
  Engine moved = std::move(created).take();  // jobs hold component pointers
  const auto& result = job.get();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_GT(moved.threads(), 0u);
}

TEST(Engine, ConcurrentMixedQueriesOnOneEngine) {
  EngineConfig config;
  config.threads = 4;
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  Engine& engine = created.value();

  // Reference values, computed synchronously and independently.
  const auto bi = std::make_shared<const core::BiCritProblem>(random_bicrit(21, 10, 1.7));
  const auto tri =
      std::make_shared<const core::TriCritProblem>(random_tricrit(22, 9, 2.0));
  const auto ref_solve = api::solve(*bi);
  ASSERT_TRUE(ref_solve.is_ok());
  frontier::FrontierOptions fopt;
  fopt.initial_points = 5;
  fopt.max_points = 11;
  common::WorkerPool ref_pool(1);
  const frontier::FrontierEngine cold_sweeper(ref_pool);
  const auto ref_curve =
      cold_sweeper.deadline_sweep(*bi, bi->deadline * 0.6, bi->deadline, fopt);
  ASSERT_TRUE(ref_curve.error.is_ok());
  const auto ref_tri = api::solve(*tri, "best-of");
  ASSERT_TRUE(ref_tri.is_ok());

  // N submitter threads x mixed query types, all against one engine.
  constexpr int kThreads = 8;
  constexpr int kRounds = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        switch ((t + round) % 3) {
          case 0: {
            auto job = engine.submit(SolveQuery(bi));
            const auto& r = job.get();
            if (!r.is_ok() || r.value().energy != ref_solve.value().energy) {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {
            auto job = engine.submit(
                FrontierQuery::deadline(bi, bi->deadline * 0.6, bi->deadline, fopt));
            const auto& r = job.get();
            if (!r.error.is_ok() || !same_curve(r.points, ref_curve.points)) {
              failures.fetch_add(1);
            }
            break;
          }
          default: {
            auto job = engine.submit(SolveQuery(tri, "best-of"));
            const auto& r = job.get();
            if (!r.is_ok() || r.value().energy != ref_tri.value().energy) {
              failures.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (auto& t : submitters) t.join();
  EXPECT_EQ(failures.load(), 0);

  const auto stats = engine.cache_stats();
  // Repeat traffic hits the shared cache: distinct points are few, and
  // though racing first encounters may each count a miss (first-write-
  // wins), the repeats across 32 jobs dominate.
  EXPECT_GT(stats.hits, stats.misses);
}

TEST(Engine, BatchQueryAggregatesLikeSerialSolves) {
  common::Rng rng(31);
  core::CorpusOptions copt;
  copt.tasks = 8;
  copt.processors = 3;
  copt.instances_per_family = 2;
  const auto corpus = core::standard_corpus(rng, copt);
  const auto jobs =
      api::corpus_bicrit_jobs(corpus, model::SpeedModel::continuous(0.1, 1.0), 1.8);

  // Reference: the same requests solved one at a time, then aggregated.
  std::vector<common::Result<api::SolveReport>> serial;
  for (const auto& job : jobs) serial.push_back(api::solve(*job.bicrit));
  const auto direct = api::aggregate_batch(jobs, std::move(serial));

  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    EngineConfig config;
    config.threads = threads;
    auto created = Engine::create(config);
    ASSERT_TRUE(created.is_ok());
    BatchQuery query;
    query.jobs = jobs;
    auto handle = created.value().submit(std::move(query));
    const auto& report = handle.get();

    EXPECT_EQ(report.solved, direct.solved) << threads;
    EXPECT_EQ(report.failed, direct.failed) << threads;
    ASSERT_EQ(report.results.size(), direct.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      ASSERT_EQ(report.results[i].is_ok(), direct.results[i].is_ok()) << i;
      if (report.results[i].is_ok()) {
        EXPECT_EQ(report.results[i].value().energy, direct.results[i].value().energy) << i;
      }
    }
    for (const auto& [family, agg] : direct.by_family) {
      auto it = report.by_family.find(family);
      ASSERT_NE(it, report.by_family.end()) << family;
      EXPECT_EQ(it->second.solved, agg.solved);
      EXPECT_EQ(it->second.energy.mean(), agg.energy.mean()) << family;
    }
  }
}

TEST(Engine, CompareSweepsEachSolverInRequestOrder) {
  // A TRI-CRIT instance, so two heuristics sweep the same deadline axis.
  const auto problem =
      std::make_shared<const core::TriCritProblem>(random_tricrit(45, 9, 2.0));
  frontier::FrontierOptions fopt;
  fopt.initial_points = 5;
  fopt.max_points = 11;
  const auto query =
      FrontierQuery::deadline(problem, problem->deadline * 0.6, problem->deadline, fopt);
  const std::vector<std::string> solvers{"heuristic-B", "heuristic-A"};

  std::vector<frontier::FrontierComparison> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    EngineConfig config;
    config.threads = threads;
    auto created = Engine::create(config);
    ASSERT_TRUE(created.is_ok());
    runs.push_back(created.value().compare(query, solvers));
  }

  // Each entry is exactly that solver's own sweep, in request order.
  EngineConfig config;
  config.threads = 2;
  auto reference = Engine::create(config);
  ASSERT_TRUE(reference.is_ok());
  for (const auto& comparison : runs) {
    EXPECT_EQ(comparison.axis, frontier::ConstraintAxis::kDeadline);
    ASSERT_EQ(comparison.solvers.size(), solvers.size());
    for (std::size_t i = 0; i < solvers.size(); ++i) {
      EXPECT_EQ(comparison.solvers[i].solver, solvers[i]);
      FrontierQuery alone = query;
      alone.options.solver = solvers[i];
      const auto curve = reference.value().sweep(alone);
      EXPECT_TRUE(same_curve(comparison.solvers[i].result.points, curve.points)) << i;
    }
    EXPECT_FALSE(comparison.segments.empty());
  }
  // The pool size never changes the comparison.
  ASSERT_EQ(runs[0].segments.size(), runs[1].segments.size());
  for (std::size_t i = 0; i < runs[0].segments.size(); ++i) {
    EXPECT_EQ(runs[0].segments[i].lo, runs[1].segments[i].lo);
    EXPECT_EQ(runs[0].segments[i].hi, runs[1].segments[i].hi);
    EXPECT_EQ(runs[0].segments[i].solver, runs[1].segments[i].solver);
  }
}

TEST(Engine, StreamedFrontierReproducesCurveBitIdentically) {
  EngineConfig config;
  config.threads = 4;
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  const auto problem =
      std::make_shared<const core::BiCritProblem>(random_bicrit(41, 12, 1.8));

  frontier::FrontierOptions fopt;
  fopt.initial_points = 7;
  fopt.max_points = 19;

  // Streamed points arrive from the sweeping job thread; the callback
  // must be safe but the order is deterministic.
  std::mutex streamed_mutex;
  std::vector<frontier::FrontierPoint> streamed;
  auto query = FrontierQuery::deadline(problem, problem->deadline * 0.55,
                                       problem->deadline, fopt);
  query.observer = [&](const frontier::FrontierPoint& point) {
    std::lock_guard<std::mutex> lock(streamed_mutex);
    streamed.push_back(point);
  };
  auto handle = created.value().submit(std::move(query));
  const auto& result = handle.get();
  ASSERT_TRUE(result.error.is_ok()) << result.error.to_string();

  // The streamed set is exactly the feasible evaluations: dominance-
  // filtering it reproduces the returned curve bit for bit.
  EXPECT_EQ(streamed.size(), result.points.size() + result.dominated.size());
  const auto filtered =
      frontier::pareto_filter(streamed, frontier::ConstraintAxis::kDeadline);
  EXPECT_TRUE(same_curve(filtered, result.points));

  // And the async job matches the plain synchronous engine sweep.
  frontier::SolveCache cold_cache;
  common::WorkerPool ref_pool(1);
  const frontier::FrontierEngine cold(ref_pool, &cold_cache);
  const auto sync_result =
      cold.deadline_sweep(*problem, problem->deadline * 0.55, problem->deadline, fopt);
  EXPECT_TRUE(same_curve(sync_result.points, result.points));
}

TEST(Engine, CancelledQueuedJobNeverRuns) {
  EngineConfig config;
  config.threads = 1;  // one worker: the blocker occupies it
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  const auto blocker =
      std::make_shared<const core::BiCritProblem>(random_bicrit(51, 16, 1.6));
  frontier::FrontierOptions fopt;
  fopt.initial_points = 9;
  fopt.max_points = 25;
  auto blocking = created.value().submit(
      FrontierQuery::deadline(blocker, blocker->deadline * 0.6, blocker->deadline, fopt));

  // The victim's problem is one the blocker's sweep never touches: a
  // solve the sweep already cached would be answered at submit, never
  // queued, and so could not be cancelled.
  auto victim = created.value().submit(SolveQuery(random_bicrit(52, 10, 1.6)));
  victim.cancel();
  const auto& result = victim.get();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kCancelled);
  blocking.wait();
}

TEST(Engine, CancellationMidSweepLeavesCacheAndStoreConsistent) {
  const std::string path = temp_store_path("cancel");
  std::remove(path.c_str());
  const auto problem =
      std::make_shared<const core::BiCritProblem>(random_bicrit(61, 14, 1.8));
  frontier::FrontierOptions fopt;
  fopt.initial_points = 9;
  fopt.max_points = 33;

  frontier::FrontierResult cancelled_result;
  {
    EngineConfig config;
    config.threads = 2;
    config.store_path = path;
    auto created = Engine::create(config);
    ASSERT_TRUE(created.is_ok()) << created.status().to_string();
    Engine& engine = created.value();

    // Gate the sweep on its first streamed point: the observer blocks the
    // job thread until the main thread has issued cancel(), so the flag is
    // deterministically observed *between rounds*, never before the job
    // started — a true mid-sweep cancellation on every run.
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    bool first_point_seen = false;
    bool cancel_issued = false;
    auto query = FrontierQuery::deadline(problem, problem->deadline * 0.5,
                                         problem->deadline, fopt);
    query.observer = [&](const frontier::FrontierPoint&) {
      std::unique_lock<std::mutex> lock(gate_mutex);
      if (!first_point_seen) {
        first_point_seen = true;
        gate_cv.notify_all();
        gate_cv.wait(lock, [&] { return cancel_issued; });
      }
    };
    auto handle = engine.submit(std::move(query));
    {
      std::unique_lock<std::mutex> lock(gate_mutex);
      gate_cv.wait(lock, [&] { return first_point_seen; });
    }
    handle.cancel();
    {
      std::lock_guard<std::mutex> lock(gate_mutex);
      cancel_issued = true;
    }
    gate_cv.notify_all();
    cancelled_result = handle.get();
    EXPECT_EQ(cancelled_result.error.code(), common::StatusCode::kCancelled);
    // The first round completed before the stop: a partial probe trace
    // exists and everything in it is cached/persisted.
    EXPECT_FALSE(cancelled_result.probes.empty());
    EXPECT_LT(cancelled_result.evaluated, 33u);

    // The same engine serves a full sweep afterwards: whatever the
    // cancelled job cached stays valid (hits, never wrong results).
    const auto full = engine.sweep(FrontierQuery::deadline(
        problem, problem->deadline * 0.5, problem->deadline, fopt));
    ASSERT_TRUE(full.error.is_ok()) << full.error.to_string();

    frontier::SolveCache cold_cache;
    common::WorkerPool ref_pool(1);
    const frontier::FrontierEngine cold(ref_pool, &cold_cache);
    const auto reference = cold.deadline_sweep(*problem, problem->deadline * 0.5,
                                               problem->deadline, fopt);
    EXPECT_TRUE(same_curve(full.points, reference.points));
  }

  // The store the cancelled sweep wrote through must verify cleanly.
  const auto verified = store::SolveStore::verify(path);
  ASSERT_TRUE(verified.is_ok()) << verified.status().to_string();
  std::remove(path.c_str());
}

TEST(Engine, PriorityOrdersQueuedJobs) {
  EngineConfig config;
  config.threads = 1;  // deterministic: one worker, queue order = run order
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  Engine& engine = created.value();

  const auto blocker =
      std::make_shared<const core::BiCritProblem>(random_bicrit(71, 16, 1.7));
  const auto quick =
      std::make_shared<const core::BiCritProblem>(random_bicrit(72, 8, 1.7));
  frontier::FrontierOptions fopt;
  fopt.initial_points = 7;
  fopt.max_points = 15;

  std::mutex order_mutex;
  std::vector<std::string> first_points;
  auto observe = [&](const char* tag) {
    return [&, tag](const frontier::FrontierPoint&) {
      std::lock_guard<std::mutex> lock(order_mutex);
      if (first_points.empty() || first_points.back() != tag) {
        first_points.push_back(tag);
      }
    };
  };

  auto blocking_query = FrontierQuery::deadline(blocker, blocker->deadline * 0.6,
                                                blocker->deadline, fopt);
  auto blocking = engine.submit(std::move(blocking_query));

  auto low_query =
      FrontierQuery::deadline(quick, quick->deadline * 0.6, quick->deadline, fopt);
  low_query.observer = observe("low");
  SubmitOptions low_opts;
  low_opts.priority = 0;
  auto low = engine.submit(std::move(low_query), low_opts);

  auto high_query =
      FrontierQuery::deadline(quick, quick->deadline * 0.7, quick->deadline, fopt);
  high_query.observer = observe("high");
  SubmitOptions high_opts;
  high_opts.priority = 5;
  auto high = engine.submit(std::move(high_query), high_opts);

  low.wait();
  high.wait();
  blocking.wait();
  ASSERT_GE(first_points.size(), 2u);
  EXPECT_EQ(first_points.front(), "high");  // outranked the earlier-queued low job
}

TEST(Engine, ExpiredDeadlineFailsFast) {
  EngineConfig config;
  config.threads = 1;
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  const auto blocker =
      std::make_shared<const core::BiCritProblem>(random_bicrit(81, 16, 1.6));
  frontier::FrontierOptions fopt;
  fopt.initial_points = 9;
  fopt.max_points = 25;
  auto blocking = created.value().submit(
      FrontierQuery::deadline(blocker, blocker->deadline * 0.6, blocker->deadline, fopt));

  SubmitOptions opts;
  opts.deadline_ms = 1e-3;  // expires while queued behind the blocker
  // Not the blocker's problem: a point its sweep already cached would be
  // answered at submit and could never expire.
  auto late = created.value().submit(SolveQuery(random_bicrit(82, 10, 1.6)), opts);
  const auto& result = late.get();
  ASSERT_FALSE(result.is_ok());
  EXPECT_EQ(result.status().code(), common::StatusCode::kDeadlineExceeded);
  blocking.wait();
}

TEST(Engine, ResweepThroughFacadeMatchesColdSweep) {
  EngineConfig config;
  config.threads = 4;
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  Engine& engine = created.value();

  const auto old_problem =
      std::make_shared<const core::BiCritProblem>(random_bicrit(91, 10, 1.8));
  auto perturbed = *old_problem;  // same graph, tighter deadline anchor
  const auto new_problem = std::make_shared<const core::BiCritProblem>(
      perturbed.dag, perturbed.mapping, perturbed.speeds, perturbed.deadline * 0.97);

  frontier::FrontierOptions fopt;
  fopt.initial_points = 5;
  fopt.max_points = 13;
  const double lo = old_problem->deadline * 0.6;
  const double hi = old_problem->deadline;

  const auto prev = engine.sweep(FrontierQuery::deadline(old_problem, lo, hi, fopt));
  ASSERT_TRUE(prev.error.is_ok());

  ResweepQuery resweep;
  resweep.prev = prev;
  resweep.target = FrontierQuery::deadline(new_problem, lo, hi, fopt);
  auto handle = engine.submit(std::move(resweep));
  const auto& incremental = handle.get();
  ASSERT_TRUE(incremental.error.is_ok()) << incremental.error.to_string();
  EXPECT_GT(incremental.prefetched, 0u);

  frontier::SolveCache cold_cache;
  common::WorkerPool ref_pool(1);
  const frontier::FrontierEngine cold(ref_pool, &cold_cache);
  const auto reference = cold.deadline_sweep(*new_problem, lo, hi, fopt);
  EXPECT_TRUE(same_curve(incremental.points, reference.points));
}

TEST(Engine, InvalidQueriesSurfaceStatusesNotCrashes) {
  auto created = Engine::create();
  ASSERT_TRUE(created.is_ok());
  Engine& engine = created.value();

  // Reliability axis without a TRI-CRIT problem.
  FrontierQuery bad;
  bad.axis = frontier::ConstraintAxis::kReliability;
  bad.lo = 0.4;
  bad.hi = 0.9;
  auto handle = engine.submit(std::move(bad));
  EXPECT_EQ(handle.get().error.code(), common::StatusCode::kInvalidArgument);

  // A sweep violating the lo/hi precondition comes back as a status, not
  // a terminate() from the worker thread.
  const auto problem = random_bicrit(99, 8, 1.6);
  auto invalid_range = engine.submit(FrontierQuery::deadline(problem, -1.0, 2.0));
  EXPECT_FALSE(invalid_range.get().error.is_ok());
}

TEST(Engine, StoreBackedEngineReplaysAcrossRestart) {
  const std::string path = temp_store_path("restart");
  std::remove(path.c_str());
  const auto problem =
      std::make_shared<const core::BiCritProblem>(random_bicrit(101, 10, 1.8));
  frontier::FrontierOptions fopt;
  fopt.initial_points = 5;
  fopt.max_points = 11;
  const double lo = problem->deadline * 0.6;
  const double hi = problem->deadline;

  frontier::FrontierResult first;
  {
    EngineConfig config;
    config.store_path = path;
    auto created = Engine::create(config);
    ASSERT_TRUE(created.is_ok()) << created.status().to_string();
    first = created.value().sweep(FrontierQuery::deadline(problem, lo, hi, fopt));
    ASSERT_TRUE(first.error.is_ok());
  }
  {
    EngineConfig config;
    config.store_path = path;
    auto created = Engine::create(config);
    ASSERT_TRUE(created.is_ok());
    const auto replay = created.value().sweep(FrontierQuery::deadline(problem, lo, hi, fopt));
    ASSERT_TRUE(replay.error.is_ok());
    EXPECT_TRUE(same_curve(replay.points, first.points));
    // Every probe replays from the loaded store: zero fresh solver runs.
    EXPECT_EQ(created.value().cache_stats().misses, 0u);
  }
  std::remove(path.c_str());
}

// Bytes changed on disk after the engine opened its store: the lookup
// that reads them back misses and counts it, and the solver recomputes
// the very same answer.
TEST(Engine, CorruptStoredEntryIsACountedMissAndRecomputed) {
  const std::string path = temp_store_path("corrupt");
  std::remove(path.c_str());
  const auto problem = random_bicrit(103, 10, 1.7);
  double energy = 0.0;
  {
    EngineConfig config;
    config.store_path = path;
    auto created = Engine::create(config);
    ASSERT_TRUE(created.is_ok()) << created.status().to_string();
    auto first = created.value().solve(problem);
    ASSERT_TRUE(first.is_ok());
    energy = first.value().energy;
  }
  EngineConfig config;
  config.store_path = path;
  config.store_mode = StoreMode::kWriteThrough;  // no pre-load: lookups read the log
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  {
    // The log holds one blob then one entry: flip a byte near the end of
    // the entry's payload, inside its CRC.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size - 16);
    f.put('\x5a');
  }
  Engine& engine = created.value();
  auto again = engine.solve(problem);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value().energy, energy);
  EXPECT_EQ(engine.cache_stats().store_hits, 0u);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  std::ostringstream scrape;
  engine.write_metrics_text(scrape);
  EXPECT_NE(scrape.str().find("\neasched_store_read_corrupt_total 1\n"), std::string::npos)
      << scrape.str();
  std::remove(path.c_str());
}

/// Holds a one-worker engine's only worker: a deadline sweep whose first
/// streamed point parks the worker until release() — or destruction, so
/// a failed assertion cannot leave the engine's destructor waiting on it.
/// Construction returns once the sweep is running, so it no longer
/// counts as queued and an admission cap is exercised by exactly the
/// jobs a test queues after it.
class GatedBlocker {
 public:
  GatedBlocker(Engine& engine, std::uint64_t seed) : gate_(std::make_shared<Gate>()) {
    const auto problem =
        std::make_shared<const core::BiCritProblem>(random_bicrit(seed, 14, 1.7));
    frontier::FrontierOptions fopt;
    fopt.initial_points = 9;
    fopt.max_points = 25;
    auto query =
        FrontierQuery::deadline(problem, problem->deadline * 0.6, problem->deadline, fopt);
    query.observer = [gate = gate_](const frontier::FrontierPoint&) {
      std::unique_lock<std::mutex> lock(gate->mutex);
      if (gate->running) return;
      gate->running = true;
      gate->cv.notify_all();
      gate->cv.wait(lock, [&] { return gate->released; });
    };
    handle_ = engine.submit(std::move(query));
    std::unique_lock<std::mutex> lock(gate_->mutex);
    gate_->cv.wait(lock, [&] { return gate_->running; });
  }
  GatedBlocker(const GatedBlocker&) = delete;
  GatedBlocker& operator=(const GatedBlocker&) = delete;
  ~GatedBlocker() { release(); }

  /// Lets the sweep finish and waits for it.
  void release() {
    {
      std::lock_guard<std::mutex> lock(gate_->mutex);
      gate_->released = true;
    }
    gate_->cv.notify_all();
    handle_.wait();
  }

 private:
  struct Gate {
    std::mutex mutex;
    std::condition_variable cv;
    bool running = false;
    bool released = false;
  };
  std::shared_ptr<Gate> gate_;
  Engine::FrontierHandle handle_;
};

TEST(Engine, MaxQueuedJobsShedsWithOverloaded) {
  EngineConfig config;
  config.threads = 1;
  config.max_queued_jobs = 1;
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  Engine& engine = created.value();

  GatedBlocker blocker(engine, 91);

  // Problems the blocker's sweep never touched: a solve it already cached
  // is answered at submit and is neither queued nor shed.
  auto queued = engine.submit(SolveQuery(random_bicrit(93, 10, 1.6)));  // fills the queue
  EXPECT_EQ(engine.queued_jobs(), 1u);
  // Over the cap: shed, not queued.
  auto shed = engine.submit(SolveQuery(random_bicrit(94, 10, 1.6)));
  EXPECT_TRUE(shed.done());  // completed synchronously, never enqueued
  const auto& shed_result = shed.get();
  ASSERT_FALSE(shed_result.is_ok());
  EXPECT_EQ(shed_result.status().code(), common::StatusCode::kOverloaded);

  blocker.release();
  EXPECT_TRUE(queued.get().is_ok());  // the admitted job still ran normally
}

bool same_report(const api::SolveReport& a, const api::SolveReport& b,
                 const graph::Dag& dag) {
  return a.energy == b.energy && a.makespan == b.makespan && a.solver == b.solver &&
         a.wall_ms == b.wall_ms && a.iterations == b.iterations && a.exact == b.exact &&
         a.re_executed == b.re_executed && a.gap_bound == b.gap_bound &&
         a.schedule.durations(dag) == b.schedule.durations(dag);
}

TEST(Engine, CachedSolveCompletesAtSubmitAndIsNeverShed) {
  EngineConfig config;
  config.threads = 1;
  config.max_queued_jobs = 1;
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  Engine& engine = created.value();

  // Prime through the queued path.
  const auto problem =
      std::make_shared<const core::BiCritProblem>(random_bicrit(95, 12, 1.6));
  const auto primed = engine.submit(SolveQuery(problem)).get();
  ASSERT_TRUE(primed.is_ok()) << primed.status().to_string();

  // Hold the only worker, then fill the one queue slot.
  GatedBlocker blocker(engine, 96);
  auto queued = engine.submit(SolveQuery(random_bicrit(97, 10, 1.6)));
  ASSERT_EQ(engine.queued_jobs(), 1u);

  // The queue is full, yet the cached solve is answered at submit: done
  // at once, never queued, never shed, equal to the queued answer.
  const std::size_t hits_before = engine.cache_stats().hits;
  SubmitOptions opts;
  opts.deadline_ms = 1e-6;  // a hit never waits, so it cannot expire
  auto hit = engine.submit(SolveQuery(problem), opts);
  EXPECT_TRUE(hit.done());
  EXPECT_EQ(engine.queued_jobs(), 1u);
  const auto& result = hit.get();
  ASSERT_TRUE(result.is_ok()) << result.status().to_string();
  EXPECT_TRUE(same_report(result.value(), primed.value(), problem->dag));
  EXPECT_EQ(engine.cache_stats().hits, hits_before + 1);

  // An uncached solve at the full queue is still shed.
  auto shed = engine.submit(SolveQuery(random_bicrit(98, 10, 1.6)));
  EXPECT_TRUE(shed.done());
  EXPECT_EQ(shed.get().status().code(), common::StatusCode::kOverloaded);

  blocker.release();
  EXPECT_TRUE(queued.get().is_ok());

  std::ostringstream os;
  engine.write_metrics_text(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("easched_jobs_sync_hits_total{kind=\"solve\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("easched_jobs_shed_total{kind=\"solve\"} 1\n"), std::string::npos);
  // primed + hit + queued + shed submissions; the hit completed ok.
  EXPECT_NE(text.find("easched_jobs_submitted_total{kind=\"solve\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("easched_jobs_completed_total{kind=\"solve\",outcome=\"ok\"} 3\n"),
            std::string::npos);
}

TEST(Engine, MissedProbeInternsNothing) {
  EngineConfig config;
  config.threads = 1;
  config.max_queued_jobs = 1;
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  Engine& engine = created.value();
  GatedBlocker blocker(engine, 99);
  const std::size_t blobs = engine.cache_stats().interned_blobs;
  auto cancelled = engine.submit(SolveQuery(random_bicrit(100, 10, 1.6)));
  cancelled.cancel();
  auto shed = engine.submit(SolveQuery(random_bicrit(101, 10, 1.6)));
  EXPECT_EQ(shed.get().status().code(), common::StatusCode::kOverloaded);
  blocker.release();
  EXPECT_EQ(cancelled.get().status().code(), common::StatusCode::kCancelled);
  // Neither the shed nor the cancelled solve left a blob behind.
  EXPECT_EQ(engine.cache_stats().interned_blobs, blobs);
}

TEST(Engine, OnCompleteFiresOnceInlineOrAsync) {
  auto created = Engine::create();
  ASSERT_TRUE(created.is_ok());
  const auto problem = random_bicrit(92, 10, 1.6);

  // Registered before completion: fires exactly once, from the worker.
  auto job = created.value().submit(SolveQuery(problem));
  std::atomic<int> fired{0};
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool seen = false;
  job.on_complete([&] {
    fired.fetch_add(1);
    std::lock_guard<std::mutex> lock(done_mutex);
    seen = true;
    done_cv.notify_all();
  });
  {
    std::unique_lock<std::mutex> lock(done_mutex);
    done_cv.wait(lock, [&] { return seen; });
  }
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(job.done());

  // Registered after completion: invoked inline, before on_complete returns.
  bool inline_fired = false;
  job.on_complete([&] { inline_fired = true; });
  EXPECT_TRUE(inline_fired);
}

TEST(Engine, WaitAnyReturnsACompletedHandle) {
  EngineConfig config;
  config.threads = 2;
  auto created = Engine::create(config);
  ASSERT_TRUE(created.is_ok());
  Engine& engine = created.value();

  std::vector<Engine::SolveHandle> handles;
  for (std::uint64_t seed = 93; seed < 96; ++seed) {
    handles.push_back(engine.submit(SolveQuery(random_bicrit(seed, 10, 1.6))));
  }
  const std::size_t first = wait_any(handles);
  ASSERT_LT(first, handles.size());
  EXPECT_TRUE(handles[first].done());

  // With a handle already completed, wait_any returns without blocking.
  for (auto& handle : handles) handle.wait();
  const std::size_t again = wait_any(handles);
  ASSERT_LT(again, handles.size());
  EXPECT_TRUE(handles[again].done());
}

TEST(Engine, RunningJobDeadlineLeavesCacheAndStoreConsistent) {
  const std::string path = temp_store_path("jobdeadline");
  std::remove(path.c_str());
  const auto problem =
      std::make_shared<const core::BiCritProblem>(random_bicrit(97, 14, 1.8));
  frontier::FrontierOptions fopt;
  fopt.initial_points = 9;
  fopt.max_points = 33;

  {
    EngineConfig config;
    config.threads = 2;
    config.store_path = path;
    auto created = Engine::create(config);
    ASSERT_TRUE(created.is_ok()) << created.status().to_string();
    Engine& engine = created.value();

    // The observer stalls the sweep past its wall-clock deadline on the
    // first streamed point, so the deadline watch cancels a *running* job
    // and the sweep notices at its next between-rounds check point.
    auto query = FrontierQuery::deadline(problem, problem->deadline * 0.5,
                                         problem->deadline, fopt);
    std::atomic<bool> stalled{false};
    query.observer = [&](const frontier::FrontierPoint&) {
      if (!stalled.exchange(true)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
      }
    };
    SubmitOptions opts;
    opts.deadline_ms = 50.0;  // expires while the observer stalls the job
    auto handle = engine.submit(std::move(query), opts);
    const auto expired = handle.get();
    EXPECT_TRUE(stalled.load());  // the job was running, not queued
    EXPECT_EQ(expired.error.code(), common::StatusCode::kDeadlineExceeded);
    EXPECT_FALSE(expired.probes.empty());  // the finished round survived

    // Whatever the expired job cached must stay valid: the same engine's
    // full sweep is bit-identical to a cold reference.
    const auto full = engine.sweep(FrontierQuery::deadline(
        problem, problem->deadline * 0.5, problem->deadline, fopt));
    ASSERT_TRUE(full.error.is_ok()) << full.error.to_string();
    frontier::SolveCache cold_cache;
    common::WorkerPool ref_pool(1);
    const frontier::FrontierEngine cold(ref_pool, &cold_cache);
    const auto reference = cold.deadline_sweep(*problem, problem->deadline * 0.5,
                                               problem->deadline, fopt);
    EXPECT_TRUE(same_curve(full.points, reference.points));
  }

  // Everything the expired job wrote through must verify cleanly.
  const auto verified = store::SolveStore::verify(path);
  ASSERT_TRUE(verified.is_ok()) << verified.status().to_string();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace easched::engine
