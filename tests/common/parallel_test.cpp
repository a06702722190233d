#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace easched::common {
namespace {

TEST(ParallelChunks, DecompositionIsDeterministicAndComplete) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    WorkerPool pool(threads);
    const std::size_t n = 1000, chunks = 7;
    std::vector<std::pair<std::size_t, std::size_t>> ranges(chunks);
    parallel_chunks(pool, n, chunks, [&](std::size_t c, std::size_t lo, std::size_t hi) {
      ranges[c] = {lo, hi};
    });
    std::size_t covered = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      EXPECT_LE(ranges[c].first, ranges[c].second);
      covered += ranges[c].second - ranges[c].first;
      if (c > 0) EXPECT_EQ(ranges[c].first, ranges[c - 1].second);
    }
    EXPECT_EQ(covered, n) << threads;
    EXPECT_EQ(ranges.front().first, 0u);
    EXPECT_EQ(ranges.back().second, n);
  }
}

TEST(ParallelChunks, SameDecompositionRegardlessOfPoolSize) {
  const std::size_t n = 997, chunks = 13;
  std::vector<std::pair<std::size_t, std::size_t>> r1(chunks), r2(chunks);
  WorkerPool one(1);
  WorkerPool eight(8);
  parallel_chunks(one, n, chunks,
                  [&](std::size_t c, std::size_t lo, std::size_t hi) { r1[c] = {lo, hi}; });
  parallel_chunks(eight, n, chunks,
                  [&](std::size_t c, std::size_t lo, std::size_t hi) { r2[c] = {lo, hi}; });
  EXPECT_EQ(r1, r2);
}

TEST(ParallelChunks, MoreChunksThanItemsYieldsEmptyChunks) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    WorkerPool pool(threads);
    std::atomic<std::size_t> total{0};
    parallel_chunks(pool, 3, 10, [&](std::size_t, std::size_t lo, std::size_t hi) {
      total.fetch_add(hi - lo);
    });
    EXPECT_EQ(total.load(), 3u) << threads;
  }
}

TEST(DefaultThreadCount, IsPositiveAndBounded) {
  EXPECT_GE(default_thread_count(), 1u);
  EXPECT_LE(default_thread_count(), 64u);
}

TEST(WorkerPool, RunsEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    WorkerPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&ran] { ran.fetch_add(1); });
    }
  }  // destructor drains the queue
  EXPECT_EQ(ran.load(), 100);
}

TEST(WorkerPool, PriorityOutranksSubmissionOrder) {
  // One worker, blocked on a gate: everything queued behind it is popped
  // strictly by (priority desc, submission order).
  WorkerPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  bool release = false;
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return release; });
  });
  std::vector<int> order;
  std::atomic<int> done{0};
  auto record = [&](int tag) {
    return [&, tag] {
      {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(tag);
      }
      done.fetch_add(1);
    };
  };
  pool.submit(record(1), /*priority=*/0);
  pool.submit(record(2), /*priority=*/5);
  pool.submit(record(3), /*priority=*/5);  // FIFO within a priority
  pool.submit(record(4), /*priority=*/-1);
  {
    std::lock_guard<std::mutex> lock(mutex);
    release = true;
  }
  cv.notify_all();
  while (done.load() < 4) std::this_thread::yield();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1, 4}));
}

TEST(WorkerPool, ParallelCoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    WorkerPool pool(threads);
    const std::size_t n = 10007;
    std::vector<std::atomic<int>> counts(n);
    std::atomic<long long> total{0};
    pool.parallel(n, [&](std::size_t i) {
      counts[i].fetch_add(1);
      total.fetch_add(static_cast<long long>(i));
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(counts[i].load(), 1) << i;
    EXPECT_EQ(total.load(), static_cast<long long>(n * (n - 1) / 2)) << threads;
  }
}

TEST(WorkerPool, ParallelEmptyRangeIsNoop) {
  WorkerPool pool(4);
  bool called = false;
  pool.parallel(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerPool, ParallelOnOneThreadRunsInlineInOrder) {
  WorkerPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  bool all_on_caller = true;
  pool.parallel(40, [&](std::size_t i) {
    order.push_back(i);  // unsynchronised on purpose: inline means one thread
    if (std::this_thread::get_id() != caller) all_on_caller = false;
  });
  EXPECT_TRUE(all_on_caller);
  ASSERT_EQ(order.size(), 40u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(WorkerPool, NestedParallelFromWorkerDoesNotDeadlock) {
  // A submitted job fanning out on its own pool is the engine's batch /
  // sweep shape; the caller participates, so even a 1-thread pool makes
  // progress.
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    WorkerPool pool(threads);
    std::atomic<std::size_t> total{0};
    std::atomic<bool> finished{false};
    pool.submit([&] {
      pool.parallel(64, [&](std::size_t) { total.fetch_add(1); });
      finished.store(true);
    });
    while (!finished.load()) std::this_thread::yield();
    EXPECT_EQ(total.load(), 64u) << threads;
  }
}

TEST(WorkerPool, ParallelPropagatesTheFirstException) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    WorkerPool pool(threads);
    EXPECT_THROW(
        pool.parallel(100,
                      [](std::size_t i) {
                        if (i == 37) throw std::runtime_error("boom");
                      }),
        std::runtime_error);
    // The pool survives a failed region and keeps serving.
    std::atomic<int> ran{0};
    pool.parallel(10, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 10) << threads;
  }
}

TEST(WorkerPool, SmallRegionRunsOnEveryWorker) {
  // Each body waits until all four iterations have started, which only
  // happens if the four indices land on four threads at once. A region
  // that drained in one chunk would time out, not hang. Run from the test
  // thread and from inside a job (the engine's sweep shape: the calling
  // worker plus three helpers).
  WorkerPool pool(4);
  auto four_at_once = [&pool] {
    std::mutex mutex;
    std::condition_variable cv;
    int started = 0;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    std::atomic<int> met{0};
    pool.parallel(4, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(mutex);
      ++started;
      cv.notify_all();
      if (cv.wait_until(lock, deadline, [&] { return started == 4; })) met.fetch_add(1);
    });
    return met.load();
  };
  EXPECT_EQ(four_at_once(), 4) << "from the test thread";

  std::mutex mutex;
  std::condition_variable cv;
  int from_job = -1;
  pool.submit([&] {
    const int met = four_at_once();
    std::lock_guard<std::mutex> lock(mutex);
    from_job = met;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return from_job >= 0; });
  EXPECT_EQ(from_job, 4) << "from inside a job";
}

TEST(WorkerPool, BackToBackSmallRegionsFromAJob) {
  // At grain 1 most helpers fire after their region finished and the
  // caller returned; they must find it still alive and fully claimed.
  // Under TSan this is where a lifetime error in the region would show.
  WorkerPool pool(4);
  constexpr int kRegions = 2000;
  std::atomic<bool> finished{false};
  std::atomic<int> bad_counts{0}, thrown{0}, rethrown{0};
  pool.submit([&] {
    for (int r = 0; r < kRegions; ++r) {
      const std::size_t n = 2 + static_cast<std::size_t>(r) % 8;  // 2..9
      std::vector<std::atomic<int>> counts(n);
      const bool throws = r % 97 == 0;
      if (throws) thrown.fetch_add(1);
      try {
        pool.parallel(n, [&](std::size_t i) {
          counts[i].fetch_add(1);
          if (throws && i == n - 1) throw std::runtime_error("boom");
        });
      } catch (const std::runtime_error&) {
        rethrown.fetch_add(1);
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (counts[i].load() != 1) bad_counts.fetch_add(1);
      }
    }
    finished.store(true);
  });
  while (!finished.load()) std::this_thread::yield();
  EXPECT_EQ(bad_counts.load(), 0);
  EXPECT_EQ(rethrown.load(), thrown.load());
  // The pool still serves after every throwing region.
  std::atomic<int> ran{0};
  pool.parallel(9, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 9);
}

}  // namespace
}  // namespace easched::common
