#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

namespace easched::common {

std::size_t default_thread_count() noexcept {
  const unsigned hc = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hc == 0 ? 1 : hc, 1, 64);
}

WorkerPool::WorkerPool(std::size_t threads) {
  std::size_t workers = threads == 0 ? default_thread_count() : threads;
  if (workers == 0) workers = 1;
  workers_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (auto& t : workers_) t.join();
}

void WorkerPool::submit(std::function<void()> fn, int priority) {
  {
    MutexLock lock(mutex_);
    queue_.emplace(TaskKey{-static_cast<long long>(priority), next_seq_++},
                   std::move(fn));
  }
  ready_.notify_one();
}

std::function<void()> WorkerPool::next_task() {
  MutexLock lock(mutex_);
  while (!stopping_ && queue_.empty()) ready_.wait(mutex_);
  if (queue_.empty()) return {};  // stopping and drained
  auto it = queue_.begin();
  std::function<void()> fn = std::move(it->second);
  queue_.erase(it);
  return fn;
}

void WorkerPool::worker_loop() {
  // Tasks queued before the stop request still run: the destructor drains
  // the queue rather than abandoning accepted work (cancellation is the
  // job layer's business, not the pool's).
  while (std::function<void()> task = next_task()) {
    const auto begin = std::chrono::steady_clock::now();
    task();
    busy_ns_.fetch_add(
        static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - begin)
                                       .count()),
        std::memory_order_relaxed);
    tasks_done_.fetch_add(1, std::memory_order_relaxed);
  }
}

namespace {

/// Shared state of one WorkerPool::parallel region. Helpers hold it via
/// shared_ptr so a helper that fires after the region completed (all
/// chunks claimed) no-ops safely even though the caller returned.
struct ParallelRegion {
  std::size_t n = 0;
  std::size_t grain = 1;  ///< iterations per claimed chunk
  const std::function<void(std::size_t)>* body = nullptr;  ///< valid while chunks remain
  std::atomic<std::size_t> next{0};
  Mutex mutex;
  CondVar done_cv;
  std::size_t done EASCHED_GUARDED_BY(mutex) = 0;  ///< iterations finished
  std::exception_ptr error EASCHED_GUARDED_BY(mutex);

  /// Claims and runs chunks until none are left. Iterations count as done
  /// even when the body throws (only the first exception is kept), so the
  /// caller's completion wait can never hang on a failed region.
  void drain() {
    for (;;) {
      const std::size_t begin = next.fetch_add(grain);
      if (begin >= n) return;
      const std::size_t end = std::min(begin + grain, n);
      std::exception_ptr caught;
      for (std::size_t i = begin; i < end; ++i) {
        try {
          (*body)(i);
        } catch (...) {
          if (!caught) caught = std::current_exception();
        }
      }
      MutexLock lock(mutex);
      if (caught && !error) error = caught;
      done += end - begin;
      if (done == n) done_cv.notify_all();
    }
  }
};

}  // namespace

void WorkerPool::parallel(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || size() == 1) {
    // Nothing to fan out (or no helper could exist beyond this thread):
    // run inline; exceptions propagate directly.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto region = std::make_shared<ParallelRegion>();
  region->n = n;
  region->body = &body;
  region->grain = std::max<std::size_t>(1, n / (4 * size()));
  // Idle workers join through max-priority helpers: sub-work of a running
  // job always beats queued jobs, so a job's internal fan-out never
  // inverts with lower-priority whole jobs behind it. The caller drains
  // one chunk itself, so at most chunks - 1 = (n - 1) / grain helpers.
  const std::size_t helpers = std::min(size(), (n - 1) / region->grain);
  for (std::size_t h = 0; h < helpers; ++h) {
    submit([region] { region->drain(); }, std::numeric_limits<int>::max());
  }
  region->drain();  // the caller participates — nested use cannot deadlock
  {
    MutexLock lock(region->mutex);
    while (region->done != region->n) region->done_cv.wait(region->mutex);
    if (region->error) std::rethrow_exception(region->error);
  }
}

void parallel_chunks(WorkerPool& pool, std::size_t n, std::size_t chunks,
                     const std::function<void(std::size_t, std::size_t, std::size_t)>& body) {
  if (n == 0 || chunks == 0) return;
  // Deterministic decomposition: chunk c covers [c*n/chunks, (c+1)*n/chunks).
  pool.parallel(chunks, [&](std::size_t c) { body(c, c * n / chunks, (c + 1) * n / chunks); });
}

}  // namespace easched::common
