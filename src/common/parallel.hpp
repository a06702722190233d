#pragma once
// The library's one executor: a persistent WorkerPool, plus a
// deterministic chunking helper on top of it.
//
// easched's own hot loops (frontier sweep rounds, batch corpora,
// Monte-Carlo fault injection, simulator corpora) are embarrassingly
// parallel. All of them fan out through WorkerPool::parallel, either on
// the engine's pool or on a local pool sized by the caller's `threads`;
// parallel_chunks adds a chunking that does not depend on the pool size,
// so per-chunk RNG substreams give reproducible results for any thread
// count.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"

namespace easched::common {

/// Default WorkerPool size (>= 1): std::thread::hardware_concurrency(),
/// clamped to [1, 64].
std::size_t default_thread_count() noexcept;

/// Persistent worker pool. Threads are spawned once and reused for every
/// submitted task, so a long-lived server (the engine façade) pays thread
/// start-up once instead of per request.
///
/// Two kinds of work share the pool:
///  * submit(fn, priority) — an independent task (a job). Higher priority
///    runs earlier; within a priority, FIFO. Tasks never run concurrently
///    with themselves and there is no result plumbing here — callers
///    (engine::JobHandle) layer their own completion state on top.
///  * parallel(n, body) — a blocking data-parallel region, callable from
///    outside the pool and from *inside* a running task. The caller runs
///    chunks too, so nested use cannot deadlock even on a one-thread pool.
///
/// Exceptions thrown by a submitted task are swallowed after being routed
/// to the task's own catch scope (submit wraps nothing — the caller's fn
/// must handle its errors; engine jobs convert them to Status). Exceptions
/// from parallel() bodies propagate to the parallel() caller.
///
/// The destructor finishes every already-submitted task, then joins.
class WorkerPool {
 public:
  /// `threads` == 0 uses default_thread_count(). At least 1.
  explicit WorkerPool(std::size_t threads = 0);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  std::size_t size() const noexcept { return workers_.size(); }

  /// Cumulative worker activity, for utilization gauges. `tasks` counts
  /// every dequeued task (submitted jobs *and* the max-priority helper
  /// shifts parallel() regions enqueue); `busy_ms` is the summed
  /// steady_clock time workers spent inside them. The caller thread's
  /// own participation in parallel() is not pool time and is not
  /// counted. Approximate by design — counters are relaxed atomics.
  struct PoolStats {
    std::uint64_t tasks = 0;
    double busy_ms = 0.0;
  };
  PoolStats stats() const noexcept {
    return PoolStats{tasks_done_.load(std::memory_order_relaxed),
                     static_cast<double>(busy_ns_.load(std::memory_order_relaxed)) / 1e6};
  }

  /// Enqueues one task. Thread-safe; may be called from inside a task.
  void submit(std::function<void()> fn, int priority = 0) EASCHED_EXCLUDES(mutex_);

  /// Runs body(i) for i in [0, n), returning when all iterations finished.
  /// Indices are claimed in contiguous chunks of max(1, n / (4 * size()));
  /// the caller claims chunks itself, and min(size(), chunks - 1)
  /// max-priority helper tasks let idle workers claim the rest. Chunking
  /// decides only which thread runs an index and when, never a result
  /// (body must be safe for concurrent distinct i). On a one-thread pool,
  /// or with n == 1, the iterations run inline on the caller in index
  /// order. The first exception a body throws is rethrown here after
  /// every iteration completed.
  void parallel(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  /// Pops the highest-priority task; empty function when stopping and
  /// drained.
  std::function<void()> next_task() EASCHED_EXCLUDES(mutex_);

  /// Key = (-priority, sequence): map order is execution order. The
  /// negated priority is widened to 64 bits so every int priority —
  /// INT_MIN included — negates without overflow.
  using TaskKey = std::pair<long long, std::uint64_t>;
  mutable Mutex mutex_;
  CondVar ready_;
  std::map<TaskKey, std::function<void()>> queue_ EASCHED_GUARDED_BY(mutex_);
  std::uint64_t next_seq_ EASCHED_GUARDED_BY(mutex_) = 0;
  bool stopping_ EASCHED_GUARDED_BY(mutex_) = false;
  /// Worker activity counters for stats(); relaxed — observability only.
  std::atomic<std::uint64_t> tasks_done_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  /// Only mutated in the constructor (before any worker can observe the
  /// pool) and joined in the destructor; size() reads it lock-free.
  std::vector<std::thread> workers_;
};

/// Runs body(chunk_index, begin, end) on `pool` over a deterministic
/// chunking of [0, n) into exactly `chunks` contiguous ranges (some
/// possibly empty).
///
/// The chunk decomposition depends only on (n, chunks) — not on the pool
/// size — so seeding an RNG substream per chunk_index yields reproducible
/// parallel Monte-Carlo runs.
void parallel_chunks(WorkerPool& pool, std::size_t n, std::size_t chunks,
                     const std::function<void(std::size_t, std::size_t, std::size_t)>& body);

}  // namespace easched::common
