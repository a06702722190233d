#pragma once
// easched::engine — the one owned entry point for solve, sweep and store.
//
// Below this layer the library is four loosely coupled pieces — the
// solver registry (api/), the frontier sweep engine (frontier/), the
// in-memory SolveCache and the persistent SolveStore (store/) — and
// before this façade every caller wired them together by hand: build a
// cache, open a store, attach, construct a FrontierEngine, pick thread
// counts, and block synchronously per request. The Engine owns that
// plumbing once:
//
//   engine::EngineConfig cfg;           // declarative: threads, cache
//   cfg.store_path = "solves.log";      // caps, store path/mode, warm
//   auto engine = engine::Engine::create(cfg);    // starts owned here
//
//   auto job = engine.value().submit(engine::SolveQuery(problem));
//   ... do other work ...
//   const auto& report = job.get();     // future-style join
//
// Every query type — SolveQuery, BatchQuery, FrontierQuery, ResweepQuery
// — goes through the same submit() -> JobHandle API: jobs run on a
// persistent common::WorkerPool, share one SolveCache (and SolveStore,
// when configured), and support per-job priorities, deadlines and
// cooperative cancellation. FrontierQuery additionally streams frontier
// points to an observer as the sweep discovers them, enabling
// incremental output and early stop; the streamed set reproduces the
// synchronous sweep's curve bit-identically after dominance filtering.
//
// The Engine is the only route to batches, sweeps and multi-solver
// comparisons, and its pool is the only executor they fan out on. Below
// it, api::solve is the uncached solver layer every query ends in, and
// frontier::FrontierEngine is the sweep algorithm the Engine runs on its
// pool.

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/batch.hpp"
#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "api/registry.hpp"
#include "api/solver.hpp"
#include "common/parallel.hpp"
#include "common/status.hpp"
#include "core/problem.hpp"
#include "frontier/cache.hpp"
#include "frontier/compare.hpp"
#include "frontier/frontier.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/store.hpp"

namespace easched::engine {

/// How a configured store backs the cache (see store/store.hpp).
enum class StoreMode {
  kBoth,          ///< load on open + write through (the default)
  kWriteThrough,  ///< persist fresh solves, start cold
  kLoadOnOpen,    ///< replay previous traffic, never append
};

/// Declarative construction: everything the Engine owns is picked here,
/// once, instead of being wired by every caller.
struct EngineConfig {
  /// Worker-pool size shared by all jobs (and their internal fan-out);
  /// 0 = common::default_thread_count().
  std::size_t threads = 0;
  /// SolveCache shape: shard count and the LRU caps (0 = unbounded).
  /// SolveCache itself clamps the shard count below a small entry cap so
  /// the floor-split per-shard LRU can never overshoot it.
  std::size_t cache_shards = 16;
  std::size_t cache_max_entries = 0;
  std::size_t cache_max_bytes = 0;
  /// Non-empty: open (creating unless read-only) a persistent SolveStore
  /// at this path and attach it to the cache.
  std::string store_path;
  StoreMode store_mode = StoreMode::kBoth;
  bool store_warm_start = false;  ///< nearest-neighbour barrier seeding
  bool store_read_only = false;
  /// Admission control: > 0 caps the number of submitted-but-not-yet-
  /// started jobs. A submit() over the cap never enqueues — it returns a
  /// handle already completed with Status::kOverloaded, so callers shed
  /// load instead of growing the queue unboundedly. Jobs a *running* job
  /// fans out internally (pool.parallel) are not jobs and never count.
  /// 0 (the default) keeps admission unbounded.
  std::size_t max_queued_jobs = 0;
  /// Metrics collection (src/obs): per-kind job counters and latency /
  /// queue-wait histograms, plus cache/store/pool gauges sampled at
  /// export time. Strictly observational — results are bit-identical
  /// with metrics on or off; off skips even the clock reads.
  bool metrics = true;
  /// > 0: retain the newest `trace_capacity` completed job lifecycles
  /// (submit -> start -> end) for write_trace_json(). 0 disables tracing.
  std::size_t trace_capacity = 0;
};

/// Per-submission knobs.
struct SubmitOptions {
  /// Higher runs earlier; within a priority, submission order. A running
  /// job's internal fan-out always outranks queued jobs.
  int priority = 0;
  /// > 0: the job's wall-clock deadline, measured from submission. A job
  /// still queued when it expires completes with kDeadlineExceeded
  /// without running. A job already *running* is cancelled cooperatively
  /// at its next check point (between sweep rounds / before the next
  /// batch slot) and completes with kDeadlineExceeded instead of
  /// kCancelled; everything it already solved stays cached and persisted,
  /// exactly like an explicit JobHandle::cancel. A single solve has no
  /// interior check point, so it runs to completion once started.
  double deadline_ms = 0.0;
};

/// One solve of one problem. Problems are shared (or copied in from a
/// reference) so the query outlives the caller's stack — submit() is
/// asynchronous.
struct SolveQuery {
  explicit SolveQuery(const core::Problem& p, std::string solver_name = {},
                      api::SolveOptions opts = {})
      : problem(std::make_shared<const core::Problem>(p)),
        solver(std::move(solver_name)), options(opts) {}
  explicit SolveQuery(std::shared_ptr<const core::Problem> p, std::string solver_name = {},
                      api::SolveOptions opts = {})
      : problem(std::move(p)), solver(std::move(solver_name)), options(opts) {}

  std::shared_ptr<const core::Problem> problem;
  std::string solver;  ///< registry name; empty = auto-select
  api::SolveOptions options;
};

/// A corpus of jobs solved as one unit on the engine pool, through the
/// shared cache (repeat corpora hit; the store policies apply), and
/// aggregated per family by api::aggregate_batch.
struct BatchQuery {
  std::vector<api::BatchJob> jobs;
  std::string solver;        ///< batch-level solver; per-job override wins
  api::SolveOptions options; ///< forwarded to every solve
};

/// One Pareto sweep. Use the factories — they pick the axis and keep the
/// problem alive for the asynchronous run.
struct FrontierQuery {
  /// Energy-vs-deadline sweep (a TRI-CRIT problem at its fixed frel).
  static FrontierQuery deadline(const core::Problem& problem, double dmin, double dmax,
                                frontier::FrontierOptions opts = {});
  static FrontierQuery deadline(std::shared_ptr<const core::Problem> problem, double dmin,
                                double dmax, frontier::FrontierOptions opts = {});
  /// Energy-vs-reliability sweep over threshold speeds. A problem with no
  /// reliability model is rejected with kInvalidArgument when it runs.
  static FrontierQuery reliability(const core::Problem& problem, double rmin, double rmax,
                                   frontier::FrontierOptions opts = {});
  static FrontierQuery reliability(std::shared_ptr<const core::Problem> problem,
                                   double rmin, double rmax,
                                   frontier::FrontierOptions opts = {});

  std::shared_ptr<const core::Problem> problem;
  frontier::ConstraintAxis axis = frontier::ConstraintAxis::kDeadline;
  double lo = 0.0;
  double hi = 0.0;
  frontier::FrontierOptions options;
  /// Streaming observer: every feasible evaluation, in deterministic
  /// order, as the sweep's rounds finish (see FrontierOptions::on_point).
  /// Called from the job's thread — keep it quick, don't re-enter the
  /// engine from it.
  std::function<void(const frontier::FrontierPoint&)> observer;
};

/// Incremental update: re-sweep `target` warm-started from `prev` (the
/// curve of a neighbouring instance). Bit-identical to a cold sweep of
/// the target, typically much faster on repeat traffic.
struct ResweepQuery {
  frontier::FrontierResult prev;
  FrontierQuery target;
};

namespace detail {
/// Completion state shared between a JobHandle and the queued task.
template <typename T>
struct JobState {
  std::uint64_t id = 0;
  std::atomic<bool> cancel{false};
  /// Set by the deadline watchdog when deadline_ms expired while the job
  /// ran: the cooperative stop it triggered reports kDeadlineExceeded
  /// rather than kCancelled.
  std::atomic<bool> deadline_fired{false};
  mutable common::Mutex mutex;
  mutable common::CondVar cv;
  std::optional<T> result EASCHED_GUARDED_BY(mutex);
  /// Callbacks registered before completion; complete() drains them once,
  /// after the result became observable.
  std::vector<std::function<void()>> callbacks EASCHED_GUARDED_BY(mutex);

  void complete(T value) EASCHED_EXCLUDES(mutex) {
    std::vector<std::function<void()>> pending;
    {
      common::MutexLock lock(mutex);
      result.emplace(std::move(value));
      pending.swap(callbacks);
    }
    cv.notify_all();
    // Outside the lock: a callback may call done()/get() or register
    // further work without deadlocking. Completion happens exactly once,
    // so each callback runs exactly once.
    for (auto& fn : pending) fn();
  }

  /// The completed value, readable without the mutex: complete() writes
  /// `result` exactly once and nothing ever mutates it afterwards, and
  /// every caller reaches this through a wait that observed the write
  /// under the mutex (the release/acquire pair carries the
  /// happens-before). Annotated out of the analysis for that reason.
  const T& completed_value() const EASCHED_NO_THREAD_SAFETY_ANALYSIS {
    return *result;
  }
};

/// Pre-resolved metric handles for one query kind. The job hot path
/// records through these raw pointers (stable for the Registry's
/// lifetime) — registry lookups happen once at engine construction, plus
/// lazily for uncommon (outcome, priority) combinations. All pointers
/// are null when metrics are disabled; `kind` is always set.
struct KindInstruments {
  const char* kind = "";
  obs::Counter* submitted = nullptr;        ///< easched_jobs_submitted_total{kind}
  obs::Counter* shed = nullptr;             ///< easched_jobs_shed_total{kind}
  obs::Counter* completed_ok = nullptr;     ///< ..._completed_total{kind,outcome="ok"}
  obs::Histogram* queue_wait_ms = nullptr;  ///< easched_job_queue_wait_ms{kind}
  obs::Histogram* latency_ms0 = nullptr;    ///< ..._latency_ms{kind,priority="0"}
  obs::Histogram* latency_sync = nullptr;   ///< ..._latency_ms{kind,priority="sync"}
};

/// Everything a queued job needs to record itself: owned by the Engine
/// behind a unique_ptr (stable across moves, like the other components),
/// captured by address in pool lambdas. `registry`/`trace` may each be
/// null — metrics and tracing toggle independently.
struct Instruments {
  obs::Registry* registry = nullptr;
  obs::TraceBuffer* trace = nullptr;
  /// Engine creation time: every exported duration/timestamp is relative
  /// to this steady_clock origin (wall clock never enters the formats).
  std::chrono::steady_clock::time_point epoch{};
  KindInstruments solve;
  /// easched_jobs_sync_hits_total{kind="solve"}: solve submissions
  /// answered from the cache on the submitting thread (null = metrics off).
  obs::Counter* solve_sync_hits = nullptr;
  KindInstruments batch;
  KindInstruments frontier;
  KindInstruments resweep;
};

/// One lazily-started thread that cooperatively cancels *running* jobs
/// whose wall-clock deadline expired. arm() registers (deadline, flags);
/// the thread sleeps until the earliest armed deadline, then sets the
/// job's deadline_fired and cancel flags — the job stops at its next
/// cooperative check point and its submit wrapper converts the resulting
/// kCancelled into kDeadlineExceeded. Flags are held weakly: a job that
/// completed (and whose handles were dropped) is simply skipped, so the
/// watch never extends a job's lifetime.
class DeadlineWatch {
 public:
  DeadlineWatch() = default;
  DeadlineWatch(const DeadlineWatch&) = delete;
  DeadlineWatch& operator=(const DeadlineWatch&) = delete;
  ~DeadlineWatch();

  void arm(std::chrono::steady_clock::time_point when,
           std::weak_ptr<std::atomic<bool>> cancel,
           std::weak_ptr<std::atomic<bool>> fired) EASCHED_EXCLUDES(mutex_);

 private:
  struct Armed {
    std::weak_ptr<std::atomic<bool>> cancel;
    std::weak_ptr<std::atomic<bool>> fired;
  };

  void loop() EASCHED_EXCLUDES(mutex_);

  common::Mutex mutex_;
  common::CondVar cv_;
  std::multimap<std::chrono::steady_clock::time_point, Armed> armed_
      EASCHED_GUARDED_BY(mutex_);
  bool stopping_ EASCHED_GUARDED_BY(mutex_) = false;
  bool started_ EASCHED_GUARDED_BY(mutex_) = false;
  /// Started under mutex_ on the first arm(); joined (unlocked) in the
  /// destructor after stopping_ was published.
  std::thread thread_;
};
}  // namespace detail

/// Future-style handle on a submitted job. Copyable (all copies share
/// the job); default-constructed handles are invalid. The handle never
/// blocks the engine: dropping it detaches from a still-running job.
template <typename T>
class JobHandle {
 public:
  JobHandle() = default;

  bool valid() const noexcept { return state_ != nullptr; }
  /// Engine-unique job id (1-based), for logs.
  std::uint64_t id() const noexcept { return state_ ? state_->id : 0; }

  /// Requests cooperative cancellation: a queued job completes with
  /// kCancelled without running; a running sweep/batch stops at its next
  /// check point (between rounds / before the next job) with everything
  /// already solved still cached and persisted. Never blocks.
  void cancel() {
    if (state_) state_->cancel.store(true, std::memory_order_relaxed);
  }
  bool cancel_requested() const noexcept {
    return state_ && state_->cancel.load(std::memory_order_relaxed);
  }

  bool done() const {
    if (!state_) return false;
    common::MutexLock lock(state_->mutex);
    return state_->result.has_value();
  }
  /// wait()/get() on an invalid handle are programming errors and throw
  /// (there is no job whose completion could ever be awaited).
  void wait() const {
    if (!state_) throw std::logic_error("JobHandle::wait() on an invalid handle");
    common::MutexLock lock(state_->mutex);
    while (!state_->result.has_value()) state_->cv.wait(state_->mutex);
  }
  /// Blocks until the job completed, then returns its result. The
  /// reference stays valid as long as any handle to the job exists (the
  /// completed value is immutable, so the unlocked read is safe — see
  /// JobState::completed_value).
  const T& get() const {
    wait();
    return state_->completed_value();
  }

  /// Registers a completion callback, invoked exactly once after the
  /// result became observable (done() is true and get() returns without
  /// blocking inside the callback). An already-completed job invokes `fn`
  /// inline before returning; otherwise it runs on the worker thread that
  /// completes the job — keep it quick and never block on another job
  /// from it (reactive drivers push a notification and return). This is
  /// what lets a connection loop or a load generator drive hundreds of
  /// jobs without one blocked thread per job.
  void on_complete(std::function<void()> fn) const {
    if (!state_) throw std::logic_error("JobHandle::on_complete() on an invalid handle");
    {
      common::MutexLock lock(state_->mutex);
      if (!state_->result.has_value()) {
        state_->callbacks.push_back(std::move(fn));
        return;
      }
    }
    fn();
  }

 private:
  friend class Engine;
  explicit JobHandle(std::shared_ptr<detail::JobState<T>> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::JobState<T>> state_;
};

/// Blocks until at least one of `handles` completed and returns the index
/// of the first completed handle (lowest index wins when several already
/// are). Invalid handles are skipped; throws std::logic_error when
/// `handles` is empty or all-invalid (nothing could ever complete).
/// Unlike a wait() per handle, this needs no thread per job: it parks the
/// caller on one shared latch that every job's completion pokes.
template <typename T>
std::size_t wait_any(const std::vector<JobHandle<T>>& handles) {
  struct Latch {
    common::Mutex mutex;
    common::CondVar cv;
    bool poked EASCHED_GUARDED_BY(mutex) = false;
  };
  auto latch = std::make_shared<Latch>();
  bool any_valid = false;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (!handles[i].valid()) continue;
    any_valid = true;
    // Registration may fire inline (already done) or from a worker; both
    // paths just poke the latch. Callbacks outlive this call harmlessly —
    // they only touch the shared latch.
    handles[i].on_complete([latch] {
      {
        common::MutexLock lock(latch->mutex);
        latch->poked = true;
      }
      latch->cv.notify_all();
    });
  }
  if (!any_valid) throw std::logic_error("wait_any() with no valid handle");
  while (true) {
    {
      common::MutexLock lock(latch->mutex);
      while (!latch->poked) latch->cv.wait(latch->mutex);
      latch->poked = false;  // re-arm in case our scan races a later poke
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (handles[i].valid() && handles[i].done()) return i;
    }
  }
}

class Engine {
 public:
  using SolveHandle = JobHandle<common::Result<api::SolveReport>>;
  using BatchHandle = JobHandle<api::BatchReport>;
  using FrontierHandle = JobHandle<frontier::FrontierResult>;

  /// Builds the whole serving context from `config`: cache, optional
  /// store (opened and attached; open errors surface here), sweep engine
  /// and worker pool. The Engine is movable; handles and internals stay
  /// valid across moves.
  static common::Result<Engine> create(EngineConfig config = {});

  Engine(Engine&&) = default;
  /// Move *assignment* is deleted: the defaulted form would destroy the
  /// target's store/cache/sweeper before its pool drained, handing
  /// in-flight jobs freed components. Move-construct into a fresh
  /// Engine instead (which is all Result<Engine> needs).
  Engine& operator=(Engine&&) = delete;
  /// Completes every submitted job (cancel first for a fast shutdown),
  /// then joins the pool. Cache and store shut down after the last job.
  ~Engine() = default;

  // ---- asynchronous surface ----

  /// A solve whose answer is already cached completes on the calling
  /// thread: the instance is serialised and digested once here and the
  /// cache probed without interning anything. The returned handle is
  /// then done() at once — the job is counted (zero queue wait) but never
  /// queued, so max_queued_jobs never sheds it and its deadline cannot
  /// expire. On a miss the job carries the serialised instance to the
  /// worker, which interns it without serialising again.
  SolveHandle submit(SolveQuery query, const SubmitOptions& opts = {});
  BatchHandle submit(BatchQuery query, const SubmitOptions& opts = {});
  FrontierHandle submit(FrontierQuery query, const SubmitOptions& opts = {});
  FrontierHandle submit(ResweepQuery query, const SubmitOptions& opts = {});

  // ---- synchronous conveniences (same shared cache/store/pool) ----

  common::Result<api::SolveReport> solve(const core::Problem& problem,
                                         std::string solver = {},
                                         const api::SolveOptions& options = {});
  api::BatchReport solve_batch(std::vector<api::BatchJob> jobs, std::string solver = {},
                               const api::SolveOptions& options = {});
  frontier::FrontierResult sweep(FrontierQuery query);
  frontier::FrontierResult resweep(ResweepQuery query);
  /// Multi-solver comparison: sweeps `query` once per named solver (its
  /// options.solver overridden), in request order, then reports which
  /// solver dominates where (frontier/compare.hpp). Each sweep counts as
  /// one synchronous frontier call in the metrics.
  frontier::FrontierComparison compare(const FrontierQuery& query,
                                       const std::vector<std::string>& solvers);

  // ---- owned state ----

  const EngineConfig& config() const noexcept { return config_; }
  std::size_t threads() const noexcept { return pool_->size(); }
  /// Jobs submitted but not yet started (the population max_queued_jobs
  /// caps). Advisory: the value can change before the caller acts on it.
  std::size_t queued_jobs() const noexcept {
    return queued_->load(std::memory_order_relaxed);
  }
  frontier::CacheStats cache_stats() const { return cache_->stats(); }
  frontier::SolveCache& cache() noexcept { return *cache_; }
  /// The attached persistent store; nullptr when none was configured.
  store::SolveStore* store() noexcept { return store_.get(); }

  // ---- observability (strictly observational; see src/obs) ----

  /// The engine's metric registry; nullptr when EngineConfig::metrics is
  /// false. Co-located layers (the serve daemon) register their own
  /// series here so one scrape covers the whole process.
  obs::Registry* metrics() noexcept { return metrics_.get(); }
  /// The job trace ring; nullptr when trace_capacity is 0.
  const obs::TraceBuffer* trace() const noexcept { return trace_.get(); }

  /// Samples the point-in-time gauges (queue depth, pool utilization,
  /// cache and store state) into the registry, then writes the whole
  /// registry as Prometheus-style text. Writes nothing with metrics off.
  void write_metrics_text(std::ostream& os);
  /// Same state as one JSON document ({"metrics": []} with metrics off).
  void write_metrics_json(std::ostream& os);
  /// Chrome trace_event JSON of the retained job spans; false (nothing
  /// written) when tracing is off.
  bool write_trace_json(std::ostream& os) const;

 private:
  Engine() = default;

  /// Shared submit plumbing: allocates the job state, wraps `run` with
  /// the queued-deadline check and enqueues it. `run(state, expired)`
  /// must be noexcept-complete: convert its own failures into T. Queued
  /// jobs capture only the pool/cache/sweeper addresses (stable behind
  /// unique_ptr), never `this`, so moving the Engine with jobs in flight
  /// is safe. When admission control rejects (queued_ at the cap),
  /// `shed()` is invoked instead and its T completes the handle
  /// synchronously. `ki` points at the query kind's pre-resolved metric
  /// handles inside instruments_ (null when observability is fully off);
  /// `outcome_of(T)` maps the completed value to its outcome label.
  template <typename T, typename Fn, typename Shed, typename Outcome>
  JobHandle<T> enqueue(const detail::KindInstruments* ki, const SubmitOptions& opts,
                       Fn run, Shed shed, Outcome outcome_of);

  /// Refreshes the sampled gauges (queue/pool/cache/store) before an
  /// export. Requires metrics_ != nullptr.
  void sample_gauges();

  EngineConfig config_;
  std::unique_ptr<store::SolveStore> store_;     ///< outlives the cache
  std::unique_ptr<frontier::SolveCache> cache_;  ///< outlives the pool
  /// Built after the pool it fans out on; destroyed after it too, so no
  /// sweep can still be running.
  std::unique_ptr<frontier::FrontierEngine> sweeper_;
  std::unique_ptr<std::atomic<std::uint64_t>> next_job_id_;
  /// Submitted-but-not-started count, for max_queued_jobs admission.
  std::unique_ptr<std::atomic<std::size_t>> queued_;
  /// Observability state. Jobs in flight reach it only through the
  /// stable instruments_ address, so it must outlive the pool — declared
  /// before pool_ like every other component jobs touch.
  std::unique_ptr<obs::Registry> metrics_;     ///< null = metrics off
  std::unique_ptr<obs::TraceBuffer> trace_;    ///< null = tracing off
  std::unique_ptr<detail::Instruments> instruments_;  ///< null = both off
  /// Cooperative running-job deadline enforcement; thread starts lazily
  /// on the first deadline-carrying submit. Destroyed after the pool (so
  /// declared before it): jobs never touch the watch, only the watch's
  /// weak references reach jobs.
  std::unique_ptr<detail::DeadlineWatch> deadline_watch_;
  /// Declared last: destroyed first, so every job finishes while the
  /// cache and store are still alive.
  std::unique_ptr<common::WorkerPool> pool_;
};

}  // namespace easched::engine
