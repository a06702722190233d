#include "engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <exception>
#include <optional>
#include <ostream>
#include <string>

namespace easched::engine {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   since)
      .count();
}

double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double us_since(std::chrono::steady_clock::time_point epoch,
                std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

/// The outcome label a completed job's status maps to. Coarse on
/// purpose: label cardinality stays bounded no matter what statuses
/// solvers invent.
const char* outcome_label(common::StatusCode code) {
  switch (code) {
    case common::StatusCode::kOk:
      return "ok";
    case common::StatusCode::kCancelled:
      return "cancelled";
    case common::StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case common::StatusCode::kOverloaded:
      return "shed";
    default:
      return "error";
  }
}

/// Resolves one kind's metric handles (no-op with metrics off — only
/// the kind label is filled in, for trace spans).
detail::KindInstruments kind_instruments(obs::Registry* reg, const char* kind) {
  detail::KindInstruments ki;
  ki.kind = kind;
  if (reg == nullptr) return ki;
  const obs::LabelSet by_kind{{"kind", kind}};
  ki.submitted = reg->counter("easched_jobs_submitted_total", by_kind);
  ki.shed = reg->counter("easched_jobs_shed_total", by_kind);
  ki.completed_ok =
      reg->counter("easched_jobs_completed_total", {{"kind", kind}, {"outcome", "ok"}});
  ki.queue_wait_ms = reg->histogram("easched_job_queue_wait_ms", by_kind);
  ki.latency_ms0 =
      reg->histogram("easched_job_latency_ms", {{"kind", kind}, {"priority", "0"}});
  ki.latency_sync =
      reg->histogram("easched_job_latency_ms", {{"kind", kind}, {"priority", "sync"}});
  return ki;
}

/// Records one completed job: queue wait + run latency histograms, the
/// completed counter, and (when tracing) the lifecycle span. The common
/// case (priority 0, outcome ok) goes entirely through pre-resolved
/// handles; unusual priorities/outcomes pay one registry lookup.
void record_job(const detail::Instruments& ins, const detail::KindInstruments& ki,
                std::uint64_t id, int priority, const char* outcome,
                std::chrono::steady_clock::time_point submitted,
                std::chrono::steady_clock::time_point started,
                std::chrono::steady_clock::time_point ended) {
  if (ins.registry != nullptr) {
    ki.queue_wait_ms->observe(ms_between(submitted, started));
    obs::Histogram* latency =
        priority == 0 ? ki.latency_ms0
                      : ins.registry->histogram(
                            "easched_job_latency_ms",
                            {{"kind", ki.kind}, {"priority", std::to_string(priority)}});
    latency->observe(ms_between(started, ended));
    obs::Counter* completed =
        std::strcmp(outcome, "ok") == 0
            ? ki.completed_ok
            : ins.registry->counter("easched_jobs_completed_total",
                                    {{"kind", ki.kind}, {"outcome", outcome}});
    completed->inc();
  }
  if (ins.trace != nullptr) {
    obs::TraceSpan span;
    span.job = id;
    span.kind = ki.kind;
    span.outcome = outcome;
    span.priority = priority;
    span.submit_us = us_since(ins.epoch, submitted);
    span.start_us = us_since(ins.epoch, started);
    span.end_us = us_since(ins.epoch, ended);
    ins.trace->record(span);
  }
}

/// A job admission control rejected: it never ran, so its span is a
/// zero-length lifecycle at the submit instant with outcome "shed".
void record_shed(const detail::Instruments& ins, const detail::KindInstruments& ki,
                 std::uint64_t id, int priority,
                 std::chrono::steady_clock::time_point now) {
  if (ins.registry != nullptr) {
    ki.submitted->inc();
    ki.shed->inc();
  }
  if (ins.trace != nullptr) {
    obs::TraceSpan span;
    span.job = id;
    span.kind = ki.kind;
    span.outcome = "shed";
    span.priority = priority;
    span.submit_us = span.start_us = span.end_us = us_since(ins.epoch, now);
    ins.trace->record(span);
  }
}

/// One synchronous convenience call: latency under priority="sync" plus
/// the completed counter. Sync calls are not jobs — no queue wait, no
/// trace span. Call only with the registry on.
void record_sync(const detail::Instruments& ins, const detail::KindInstruments& ki,
                 std::chrono::steady_clock::time_point begin, const char* outcome) {
  ki.latency_sync->observe(elapsed_ms(begin));
  obs::Counter* completed =
      std::strcmp(outcome, "ok") == 0
          ? ki.completed_ok
          : ins.registry->counter("easched_jobs_completed_total",
                                  {{"kind", ki.kind}, {"outcome", outcome}});
  completed->inc();
}

frontier::FrontierResult frontier_error(frontier::ConstraintAxis axis,
                                        common::Status status) {
  frontier::FrontierResult result;
  result.axis = axis;
  result.error = std::move(status);
  return result;
}

/// A BatchReport whose every slot carries `status` — the whole-batch
/// failure shape (expired before start, executor threw).
api::BatchReport batch_error(const std::vector<api::BatchJob>& jobs,
                             const common::Status& status) {
  std::vector<common::Result<api::SolveReport>> results(
      jobs.size(), common::Result<api::SolveReport>(status));
  return api::aggregate_batch(jobs, std::move(results));
}

// The executors below are free functions over the engine's components
// (whose addresses are stable behind unique_ptr), so queued jobs never
// capture the Engine itself and moving it with jobs in flight is safe.

/// The request a query with a problem stands for (it borrows the problem).
api::SolveRequest request_for(const SolveQuery& query) {
  return api::SolveRequest(*query.problem, query.solver, query.options);
}

/// `prepared`, when set, is the query's instance already serialised by
/// the submitter; it is interned as is instead of serialised again.
common::Result<api::SolveReport> execute_solve(
    frontier::SolveCache& cache, const SolveQuery& query,
    std::optional<frontier::SolveCache::PreparedInstance> prepared = std::nullopt) {
  if (query.problem == nullptr) {
    return common::Status::invalid("solve query carries no problem");
  }
  const api::SolveRequest request = request_for(query);
  if (!prepared) return cache.solve(request);
  const auto context = cache.context_for(std::move(*prepared), request);
  return cache.solve(request, frontier::SolveCache::key_for(context, request));
}

api::BatchReport execute_batch(frontier::SolveCache& cache, common::WorkerPool& pool,
                               const BatchQuery& query, const std::atomic<bool>* cancel,
                               bool expired) {
  const auto start = std::chrono::steady_clock::now();
  if (expired) {
    // No point fanning a dead batch across the pool just to stamp the
    // same status into every slot.
    api::BatchReport report = batch_error(
        query.jobs,
        common::Status::deadline_exceeded("batch job expired before it could run"));
    report.wall_ms = elapsed_ms(start);
    return report;
  }
  std::vector<common::Result<api::SolveReport>> results(
      query.jobs.size(),
      common::Result<api::SolveReport>(common::Status::internal("job not executed")));

  pool.parallel(query.jobs.size(), [&](std::size_t i) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      // Cooperative: jobs not yet started report kCancelled; everything
      // already solved stays in `results` (and the shared cache/store).
      results[i] = common::Status::cancelled("batch cancelled");
      return;
    }
    const api::BatchJob& job = query.jobs[i];
    if (job.problem == nullptr) {
      results[i] = common::Status::invalid("batch job carries no problem");
      return;
    }
    const std::string& solver = job.solver.empty() ? query.solver : job.solver;
    try {
      results[i] = cache.solve(api::SolveRequest(*job.problem, solver, query.options));
    } catch (const std::exception& e) {
      results[i] = common::Status::internal(std::string("batch job threw: ") + e.what());
    }
  });

  api::BatchReport report = api::aggregate_batch(query.jobs, std::move(results));
  report.wall_ms = elapsed_ms(start);
  return report;
}

/// FrontierOptions with the cancel flag and observer chained in.
frontier::FrontierOptions sweep_options(const FrontierQuery& query,
                                        const std::atomic<bool>* cancel) {
  frontier::FrontierOptions options = query.options;
  if (cancel != nullptr) options.cancel = cancel;
  if (query.observer) options.on_point = query.observer;
  return options;
}

/// One axis dispatch for plain sweeps and resweeps alike: validates the
/// query shape, then invokes the matching sweep callable with the
/// engine-chained options. The callables receive (problem, lo, hi,
/// options).
template <typename DeadlineSweep, typename ReliabilitySweep>
frontier::FrontierResult dispatch_sweep(const FrontierQuery& query,
                                        const std::atomic<bool>* cancel,
                                        const DeadlineSweep& deadline,
                                        const ReliabilitySweep& reliability) {
  if (query.problem == nullptr) {
    return frontier_error(query.axis,
                          common::Status::invalid("frontier query carries no problem"));
  }
  const frontier::FrontierOptions options = sweep_options(query, cancel);
  if (query.axis == frontier::ConstraintAxis::kReliability) {
    if (!query.problem->reliability) {
      return frontier_error(query.axis, common::Status::invalid(
                                            "reliability sweeps need a TRI-CRIT problem"));
    }
    return reliability(*query.problem, query.lo, query.hi, options);
  }
  return deadline(*query.problem, query.lo, query.hi, options);
}

frontier::FrontierResult execute_frontier(const frontier::FrontierEngine& sweeper,
                                          const FrontierQuery& query,
                                          const std::atomic<bool>* cancel) {
  return dispatch_sweep(
      query, cancel,
      [&](const core::Problem& p, double lo, double hi,
          const frontier::FrontierOptions& o) { return sweeper.deadline_sweep(p, lo, hi, o); },
      [&](const core::Problem& p, double lo, double hi,
          const frontier::FrontierOptions& o) {
        return sweeper.reliability_sweep(p, lo, hi, o);
      });
}

frontier::FrontierResult execute_resweep(const frontier::FrontierEngine& sweeper,
                                         const ResweepQuery& query,
                                         const std::atomic<bool>* cancel) {
  const frontier::FrontierResult& prev = query.prev;
  return dispatch_sweep(
      query.target, cancel,
      [&](const core::Problem& p, double lo, double hi,
          const frontier::FrontierOptions& o) { return sweeper.resweep(prev, p, lo, hi, o); },
      [&](const core::Problem& p, double lo, double hi,
          const frontier::FrontierOptions& o) {
        return sweeper.resweep_reliability(prev, p, lo, hi, o);
      });
}

/// Post-run status rewrite for running-deadline enforcement: a stop that
/// the watchdog triggered reports kDeadlineExceeded, an explicit cancel
/// stays kCancelled. Only kCancelled statuses are rewritten — a job that
/// finished its work before the flag was noticed keeps its real result.
common::Status deadline_adjusted(common::Status status,
                                 const std::atomic<bool>& deadline_fired) {
  if (status.code() == common::StatusCode::kCancelled &&
      deadline_fired.load(std::memory_order_relaxed)) {
    return common::Status::deadline_exceeded(
        "job deadline expired while it was running");
  }
  return status;
}

}  // namespace

// ---- detail::DeadlineWatch ----

namespace detail {

DeadlineWatch::~DeadlineWatch() {
  {
    common::MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void DeadlineWatch::arm(std::chrono::steady_clock::time_point when,
                        std::weak_ptr<std::atomic<bool>> cancel,
                        std::weak_ptr<std::atomic<bool>> fired) {
  {
    common::MutexLock lock(mutex_);
    armed_.emplace(when, Armed{std::move(cancel), std::move(fired)});
    if (!started_) {
      started_ = true;
      thread_ = std::thread([this] { loop(); });
    }
  }
  cv_.notify_all();
}

void DeadlineWatch::loop() {
  common::MutexLock lock(mutex_);
  while (!stopping_) {
    if (armed_.empty()) {
      cv_.wait(mutex_);
      continue;
    }
    const auto next = armed_.begin()->first;
    if (std::chrono::steady_clock::now() < next) {
      cv_.wait_until(mutex_, next);
      continue;  // re-check: stopping_, a nearer arm(), or actual expiry
    }
    // Fire every entry at or before now. Weak locks skip jobs whose
    // states were already dropped; setting flags on a completed job is
    // harmless (nothing reads them again).
    const auto now = std::chrono::steady_clock::now();
    while (!armed_.empty() && armed_.begin()->first <= now) {
      Armed armed = std::move(armed_.begin()->second);
      armed_.erase(armed_.begin());
      if (auto fired = armed.fired.lock()) fired->store(true, std::memory_order_relaxed);
      if (auto cancel = armed.cancel.lock()) cancel->store(true, std::memory_order_relaxed);
    }
  }
}

}  // namespace detail

// ---- FrontierQuery factories ----

FrontierQuery FrontierQuery::deadline(const core::Problem& problem, double dmin,
                                      double dmax, frontier::FrontierOptions opts) {
  return deadline(std::make_shared<const core::Problem>(problem), dmin, dmax,
                  std::move(opts));
}

FrontierQuery FrontierQuery::deadline(std::shared_ptr<const core::Problem> problem,
                                      double dmin, double dmax,
                                      frontier::FrontierOptions opts) {
  FrontierQuery query;
  query.problem = std::move(problem);
  query.axis = frontier::ConstraintAxis::kDeadline;
  query.lo = dmin;
  query.hi = dmax;
  query.options = std::move(opts);
  return query;
}

FrontierQuery FrontierQuery::reliability(const core::Problem& problem, double rmin,
                                         double rmax, frontier::FrontierOptions opts) {
  return reliability(std::make_shared<const core::Problem>(problem), rmin, rmax,
                     std::move(opts));
}

FrontierQuery FrontierQuery::reliability(std::shared_ptr<const core::Problem> problem,
                                         double rmin, double rmax,
                                         frontier::FrontierOptions opts) {
  FrontierQuery query;
  query.problem = std::move(problem);
  query.axis = frontier::ConstraintAxis::kReliability;
  query.lo = rmin;
  query.hi = rmax;
  query.options = std::move(opts);
  return query;
}

// ---- construction ----

common::Result<Engine> Engine::create(EngineConfig config) {
  Engine engine;
  engine.config_ = config;

  const std::size_t shards = config.cache_shards == 0 ? 16 : config.cache_shards;
  engine.cache_ = std::make_unique<frontier::SolveCache>(
      shards, config.cache_max_entries, config.cache_max_bytes);

  if (!config.store_path.empty()) {
    store::StoreOptions sopt;
    sopt.path = config.store_path;
    sopt.read_only = config.store_read_only;
    sopt.write_through = config.store_mode != StoreMode::kLoadOnOpen;
    sopt.load_on_open = config.store_mode != StoreMode::kWriteThrough;
    sopt.warm_start = config.store_warm_start;
    auto opened = store::SolveStore::open(std::move(sopt));
    if (!opened.is_ok()) return opened.status();
    engine.store_ = std::make_unique<store::SolveStore>(std::move(opened).take());
    const common::Status attached = engine.cache_->attach_store(engine.store_.get());
    if (!attached.is_ok()) return attached;
  }

  engine.next_job_id_ = std::make_unique<std::atomic<std::uint64_t>>(1);
  engine.queued_ = std::make_unique<std::atomic<std::size_t>>(0);

  if (config.metrics) engine.metrics_ = std::make_unique<obs::Registry>();
  if (config.trace_capacity > 0) {
    engine.trace_ = std::make_unique<obs::TraceBuffer>(config.trace_capacity);
  }
  if (engine.metrics_ != nullptr || engine.trace_ != nullptr) {
    auto ins = std::make_unique<detail::Instruments>();
    ins->registry = engine.metrics_.get();
    ins->trace = engine.trace_.get();
    ins->epoch = std::chrono::steady_clock::now();
    ins->solve = kind_instruments(ins->registry, "solve");
    if (ins->registry != nullptr) {
      ins->solve_sync_hits =
          ins->registry->counter("easched_jobs_sync_hits_total", {{"kind", "solve"}});
    }
    ins->batch = kind_instruments(ins->registry, "batch");
    ins->frontier = kind_instruments(ins->registry, "frontier");
    ins->resweep = kind_instruments(ins->registry, "resweep");
    engine.instruments_ = std::move(ins);
  }

  engine.deadline_watch_ = std::make_unique<detail::DeadlineWatch>();
  engine.pool_ = std::make_unique<common::WorkerPool>(config.threads);
  engine.sweeper_ =
      std::make_unique<frontier::FrontierEngine>(*engine.pool_, engine.cache_.get());
  return engine;
}

// ---- submit plumbing ----

template <typename T, typename Fn, typename Shed, typename Outcome>
JobHandle<T> Engine::enqueue(const detail::KindInstruments* ki, const SubmitOptions& opts,
                             Fn run, Shed shed, Outcome outcome_of) {
  detail::Instruments* const ins = instruments_.get();  // null = observability off
  auto state = std::make_shared<detail::JobState<T>>();
  state->id = next_job_id_->fetch_add(1, std::memory_order_relaxed);

  // Admission control: claim a queue slot or shed. fetch_add-then-check
  // keeps the cap exact under concurrent submitters (a racer that pushed
  // the count over backs out its own claim).
  const std::size_t cap = config_.max_queued_jobs;
  if (cap > 0) {
    const std::size_t queued = queued_->fetch_add(1, std::memory_order_relaxed);
    if (queued >= cap) {
      queued_->fetch_sub(1, std::memory_order_relaxed);
      if (ins != nullptr) {
        record_shed(*ins, *ki, state->id, opts.priority,
                    std::chrono::steady_clock::now());
      }
      state->complete(shed());
      return JobHandle<T>(std::move(state));
    }
  } else {
    queued_->fetch_add(1, std::memory_order_relaxed);
  }

  const auto submitted = std::chrono::steady_clock::now();
  if (ins != nullptr && ins->registry != nullptr) ki->submitted->inc();
  const double deadline_ms = opts.deadline_ms;
  if (deadline_ms > 0.0) {
    // Arm the running-deadline watchdog with weak references into the
    // job state (aliasing shared_ptrs: the atomics live inside *state).
    deadline_watch_->arm(
        submitted + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(deadline_ms)),
        std::shared_ptr<std::atomic<bool>>(state, &state->cancel),
        std::shared_ptr<std::atomic<bool>>(state, &state->deadline_fired));
  }
  std::atomic<std::size_t>* queued_counter = queued_.get();
  pool_->submit(
      [state, submitted, deadline_ms, queued_counter, ins, ki, priority = opts.priority,
       run = std::move(run), outcome_of = std::move(outcome_of)]() mutable {
        queued_counter->fetch_sub(1, std::memory_order_relaxed);
        if (ins == nullptr) {
          const bool expired = deadline_ms > 0.0 && elapsed_ms(submitted) > deadline_ms;
          state->complete(run(*state, expired));
          return;
        }
        // One clock read serves both the queued-deadline check (same
        // now()-at-pickup semantics as the uninstrumented path) and the
        // span's start timestamp.
        const auto started = std::chrono::steady_clock::now();
        const bool expired =
            deadline_ms > 0.0 && ms_between(submitted, started) > deadline_ms;
        T value = run(*state, expired);
        const auto ended = std::chrono::steady_clock::now();
        const char* outcome = outcome_of(value);
        // Record before completing: once a waiter observes the result,
        // the job's metrics and trace span are guaranteed visible too.
        record_job(*ins, *ki, state->id, priority, outcome, submitted, started, ended);
        state->complete(std::move(value));
      },
      opts.priority);
  return JobHandle<T>(std::move(state));
}

Engine::SolveHandle Engine::submit(SolveQuery query, const SubmitOptions& opts) {
  using R = common::Result<api::SolveReport>;
  frontier::SolveCache* cache = cache_.get();
  detail::Instruments* const ins = instruments_.get();
  std::optional<frontier::SolveCache::PreparedInstance> prepared;
  if (query.problem != nullptr) {
    const auto submitted = ins != nullptr ? std::chrono::steady_clock::now()
                                          : std::chrono::steady_clock::time_point{};
    const api::SolveRequest request = request_for(query);
    prepared = frontier::SolveCache::prepare(request);
    const std::optional<frontier::CacheKey> key = cache->find_key(*prepared, request);
    if (frontier::SolveCache::CachedResult hit = key ? cache->try_get(*key) : nullptr) {
      auto state = std::make_shared<detail::JobState<R>>();
      state->id = next_job_id_->fetch_add(1, std::memory_order_relaxed);
      if (ins != nullptr) {
        if (ins->registry != nullptr) {
          ins->solve.submitted->inc();
          ins->solve_sync_hits->inc();
        }
        record_job(*ins, ins->solve, state->id, opts.priority,
                   hit->is_ok() ? "ok" : outcome_label(hit->status().code()), submitted,
                   submitted, std::chrono::steady_clock::now());
      }
      state->complete(*hit);
      return SolveHandle(std::move(state));
    }
  }
  return enqueue<R>(
      ins != nullptr ? &ins->solve : nullptr, opts,
      [cache, query = std::move(query), prepared = std::move(prepared)](
          detail::JobState<R>& state, bool expired) mutable -> R {
        if (expired) {
          return common::Status::deadline_exceeded(
              "solve job expired before it could run");
        }
        if (state.cancel.load(std::memory_order_relaxed)) {
          return deadline_adjusted(
              common::Status::cancelled("solve job cancelled before it ran"),
              state.deadline_fired);
        }
        try {
          return execute_solve(*cache, query, std::move(prepared));
        } catch (const std::exception& e) {
          return common::Status::internal(std::string("solve job threw: ") + e.what());
        } catch (...) {
          return common::Status::internal("solve job threw a non-std exception");
        }
      },
      []() -> R {
        return common::Status::overloaded("solve job shed: engine queue is full");
      },
      [](const R& r) { return r.is_ok() ? "ok" : outcome_label(r.status().code()); });
}

Engine::BatchHandle Engine::submit(BatchQuery query, const SubmitOptions& opts) {
  using R = api::BatchReport;
  frontier::SolveCache* cache = cache_.get();
  common::WorkerPool* pool = pool_.get();
  // Copied before the run lambda moves `query` out from under it —
  // argument evaluation order is unspecified, so the shed lambda must not
  // read `query` itself.
  std::vector<api::BatchJob> shed_jobs = query.jobs;
  return enqueue<R>(
      instruments_ ? &instruments_->batch : nullptr, opts,
      [cache, pool, query = std::move(query)](detail::JobState<R>& state,
                                              bool expired) -> R {
        try {
          R report = execute_batch(*cache, *pool, query, &state.cancel, expired);
          // Slots the watchdog's cancel stopped report the deadline, not
          // a caller cancel; slots already solved keep their results.
          if (state.deadline_fired.load(std::memory_order_relaxed)) {
            for (auto& result : report.results) {
              if (!result.is_ok()) {
                common::Status adjusted =
                    deadline_adjusted(result.status(), state.deadline_fired);
                if (adjusted.code() != result.status().code()) {
                  result = common::Result<api::SolveReport>(std::move(adjusted));
                }
              }
            }
          }
          return report;
        } catch (const std::exception& e) {
          return batch_error(query.jobs,
                             common::Status::internal(std::string("batch job threw: ") +
                                                      e.what()));
        } catch (...) {
          return batch_error(
              query.jobs, common::Status::internal("batch job threw a non-std exception"));
        }
      },
      [jobs = std::move(shed_jobs)]() -> R {
        return batch_error(jobs,
                           common::Status::overloaded("batch job shed: engine queue is full"));
      },
      [](const R& r) -> const char* {
        // A batch's outcome is its worst slot: all-ok is "ok", otherwise
        // the first non-ok status names the label (deadline/cancel
        // rewrites already happened upstream).
        for (const auto& result : r.results) {
          if (!result.is_ok()) return outcome_label(result.status().code());
        }
        return "ok";
      });
}

Engine::FrontierHandle Engine::submit(FrontierQuery query, const SubmitOptions& opts) {
  using R = frontier::FrontierResult;
  const frontier::FrontierEngine* sweeper = sweeper_.get();
  const frontier::ConstraintAxis axis = query.axis;
  return enqueue<R>(
      instruments_ ? &instruments_->frontier : nullptr, opts,
      [sweeper, query = std::move(query)](detail::JobState<R>& state, bool expired) -> R {
        if (expired) {
          return frontier_error(query.axis,
                                common::Status::deadline_exceeded(
                                    "frontier job expired before it could run"));
        }
        try {
          R result = execute_frontier(*sweeper, query, &state.cancel);
          result.error = deadline_adjusted(std::move(result.error), state.deadline_fired);
          return result;
        } catch (const std::exception& e) {
          return frontier_error(
              query.axis,
              common::Status::internal(std::string("frontier job threw: ") + e.what()));
        } catch (...) {
          return frontier_error(query.axis, common::Status::internal(
                                                "frontier job threw a non-std exception"));
        }
      },
      [axis]() -> R {
        return frontier_error(
            axis, common::Status::overloaded("frontier job shed: engine queue is full"));
      },
      [](const R& r) { return r.error.is_ok() ? "ok" : outcome_label(r.error.code()); });
}

Engine::FrontierHandle Engine::submit(ResweepQuery query, const SubmitOptions& opts) {
  using R = frontier::FrontierResult;
  const frontier::FrontierEngine* sweeper = sweeper_.get();
  const frontier::ConstraintAxis axis = query.target.axis;
  return enqueue<R>(
      instruments_ ? &instruments_->resweep : nullptr, opts,
      [sweeper, query = std::move(query)](detail::JobState<R>& state, bool expired) -> R {
        if (expired) {
          return frontier_error(query.target.axis,
                                common::Status::deadline_exceeded(
                                    "resweep job expired before it could run"));
        }
        try {
          R result = execute_resweep(*sweeper, query, &state.cancel);
          result.error = deadline_adjusted(std::move(result.error), state.deadline_fired);
          return result;
        } catch (const std::exception& e) {
          return frontier_error(
              query.target.axis,
              common::Status::internal(std::string("resweep job threw: ") + e.what()));
        } catch (...) {
          return frontier_error(query.target.axis,
                                common::Status::internal(
                                    "resweep job threw a non-std exception"));
        }
      },
      [axis]() -> R {
        return frontier_error(
            axis, common::Status::overloaded("resweep job shed: engine queue is full"));
      },
      [](const R& r) { return r.error.is_ok() ? "ok" : outcome_label(r.error.code()); });
}

// ---- synchronous conveniences ----

common::Result<api::SolveReport> Engine::solve(const core::Problem& problem,
                                               std::string solver,
                                               const api::SolveOptions& options) {
  detail::Instruments* const ins = instruments_.get();
  if (ins == nullptr || ins->registry == nullptr) {
    return execute_solve(*cache_, SolveQuery(problem, std::move(solver), options));
  }
  const auto begin = std::chrono::steady_clock::now();
  auto result = execute_solve(*cache_, SolveQuery(problem, std::move(solver), options));
  record_sync(*ins, ins->solve, begin,
              result.is_ok() ? "ok" : outcome_label(result.status().code()));
  return result;
}

api::BatchReport Engine::solve_batch(std::vector<api::BatchJob> jobs, std::string solver,
                                     const api::SolveOptions& options) {
  BatchQuery query;
  query.jobs = std::move(jobs);
  query.solver = std::move(solver);
  query.options = options;
  detail::Instruments* const ins = instruments_.get();
  if (ins == nullptr || ins->registry == nullptr) {
    return execute_batch(*cache_, *pool_, query, nullptr, /*expired=*/false);
  }
  const auto begin = std::chrono::steady_clock::now();
  api::BatchReport report = execute_batch(*cache_, *pool_, query, nullptr,
                                          /*expired=*/false);
  const char* outcome = "ok";
  for (const auto& result : report.results) {
    if (!result.is_ok()) {
      outcome = outcome_label(result.status().code());
      break;
    }
  }
  record_sync(*ins, ins->batch, begin, outcome);
  return report;
}

frontier::FrontierResult Engine::sweep(FrontierQuery query) {
  detail::Instruments* const ins = instruments_.get();
  if (ins == nullptr || ins->registry == nullptr) {
    return execute_frontier(*sweeper_, query, nullptr);
  }
  const auto begin = std::chrono::steady_clock::now();
  frontier::FrontierResult result = execute_frontier(*sweeper_, query, nullptr);
  record_sync(*ins, ins->frontier, begin,
              result.error.is_ok() ? "ok" : outcome_label(result.error.code()));
  return result;
}

frontier::FrontierResult Engine::resweep(ResweepQuery query) {
  detail::Instruments* const ins = instruments_.get();
  if (ins == nullptr || ins->registry == nullptr) {
    return execute_resweep(*sweeper_, query, nullptr);
  }
  const auto begin = std::chrono::steady_clock::now();
  frontier::FrontierResult result = execute_resweep(*sweeper_, query, nullptr);
  record_sync(*ins, ins->resweep, begin,
              result.error.is_ok() ? "ok" : outcome_label(result.error.code()));
  return result;
}

frontier::FrontierComparison Engine::compare(const FrontierQuery& query,
                                             const std::vector<std::string>& solvers) {
  std::vector<frontier::SolverFrontier> swept;
  swept.reserve(solvers.size());
  for (const auto& name : solvers) {
    FrontierQuery per_solver = query;
    per_solver.options.solver = name;
    frontier::SolverFrontier sf;
    sf.solver = name;
    sf.result = sweep(std::move(per_solver));
    sf.summary = frontier::summarize(sf.result);
    swept.push_back(std::move(sf));
  }
  return frontier::build_comparison(query.axis, std::move(swept));
}

// ---- observability exports ----

void Engine::sample_gauges() {
  obs::Registry& reg = *metrics_;

  reg.gauge("easched_queue_depth")->set(static_cast<double>(queued_jobs()));

  const common::WorkerPool::PoolStats ps = pool_->stats();
  const std::size_t threads = pool_->size();
  reg.gauge("easched_pool_threads")->set(static_cast<double>(threads));
  reg.gauge("easched_pool_tasks")->set(static_cast<double>(ps.tasks));
  reg.gauge("easched_pool_busy_ms")->set(ps.busy_ms);
  // Fraction of thread-time spent in tasks since the engine epoch.
  const double elapsed =
      instruments_ != nullptr ? ms_between(instruments_->epoch,
                                           std::chrono::steady_clock::now())
                              : 0.0;
  const double capacity_ms = elapsed * static_cast<double>(threads);
  reg.gauge("easched_pool_utilization")
      ->set(capacity_ms > 0.0 ? std::min(1.0, ps.busy_ms / capacity_ms) : 0.0);

  const frontier::CacheStats cs = cache_->stats();
  reg.gauge("easched_cache_entries")->set(static_cast<double>(cs.entries));
  reg.gauge("easched_cache_bytes")->set(static_cast<double>(cs.bytes));
  reg.gauge("easched_cache_hits")->set(static_cast<double>(cs.hits));
  reg.gauge("easched_cache_misses")->set(static_cast<double>(cs.misses));
  reg.gauge("easched_cache_store_hits")->set(static_cast<double>(cs.store_hits));
  reg.gauge("easched_cache_evictions")->set(static_cast<double>(cs.evictions));
  reg.gauge("easched_cache_spills")->set(static_cast<double>(cs.spills));
  reg.gauge("easched_cache_warm_seeds")->set(static_cast<double>(cs.warm_seeds));
  reg.gauge("easched_cache_interned_blobs")->set(static_cast<double>(cs.interned_blobs));
  reg.gauge("easched_cache_hit_rate")->set(cs.hit_rate());

  const std::vector<frontier::ShardCacheStats> shards = cache_->shard_stats();
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const obs::LabelSet by_shard{{"shard", std::to_string(i)}};
    reg.gauge("easched_cache_shard_entries", by_shard)
        ->set(static_cast<double>(shards[i].entries));
    reg.gauge("easched_cache_shard_bytes", by_shard)
        ->set(static_cast<double>(shards[i].bytes));
    reg.gauge("easched_cache_shard_hits", by_shard)
        ->set(static_cast<double>(shards[i].hits));
    reg.gauge("easched_cache_shard_misses", by_shard)
        ->set(static_cast<double>(shards[i].misses));
    reg.gauge("easched_cache_shard_evictions", by_shard)
        ->set(static_cast<double>(shards[i].evictions));
    reg.gauge("easched_cache_shard_spills", by_shard)
        ->set(static_cast<double>(shards[i].spills));
  }

  if (store_ != nullptr) {
    const store::StoreStats ss = store_->stats();
    reg.gauge("easched_store_blobs")->set(static_cast<double>(ss.blobs));
    reg.gauge("easched_store_entries")->set(static_cast<double>(ss.entries));
    reg.gauge("easched_store_superseded")->set(static_cast<double>(ss.superseded));
    reg.gauge("easched_store_file_bytes")->set(static_cast<double>(ss.file_bytes));
    reg.gauge("easched_store_torn_bytes")->set(static_cast<double>(ss.torn_bytes));
    reg.gauge("easched_store_appended")->set(static_cast<double>(ss.appended));
    reg.gauge("easched_store_served")->set(static_cast<double>(ss.served));
    // Sampled like its neighbours; it only ever grows.
    reg.gauge("easched_store_read_corrupt_total")
        ->set(static_cast<double>(ss.read_corrupt));
  }
}

void Engine::write_metrics_text(std::ostream& os) {
  if (metrics_ == nullptr) return;
  sample_gauges();
  metrics_->write_text(os);
}

void Engine::write_metrics_json(std::ostream& os) {
  if (metrics_ == nullptr) {
    os << "{\"metrics\": []}\n";
    return;
  }
  sample_gauges();
  metrics_->write_json(os);
}

bool Engine::write_trace_json(std::ostream& os) const {
  if (trace_ == nullptr) return false;
  trace_->write_chrome_json(os);
  return true;
}

}  // namespace easched::engine
