#pragma once
// The process-wide solver registry and the `solve()` entry points.
//
// Every algorithm of the paper self-registers here under a stable name
// (see api/builtin_bicrit.cpp and api/builtin_tricrit.cpp); downstream
// code looks solvers up by name or lets `select()` route an instance by
// capability query. Custom solvers can be added at runtime via `add()`,
// which is how new scenarios plug in without editing any facade.
//
// `api::solve` is the solver layer: one uncached, synchronous solve of
// one request. engine::Engine calls it (through its SolveCache) for every
// query it runs, and a reference replay can call it directly to check
// served answers. Callers that want caching, persistence, batches,
// sweeps or asynchronous jobs construct an Engine (engine/engine.hpp).

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "api/solver.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace easched::api {

class SolverRegistry {
 public:
  /// The process-wide registry, with every built-in solver registered.
  static SolverRegistry& instance();

  SolverRegistry() = default;
  SolverRegistry(const SolverRegistry&) = delete;
  SolverRegistry& operator=(const SolverRegistry&) = delete;

  /// Registers a solver; kInvalidArgument on a duplicate name.
  common::Status add(std::unique_ptr<Solver> solver);

  /// Solver by exact name; nullptr when unknown. Registered solvers are
  /// immutable, never removed, and live as long as the registry, so the
  /// pointer stays valid across later add() calls.
  const Solver* find(std::string_view name) const;

  /// Registered names (optionally one problem kind only), registration order.
  std::vector<std::string> names(std::optional<ProblemKind> kind = std::nullopt) const;

  /// Capability-based routing: among solvers whose `accepts(request)` is
  /// true, the one with the highest auto_priority (ties: registration
  /// order). kUnsupported when no registered solver accepts the instance.
  common::Result<const Solver*> select(const SolveRequest& request) const;

  std::size_t size() const;

 private:
  /// add() may race with pool workers iterating the registry;
  /// all access to solvers_ is serialised (solver runs happen outside
  /// the lock, so contention is a few pointer reads per solve). The
  /// *elements* are immutable once registered and never removed, which
  /// is why find()/select() may hand out raw Solver pointers.
  mutable common::Mutex mutex_;
  std::vector<std::unique_ptr<Solver>> solvers_ EASCHED_GUARDED_BY(mutex_);
};

/// Solves `request`: validation first, then explicit lookup (kNotFound for
/// unknown names) or capability auto-selection, then the solver run.
common::Result<SolveReport> solve(const SolveRequest& request);

/// Auto-selected solve of a BI-CRIT instance.
common::Result<SolveReport> solve(const core::BiCritProblem& problem,
                                  const SolveOptions& options = {});
/// Solve with an explicit registry solver name.
common::Result<SolveReport> solve(const core::BiCritProblem& problem,
                                  std::string_view solver,
                                  const SolveOptions& options = {});

/// Auto-selected solve of a TRI-CRIT instance.
common::Result<SolveReport> solve(const core::TriCritProblem& problem,
                                  const SolveOptions& options = {});
common::Result<SolveReport> solve(const core::TriCritProblem& problem,
                                  std::string_view solver,
                                  const SolveOptions& options = {});

}  // namespace easched::api
