#pragma once
// easched::api — the registry-driven solver interface.
//
// The paper contributes a *family* of algorithms: closed forms for chains,
// forks and series-parallel graphs, an LP for VDD-HOPPING, branch & bound
// and an approximation scheme for DISCRETE/INCREMENTAL speeds, and the
// tri-criteria heuristics. This layer makes that family a first-class
// concept: every algorithm is a `Solver` with a `Capabilities` descriptor
// (problem kind x speed model x graph structure), registered by name in
// the process-wide `SolverRegistry` (api/registry.hpp). Solvers are
// selected either explicitly by name or automatically by capability
// query, and all of them speak the same `SolveRequest` / `SolveReport`
// vocabulary — so new scenarios plug in without touching any facade.
//
// This layer is the solver *vocabulary*, not the serving surface: callers
// that want caching, persistence and asynchronous jobs construct an
// engine::Engine (engine/engine.hpp) on top of it.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "core/problem.hpp"
#include "model/speed_model.hpp"
#include "sched/schedule.hpp"

namespace easched::api {

/// Which of the paper's two optimisation problems a request carries.
using core::ProblemKind;
using core::to_string;

/// Graph-structure classes the specialised algorithms key on, most
/// specific first. `classify_structure` returns the most specific class
/// an instance belongs to.
enum class GraphClass { kChain, kFork, kSeriesParallel, kGeneral };

constexpr const char* to_string(GraphClass c) noexcept {
  switch (c) {
    case GraphClass::kChain: return "chain";
    case GraphClass::kFork: return "fork";
    case GraphClass::kSeriesParallel: return "series-parallel";
    case GraphClass::kGeneral: return "general";
  }
  return "unknown";
}

/// Most specific structure class of `dag` (chain -> fork -> SP -> general).
GraphClass classify_structure(const graph::Dag& dag);

/// Bitmask helpers for Capabilities.
constexpr unsigned speed_bit(model::SpeedModelKind k) noexcept {
  return 1u << static_cast<unsigned>(k);
}
constexpr unsigned structure_bit(GraphClass c) noexcept {
  return 1u << static_cast<unsigned>(c);
}

constexpr unsigned kAllSpeedModels =
    speed_bit(model::SpeedModelKind::kContinuous) |
    speed_bit(model::SpeedModelKind::kDiscrete) |
    speed_bit(model::SpeedModelKind::kVddHopping) |
    speed_bit(model::SpeedModelKind::kIncremental);

constexpr unsigned kAllStructures =
    structure_bit(GraphClass::kChain) | structure_bit(GraphClass::kFork) |
    structure_bit(GraphClass::kSeriesParallel) | structure_bit(GraphClass::kGeneral);

/// Static descriptor of what a solver can handle; the registry's
/// auto-selection queries these (plus the dynamic Solver::accepts hook).
struct Capabilities {
  ProblemKind problem = ProblemKind::kBiCrit;
  unsigned speed_models = 0;  ///< OR of speed_bit()
  unsigned structures = 0;    ///< OR of structure_bit(); an instance matches
                              ///< when the bit of its most specific class is set
  bool exact = false;         ///< provably optimal when it returns OK
  /// Auto-selection rank: among accepting solvers the highest wins;
  /// negative means explicit-by-name only (never auto-selected).
  int auto_priority = -1;
  const char* paper_ref = "";  ///< paper section/claim this implements

  bool supports(model::SpeedModelKind k) const noexcept {
    return (speed_models & speed_bit(k)) != 0;
  }
  bool supports(GraphClass c) const noexcept {
    return (structures & structure_bit(c)) != 0;
  }
};

/// Per-request tuning knobs. Every field has a safe default; solvers read
/// only the knobs that apply to them.
struct SolveOptions {
  int approx_K = 10;            ///< incremental-approx accuracy (>= 1)
  double gap_tolerance = 0.0;   ///< > 0 overrides the barrier gap tolerance
  long long max_nodes = 0;      ///< > 0 overrides B&B node budgets
  int dp_buckets = 20000;       ///< chain discrete-DP time granularity
  int fork_grid = 512;          ///< tri-crit fork search grid
  bool polish = true;           ///< tri-crit heuristics: final continuous re-solve
  /// Deadline-slack policy: the solver sees deadline * deadline_slack
  /// (> 1 relaxes, < 1 tightens; must stay > 0). Lets sweeps and batch
  /// runs scale deadlines without rebuilding problems.
  double deadline_slack = 1.0;
  /// Cross-point warm start: per-task durations of a neighbouring
  /// solution (e.g. the nearest cached schedule of the same instance at a
  /// different deadline), forwarded to the continuous solver's barrier as
  /// its starting point (bicrit::ContinuousOptions::start_durations).
  /// Purely a performance hint — the barrier converges to the same
  /// optimum to solver tolerance — so it is deliberately *excluded* from
  /// request fingerprints and cache keys (api/digest.cpp) like
  /// deadline_slack: two requests differing only in the hint are the same
  /// problem. Solvers without an iterative core ignore it.
  std::vector<double> start_durations;
  /// Cache/store namespace tag. No solver reads it, but it is folded into
  /// the *instance* bytes (api/digest.cpp) when non-empty, so two requests
  /// with different namespaces never share a cache entry, a store blob or
  /// a warm-start neighbour. The serving tier sets this to the tenant id —
  /// per-tenant isolation falls out of the existing digest identity with
  /// no second key dimension. Empty (the default) leaves every byte stream
  /// exactly as before, so existing stores stay valid.
  std::string cache_namespace;
};

/// A solve request: one problem (BI-CRIT, or TRI-CRIT when it carries a
/// reliability model), an optional solver name (empty = capability-based
/// auto-selection) and options. Non-owning: the problem must outlive the
/// request.
struct SolveRequest {
  explicit SolveRequest(const core::Problem& p, std::string solver_name = {},
                        SolveOptions opts = {})
      : problem(&p), solver(std::move(solver_name)), options(opts) {}

  const core::Problem* problem = nullptr;
  std::string solver;  ///< registry name; empty = auto-select
  SolveOptions options;

  ProblemKind kind() const noexcept { return problem->kind(); }
  const graph::Dag& dag() const { return problem->dag; }
  const sched::Mapping& mapping() const { return problem->mapping; }
  const model::SpeedModel& speeds() const { return problem->speeds; }
  /// Effective deadline after the slack policy.
  double deadline() const noexcept { return problem->deadline * options.deadline_slack; }

  /// Structure class of the instance graph. Computed once and cached —
  /// auto-selection probes every registered solver, and SP recognition
  /// is not free. A request is meant for a single thread (batch workers
  /// each build their own), so the mutable cache needs no lock.
  GraphClass structure() const {
    if (!structure_cache_) structure_cache_ = classify_structure(dag());
    return *structure_cache_;
  }

  /// Options sanity + problem.validate() — every solve path starts here.
  /// A successful validation is cached so the api::solve entry point and
  /// Solver::run (which validates for direct callers) don't pay the
  /// structural checks twice.
  common::Status validate() const;

 private:
  mutable std::optional<GraphClass> structure_cache_;
  mutable bool validated_ = false;
};

/// Uniform result of any solver: the schedule plus telemetry.
struct SolveReport {
  sched::Schedule schedule{0};
  double energy = 0.0;
  double makespan = 0.0;      ///< worst-case makespan of the schedule
  std::string solver;         ///< registry name of the concrete solver
  ProblemKind problem = ProblemKind::kBiCrit;
  double wall_ms = 0.0;       ///< wall-clock time spent in the solver
  long long iterations = 0;   ///< Newton steps / simplex or B&B nodes / subsets
  int re_executed = 0;        ///< TRI-CRIT: tasks executed twice
  bool exact = false;         ///< result certified optimal by the solver
  /// Solver-reported gap/ratio bound (0 = none), unchecked. For
  /// continuous-ipm it is the barrier's m/t, m counting the reduced rows
  /// bicrit::solve_durations emits, t where the spelled program stops.
  double gap_bound = 0.0;
};

/// One algorithm of the family. Implementations override `do_run` (and
/// optionally `accepts` for dynamic applicability conditions such as
/// processor counts or search-space size); `run` is the template method
/// that validates the request and stamps telemetry.
class Solver {
 public:
  virtual ~Solver() = default;

  virtual std::string_view name() const noexcept = 0;
  virtual const Capabilities& capabilities() const noexcept = 0;

  /// May auto-selection route `request` here? Default: problem kind,
  /// speed-model bit and structure bit all match and auto_priority >= 0.
  /// Explicit by-name runs bypass this (a solver may still be broader
  /// than its auto-selection profile, e.g. closed-form-fork without the
  /// one-processor-per-branch guarantee).
  virtual bool accepts(const SolveRequest& request) const;

  /// Validates the request, runs the algorithm, and fills the telemetry
  /// fields (solver name, wall time, makespan) of the report.
  common::Result<SolveReport> run(const SolveRequest& request) const;

 protected:
  virtual common::Result<SolveReport> do_run(const SolveRequest& request) const = 0;
};

}  // namespace easched::api
