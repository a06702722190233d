#pragma once
// FrontierEngine — adaptive Pareto trade-off sweeps over the solver API.
//
// FrontierEngine is the sweep algorithm engine::Engine (engine/engine.hpp)
// runs on its worker pool: the Engine builds one over its SolveCache and
// pool, and serves FrontierQuery / ResweepQuery jobs and multi-solver
// comparisons (Engine::compare) through it, adding cancellation,
// deadlines, streaming observers and metrics. Callers sweep through the
// Engine; the class is public so its tests can pin the algorithm down.
//
// The paper's contribution is the *trade-off* between energy and the
// deadline / reliability constraints; a single api::solve only answers one
// point of it. The engine sweeps a constraint axis and returns the Pareto
// frontier of (constraint, energy) points:
//
//  * BI-CRIT:  energy vs deadline   (deadline_sweep; lower deadline and
//              lower energy are both better),
//  * TRI-CRIT: energy vs the reliability threshold speed frel
//              (reliability_sweep; higher frel and lower energy are both
//              better).
//
// Sweeps start from a uniform grid and refine by recursive bisection where
// the curve bends (large deviation of a point from the chord of its
// neighbours) and across the feasibility boundary, so the point budget
// concentrates at the knee instead of the flat tail. Each evaluation round
// fans out on the engine's WorkerPool; refinement decisions depend only on
// solved energies, so the returned points are bit-identical for every
// pool size, and — through the optional SolveCache — for warm re-runs.
//
// Sweeps with a cache intern the instance once (SolveCache::context_for)
// and probe with O(1) POD keys, so the per-probe lookup cost is
// independent of the instance size.
//
// resweep() is the incremental-update path for repeat traffic on
// *changed* instances: given the previous curve of a neighbouring
// instance, it speculatively prefetches the previous probe positions in
// one fully parallel batch (warm-starting the new curve from where the
// old one needed points), then replays the standard adaptive sweep, which
// now finds almost every probe already cached. Because the replay is the
// very same deterministic algorithm a cold sweep runs — the prefetch only
// changes *when* a value is computed, never *what* is computed — the
// resweep curve is bit-identical to a cold sweep of the changed instance,
// even when the change moved the knee and the refinement re-bisects
// different intervals (drifted probes simply miss the prefetch and solve
// on demand).

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "api/solver.hpp"
#include "common/parallel.hpp"
#include "core/problem.hpp"
#include "frontier/cache.hpp"

namespace easched::frontier {

/// Which constraint the sweep varies, and hence the dominance sense:
/// kDeadline minimises the constraint, kReliability maximises it; energy
/// is always minimised.
enum class ConstraintAxis { kDeadline, kReliability };

constexpr const char* to_string(ConstraintAxis axis) noexcept {
  switch (axis) {
    case ConstraintAxis::kDeadline: return "deadline";
    case ConstraintAxis::kReliability: return "reliability";
  }
  return "unknown";
}

/// One solved trade-off point.
struct FrontierPoint {
  double constraint = 0.0;  ///< deadline or frel, per the sweep axis
  double energy = 0.0;
  double makespan = 0.0;
  std::string solver;  ///< concrete solver that produced the point
  bool exact = false;  ///< solver certified the point optimal
};

struct FrontierOptions {
  int initial_points = 9;        ///< uniform grid size (>= 1)
  int max_points = 33;           ///< total evaluation budget (>= initial)
  int max_refine_rounds = 8;     ///< bisection rounds after the grid
  double bend_tolerance = 0.02;  ///< relative chord deviation that triggers
                                 ///< refinement of the surrounding intervals
  double min_rel_spacing = 1e-3; ///< intervals narrower than this fraction
                                 ///< of the sweep span are never split
  std::string solver;            ///< registry name; empty = auto-select per point
  api::SolveOptions solve;       ///< forwarded to every solve (deadline_slack is
                                 ///< overridden by deadline_sweep)

  // ---- cancellation & streaming hooks (set by the engine façade) ----

  /// Cooperative cancellation: checked between evaluation rounds. A set
  /// flag stops the sweep early — the result carries the points gathered
  /// so far and error = Status kCancelled. Every solve that already
  /// started still completes and is cached normally, so a cancelled sweep
  /// leaves the cache and any attached store fully consistent.
  const std::atomic<bool>* cancel = nullptr;
  /// Streaming observer: called once for every *feasible* evaluation, in
  /// a deterministic order (each round's batch order), as rounds finish.
  /// The emitted set is exactly the sweep's feasible evaluations, so
  /// pareto_filter(streamed points) reproduces the returned curve
  /// bit-identically. Called from the sweeping thread; must not re-enter
  /// the engine/sweep.
  std::function<void(const FrontierPoint&)> on_point;
};

struct FrontierResult {
  ConstraintAxis axis = ConstraintAxis::kDeadline;
  /// The Pareto frontier: ascending constraint, every point non-dominated.
  std::vector<FrontierPoint> points;
  /// Feasible points that were dominated (heuristic wobble, duplicates).
  std::vector<FrontierPoint> dominated;
  /// Every constraint value the sweep evaluated (ascending), feasible or
  /// not — the probe trace a later resweep() seeds its prefetch from.
  std::vector<double> probes;
  std::size_t evaluated = 0;   ///< solve attempts (feasible + infeasible)
  std::size_t infeasible = 0;  ///< constraint points no solver could meet
  std::size_t cache_hits = 0;  ///< evaluations served by the SolveCache
  std::size_t prefetched = 0;  ///< resweep only: probes solved speculatively
  double wall_ms = 0.0;
  /// First *request-level* failure (unknown solver name, invalid options,
  /// internal error): such a status would repeat at every constraint
  /// point, so the sweep stops refining and surfaces it here instead of
  /// miscounting it as infeasibility. Point-level statuses (infeasible,
  /// unsupported instance, no convergence) stay in `infeasible`.
  common::Status error = common::Status::ok();
};

class FrontierEngine {
 public:
  /// Evaluation rounds fan out on `pool` (the calling thread
  /// participates, so sweeping from inside a pool task cannot deadlock).
  /// `cache` (optional) memoizes every evaluation; share one cache across
  /// sweeps to make repeat traffic hit instead of re-solve. Neither is
  /// owned; both must outlive the FrontierEngine.
  explicit FrontierEngine(common::WorkerPool& pool, SolveCache* cache = nullptr)
      : pool_(&pool), cache_(cache) {}

  SolveCache* cache() const noexcept { return cache_; }

  /// BI-CRIT energy-vs-deadline frontier over deadlines [dmin, dmax].
  /// The problem's own deadline only anchors the slack policy; every
  /// evaluation solves at the swept deadline. Requires 0 < dmin <= dmax
  /// and problem.deadline > 0.
  FrontierResult deadline_sweep(const core::BiCritProblem& problem, double dmin,
                                double dmax, const FrontierOptions& options = {}) const;

  /// TRI-CRIT energy-vs-deadline frontier at the problem's fixed
  /// reliability threshold (same axis and dominance sense as the BI-CRIT
  /// overload; re-execution decisions vary along the curve).
  FrontierResult deadline_sweep(const core::TriCritProblem& problem, double dmin,
                                double dmax, const FrontierOptions& options = {}) const;

  /// TRI-CRIT energy-vs-reliability frontier over threshold speeds
  /// [rmin, rmax] (within the reliability model's [fmin, fmax]); the
  /// deadline stays fixed at the problem's.
  FrontierResult reliability_sweep(const core::TriCritProblem& problem, double rmin,
                                   double rmax,
                                   const FrontierOptions& options = {}) const;

  /// Incremental re-sweep of a *changed* instance, warm-started from the
  /// curve of a neighbouring instance (`prev`, from any earlier sweep of
  /// this engine or another): prefetches prev's probe positions in one
  /// parallel batch through the cache, then replays the standard
  /// deadline sweep. The returned curve is bit-identical to
  /// deadline_sweep(problem, dmin, dmax, options) by construction; the
  /// prefetch only shifts work into one embarrassingly parallel phase and
  /// lets repeat traffic on the changed instance hit instead of re-solve.
  /// Intervals whose endpoint energies did not move re-bisect to the very
  /// probes that were prefetched; only moved intervals solve new points
  /// during the replay. Without a cache the prefetch is skipped and this
  /// degenerates to a plain (still correct) cold sweep.
  FrontierResult resweep(const FrontierResult& prev, const core::BiCritProblem& problem,
                         double dmin, double dmax,
                         const FrontierOptions& options = {}) const;

  /// TRI-CRIT deadline-axis resweep at the problem's fixed frel.
  FrontierResult resweep(const FrontierResult& prev, const core::TriCritProblem& problem,
                         double dmin, double dmax,
                         const FrontierOptions& options = {}) const;

  /// TRI-CRIT reliability-axis resweep over [rmin, rmax].
  FrontierResult resweep_reliability(const FrontierResult& prev,
                                     const core::TriCritProblem& problem, double rmin,
                                     double rmax,
                                     const FrontierOptions& options = {}) const;

 private:
  common::WorkerPool* pool_;
  SolveCache* cache_;
};

}  // namespace easched::frontier
