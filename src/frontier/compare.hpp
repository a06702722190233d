#pragma once
// Multi-solver frontier comparison: given sweeps of N registered solvers
// over the same instance (engine::Engine::compare), report which one
// dominates where.
//
// Heuristics are rarely uniformly best — the paper's own evaluation shows
// the chain-centric and parallelism-centric TRI-CRIT families winning on
// different instance classes, and the same holds along the constraint
// axis: an exact solver may own the tight-deadline knee while a cheap
// heuristic matches it on the flat tail. The comparison makes that
// structure explicit as dominance segments: maximal constraint intervals
// with a single winning solver (lowest interpolated frontier energy).

#include <string>
#include <vector>

#include "frontier/analytics.hpp"
#include "frontier/frontier.hpp"

namespace easched::frontier {

/// One solver's sweep plus its scalar summary.
struct SolverFrontier {
  std::string solver;
  FrontierResult result;
  FrontierSummary summary;
};

/// A maximal constraint interval on which `solver` has the lowest
/// interpolated frontier energy (ties go to the solver listed first).
struct DominanceSegment {
  double lo = 0.0;
  double hi = 0.0;
  std::string solver;
};

struct FrontierComparison {
  ConstraintAxis axis = ConstraintAxis::kDeadline;
  std::vector<SolverFrontier> solvers;      ///< in the order requested
  std::vector<DominanceSegment> segments;   ///< ascending, non-overlapping
};

/// Builds dominance segments from per-solver sweeps (in request order):
/// evaluate every frontier at the union of all constraint values, pick the
/// per-point winner, and merge maximal same-winner runs. Solvers whose
/// sweep found no feasible point contribute an empty frontier and never
/// win a segment. engine::Engine::compare runs the sweeps and calls this.
FrontierComparison build_comparison(ConstraintAxis axis,
                                    std::vector<SolverFrontier> solvers);

/// Interpolated frontier energy of `frontier` (sorted ascending
/// constraint) at `constraint`: linear between points, extended flat
/// towards the *loose* side of the axis (a looser constraint can always
/// reuse the nearest point's solution), +infinity beyond the tight side.
double frontier_energy_at(const std::vector<FrontierPoint>& frontier,
                          ConstraintAxis axis, double constraint);

}  // namespace easched::frontier
