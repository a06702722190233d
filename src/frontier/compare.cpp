#include "frontier/compare.hpp"

#include <algorithm>
#include <limits>

namespace easched::frontier {

FrontierComparison build_comparison(ConstraintAxis axis,
                                    std::vector<SolverFrontier> solvers) {
  FrontierComparison comparison;
  comparison.axis = axis;
  comparison.solvers = std::move(solvers);

  std::vector<double> constraints;
  for (const auto& sf : comparison.solvers) {
    for (const auto& p : sf.result.points) constraints.push_back(p.constraint);
  }
  std::sort(constraints.begin(), constraints.end());
  constraints.erase(std::unique(constraints.begin(), constraints.end()),
                    constraints.end());

  int current = -1;
  for (double c : constraints) {
    double best = std::numeric_limits<double>::infinity();
    int winner = -1;
    for (std::size_t i = 0; i < comparison.solvers.size(); ++i) {
      const double e =
          frontier_energy_at(comparison.solvers[i].result.points, axis, c);
      if (e < best) {
        best = e;
        winner = static_cast<int>(i);
      }
    }
    if (winner < 0) {
      current = -1;
      continue;
    }
    if (winner == current) {
      comparison.segments.back().hi = c;
    } else {
      DominanceSegment seg;
      seg.lo = c;
      seg.hi = c;
      seg.solver = comparison.solvers[static_cast<std::size_t>(winner)].solver;
      comparison.segments.push_back(std::move(seg));
      current = winner;
    }
  }
  return comparison;
}

double frontier_energy_at(const std::vector<FrontierPoint>& frontier,
                          ConstraintAxis axis, double constraint) {
  if (frontier.empty()) return std::numeric_limits<double>::infinity();
  const double lo = frontier.front().constraint;
  const double hi = frontier.back().constraint;
  if (constraint < lo) {
    // Below the span: tight side for deadlines, loose side for frel.
    return axis == ConstraintAxis::kDeadline ? std::numeric_limits<double>::infinity()
                                             : frontier.front().energy;
  }
  if (constraint > hi) {
    return axis == ConstraintAxis::kDeadline ? frontier.back().energy
                                             : std::numeric_limits<double>::infinity();
  }
  const auto it = std::lower_bound(frontier.begin(), frontier.end(), constraint,
                                   [](const FrontierPoint& p, double c) {
                                     return p.constraint < c;
                                   });
  if (it->constraint == constraint || it == frontier.begin()) return it->energy;
  const auto prev = it - 1;
  const double t = (constraint - prev->constraint) / (it->constraint - prev->constraint);
  return prev->energy + t * (it->energy - prev->energy);
}

}  // namespace easched::frontier
