#pragma once
// TRI-CRIT heuristics for general mapped DAGs (claim C6).
//
// The paper develops "two sets of heuristics" and reports that they are
// complementary: one family excels on linear-chain-like DAGs, the other on
// highly-parallelizable DAGs, and taking the best of the two "always gives
// the best result over all simulations". The two families here implement
// exactly those two ideas:
//
//  * heuristic_uniform_reexec (A, chain-centric): slow every task equally
//    so the whole deadline is consumed (the optimal chain move), then let
//    each task independently decide single vs. re-executed execution
//    within its allotted window — the linear-chain strategy of claim C4
//    lifted to DAGs.
//
//  * heuristic_slack_reexec (B, parallelism-centric): start from the
//    all-single continuous optimum, then walk tasks in decreasing
//    scheduling slack (ALAP - ASAP) and re-execute those whose slack pays
//    for the second execution — "highly parallelizable tasks should be
//    preferred when allocating time slots for re-execution" (section III).
//
//  * heuristic_best_of: min-energy of the two (the paper's recommended
//    combination).
//
// Both heuristics optionally finish with a *polish* step: one solve of the
// continuous speed program (bicrit::solve_durations) with the chosen
// re-execution set fixed, which redistributes time globally. It is
// BI-CRIT's program with other per-task bounds: a re-executed task has
// energy coefficient (2w)^3 and durations in [2w/fmax, 2w/max(f_inf, fmin)],
// a single one w^3 and [w/fmax, w/max(frel, fmin)].

#include <vector>

#include "common/status.hpp"
#include "graph/dag.hpp"
#include "model/reliability.hpp"
#include "model/speed_model.hpp"
#include "sched/mapping.hpp"
#include "tricrit/reexec.hpp"

namespace easched::tricrit {

struct HeuristicOptions {
  bool polish = true;  ///< run the fixed-mode continuous re-solve at the end
};

/// Optimal continuous speeds for a *fixed* re-execution set: the
/// continuous speed program with the bounds above. This is the inner
/// optimiser the NP-hardness leaves tractable once the subset is chosen.
/// kInfeasible when the set cannot meet the deadline.
common::Result<TriCritSolution> continuous_with_modes(const graph::Dag& dag,
                                                      const sched::Mapping& mapping,
                                                      double deadline,
                                                      const model::ReliabilityModel& rel,
                                                      const model::SpeedModel& speeds,
                                                      const std::vector<bool>& re_exec);

/// Heuristic A — uniform slowdown, then per-task re-execution choice.
common::Result<TriCritSolution> heuristic_uniform_reexec(const graph::Dag& dag,
                                                         const sched::Mapping& mapping,
                                                         double deadline,
                                                         const model::ReliabilityModel& rel,
                                                         const model::SpeedModel& speeds,
                                                         const HeuristicOptions& options = {});

/// Heuristic B — slack-ordered re-execution from the all-single optimum.
common::Result<TriCritSolution> heuristic_slack_reexec(const graph::Dag& dag,
                                                       const sched::Mapping& mapping,
                                                       double deadline,
                                                       const model::ReliabilityModel& rel,
                                                       const model::SpeedModel& speeds,
                                                       const HeuristicOptions& options = {});

/// Heuristic C — best-improvement greedy with full continuous re-solves:
/// the chain strategy (C4) lifted verbatim to DAGs. Each step evaluates
/// every candidate re-execution with a fresh interior-point solve and
/// adopts the best improvement; stops at a local optimum. O(n^2) IPM
/// solves — the thorough (slow) reference the cheap families are measured
/// against; practical up to a few dozen tasks.
common::Result<TriCritSolution> heuristic_greedy_reexec(const graph::Dag& dag,
                                                        const sched::Mapping& mapping,
                                                        double deadline,
                                                        const model::ReliabilityModel& rel,
                                                        const model::SpeedModel& speeds);

/// BEST-OF combination (the paper's recommended candidate).
common::Result<TriCritSolution> heuristic_best_of(const graph::Dag& dag,
                                                  const sched::Mapping& mapping,
                                                  double deadline,
                                                  const model::ReliabilityModel& rel,
                                                  const model::SpeedModel& speeds,
                                                  const HeuristicOptions& options = {});

}  // namespace easched::tricrit
