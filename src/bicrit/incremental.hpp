#pragma once
// INCREMENTAL BI-CRIT approximation algorithm (claim C9).
//
// The paper: "with the INCREMENTAL model, we can approximate the solution
// within a factor (1 + delta/fmin)^2 (1 + 1/K)^2, in a time polynomial in
// the size of the instance and in K."
//
// The scheme implemented here mirrors that guarantee:
//  1. solve the CONTINUOUS relaxation on [fmin, fmax] to relative accuracy
//     1/K (the barrier's m/t gap bound gives the (1+1/K) factor on
//     top of the true continuous optimum, which lower-bounds the
//     INCREMENTAL optimum; the bound holds on the exact central path and
//     is not yet checked against a dual point);
//  2. round every speed UP to the next admissible incremental level
//     f = fmin + i*delta. Durations shrink, so feasibility is preserved,
//     and per-task energy grows by at most ((f + delta)/f)^2
//     <= (1 + delta/fmin)^2.
// Hence  E_approx <= (1+delta/fmin)^2 (1+1/K) E*_cont
//                 <= (1+delta/fmin)^2 (1+1/K)^2 E*_incremental.

#include "bicrit/continuous_dag.hpp"
#include "common/status.hpp"
#include "model/speed_model.hpp"

namespace easched::bicrit {

/// The proven worst-case ratio (1 + delta/fmin)^2 * (1 + 1/K)^2.
double incremental_ratio_bound(const model::SpeedModel& incremental, int K);

struct IncrementalApprox {
  sched::Schedule schedule;
  double energy = 0.0;
  double continuous_energy = 0.0;  ///< lower bound on the incremental optimum
  double ratio_bound = 0.0;        ///< (1+delta/fmin)^2 (1+1/K)^2
  double observed_ratio = 0.0;     ///< energy / continuous_energy (upper bounds
                                   ///< the true approximation ratio)
};

/// Runs the approximation scheme; K controls the continuous accuracy.
common::Result<IncrementalApprox> solve_incremental_approx(const graph::Dag& dag,
                                                           const sched::Mapping& mapping,
                                                           double deadline,
                                                           const model::SpeedModel& incremental,
                                                           int K);

}  // namespace easched::bicrit
