#pragma once
// The paper's optimisation problems (section II, Definitions 1-2) as one
// value type, plus the validation entry point. Build a Dag, a Mapping
// and a SpeedModel, wrap them in a Problem, and hand it to an
// engine::Engine (engine/engine.hpp) — or to the lower-level api::solve
// for one-off synchronous calls.

#include <optional>

#include "common/status.hpp"
#include "graph/dag.hpp"
#include "model/reliability.hpp"
#include "model/speed_model.hpp"
#include "sched/mapping.hpp"
#include "sched/schedule.hpp"
#include "sched/validator.hpp"

namespace easched::core {

/// Which of the paper's two optimisation problems an instance poses.
enum class ProblemKind { kBiCrit, kTriCrit };

constexpr const char* to_string(ProblemKind kind) noexcept {
  switch (kind) {
    case ProblemKind::kBiCrit: return "BI-CRIT";
    case ProblemKind::kTriCrit: return "TRI-CRIT";
  }
  return "UNKNOWN";
}

/// Definition 1 — BI-CRIT: "deciding at which speed each task should be
/// processed, in order to minimise the total energy consumption E, subject
/// to the deadline bound D." Definition 2 — TRI-CRIT — is the same
/// instance plus a reliability model: additionally "deciding which tasks
/// should be re-executed", subject to the reliability constraints
/// R_i >= R_i(frel). An instance is TRI-CRIT exactly when it carries a
/// reliability model.
struct Problem {
  graph::Dag dag;
  sched::Mapping mapping;
  model::SpeedModel speeds;
  std::optional<model::ReliabilityModel> reliability;
  double deadline = 0.0;

  /// BI-CRIT (Definition 1).
  Problem(graph::Dag d, sched::Mapping m, model::SpeedModel s, double dl)
      : dag(std::move(d)), mapping(std::move(m)), speeds(std::move(s)), deadline(dl) {}
  /// TRI-CRIT (Definition 2) with a reliability model; BI-CRIT with nullopt.
  Problem(graph::Dag d, sched::Mapping m, model::SpeedModel s,
          std::optional<model::ReliabilityModel> r, double dl)
      : dag(std::move(d)),
        mapping(std::move(m)),
        speeds(std::move(s)),
        reliability(std::move(r)),
        deadline(dl) {}

  ProblemKind kind() const noexcept {
    return reliability.has_value() ? ProblemKind::kTriCrit : ProblemKind::kBiCrit;
  }

  /// Structural sanity of the instance (graph, mapping, deadline sign).
  common::Status validate() const;

  /// Feasibility of a candidate schedule for this instance: re-execution
  /// and the reliability constraints apply when it is TRI-CRIT.
  common::Status check(const sched::Schedule& schedule) const;
};

/// The names of the two definitions, kept as aliases of Problem so code
/// written against the two separate types (the perfbench load generator
/// and the byte-pin test among it) builds unchanged.
using BiCritProblem = Problem;
using TriCritProblem = Problem;

}  // namespace easched::core
