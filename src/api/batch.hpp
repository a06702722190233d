#pragma once
// Batch vocabulary: a corpus of instances solved as one unit, with
// per-family statistics — the building block for the paper's "wide class
// of problem instances" sweeps. engine::Engine runs batches (BatchQuery)
// on its worker pool and folds the results with aggregate_batch.
//
// Determinism: every job is solved by the same deterministic solver it
// would get sequentially, so a batch returns bit-identical energies and
// schedules regardless of the thread count; only wall times vary.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/solver.hpp"
#include "common/stats.hpp"
#include "core/corpus.hpp"
#include "model/reliability.hpp"

namespace easched::api {

/// One unit of batch work: a problem plus its aggregation key. Problems
/// are shared_ptrs so a corpus can be built once and sliced into many
/// batches without copies. Exactly one of bicrit/tricrit must be set.
struct BatchJob {
  std::string family;  ///< aggregation key (e.g. the corpus family tag)
  std::string solver;  ///< per-job solver override; empty = batch-level policy
  std::shared_ptr<const core::BiCritProblem> bicrit;
  std::shared_ptr<const core::TriCritProblem> tricrit;
};

/// Welford aggregates of one family's solved instances.
struct FamilyAggregate {
  common::OnlineStats energy;
  common::OnlineStats wall_ms;
  common::OnlineStats makespan;
  std::size_t solved = 0;
  std::size_t failed = 0;
};

struct BatchReport {
  /// Per-job outcome, index-aligned with the input jobs.
  std::vector<common::Result<SolveReport>> results;
  /// Aggregates over the solved jobs, keyed by BatchJob::family.
  std::map<std::string, FamilyAggregate> by_family;
  std::size_t solved = 0;
  std::size_t failed = 0;
  double wall_ms = 0.0;  ///< whole-batch wall clock
};

/// Folds index-aligned per-job outcomes into a BatchReport (per-family
/// Welford aggregates, solved/failed counters). Job-level failures
/// (infeasible instance, unknown solver name, ...) count as `failed`.
/// The engine runs batch queries through its cache and worker pool, then
/// aggregates here; wall_ms is left 0 for the caller to stamp.
BatchReport aggregate_batch(const std::vector<BatchJob>& jobs,
                            std::vector<common::Result<SolveReport>> results);

/// BI-CRIT jobs over a corpus: one job per instance, deadline set to
/// `slack_factor` headroom over the all-fmax makespan.
std::vector<BatchJob> corpus_bicrit_jobs(const std::vector<core::Instance>& corpus,
                                         const model::SpeedModel& speeds,
                                         double slack_factor);

/// TRI-CRIT jobs over a corpus; the deadline additionally absorbs the
/// 1/frel reliability headroom (the benches' convention).
std::vector<BatchJob> corpus_tricrit_jobs(const std::vector<core::Instance>& corpus,
                                          const model::SpeedModel& speeds,
                                          const model::ReliabilityModel& reliability,
                                          double slack_factor);

}  // namespace easched::api
