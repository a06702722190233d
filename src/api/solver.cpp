#include "api/solver.hpp"

#include <chrono>

#include "graph/analysis.hpp"
#include "graph/series_parallel.hpp"

namespace easched::api {

GraphClass classify_structure(const graph::Dag& dag) {
  if (graph::is_chain(dag)) return GraphClass::kChain;
  if (graph::is_fork(dag)) return GraphClass::kFork;
  if (graph::is_series_parallel(dag)) return GraphClass::kSeriesParallel;
  return GraphClass::kGeneral;
}

common::Status SolveRequest::validate() const {
  if (validated_) return common::Status::ok();
  if (problem == nullptr) return common::Status::invalid("request carries no problem");
  if (options.deadline_slack <= 0.0) {
    return common::Status::invalid("deadline_slack must be positive");
  }
  if (options.approx_K < 1) return common::Status::invalid("approx_K must be >= 1");
  if (options.dp_buckets < 1) return common::Status::invalid("dp_buckets must be >= 1");
  if (options.fork_grid < 2) return common::Status::invalid("fork_grid must be >= 2");
  auto st = problem->validate();
  validated_ = st.is_ok();
  return st;
}

bool Solver::accepts(const SolveRequest& request) const {
  const Capabilities& caps = capabilities();
  if (caps.auto_priority < 0) return false;
  if (caps.problem != request.kind()) return false;
  if (!caps.supports(request.speeds().kind())) return false;
  return caps.supports(request.structure());
}

common::Result<SolveReport> Solver::run(const SolveRequest& request) const {
  if (auto st = request.validate(); !st.is_ok()) return st;
  if (capabilities().problem != request.kind()) {
    return common::Status::unsupported(std::string(name()) + " solves " +
                                       to_string(capabilities().problem) + ", got a " +
                                       to_string(request.kind()) + " problem");
  }
  const auto start = std::chrono::steady_clock::now();
  auto result = do_run(request);
  if (!result.is_ok()) return result.status();

  SolveReport report = std::move(result).take();
  report.solver = std::string(name());
  report.problem = request.kind();
  report.makespan = sched::makespan(request.dag(), request.mapping(), report.schedule);
  report.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return report;
}

}  // namespace easched::api
