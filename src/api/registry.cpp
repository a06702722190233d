#include "api/registry.hpp"

#include <mutex>
#include <utility>

#include "api/builtin.hpp"

namespace easched::api {

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry registry;
  static std::once_flag once;
  std::call_once(once, [] {
    register_builtin_bicrit_solvers(registry);
    register_builtin_tricrit_solvers(registry);
  });
  return registry;
}

common::Status SolverRegistry::add(std::unique_ptr<Solver> solver) {
  if (solver == nullptr) return common::Status::invalid("cannot register a null solver");
  const common::MutexLock lock(mutex_);
  for (const auto& existing : solvers_) {
    if (existing->name() == solver->name()) {
      return common::Status::invalid("solver '" + std::string(solver->name()) +
                                     "' is already registered");
    }
  }
  solvers_.push_back(std::move(solver));
  return common::Status::ok();
}

const Solver* SolverRegistry::find(std::string_view name) const {
  const common::MutexLock lock(mutex_);
  for (const auto& solver : solvers_) {
    if (solver->name() == name) return solver.get();
  }
  return nullptr;
}

std::vector<std::string> SolverRegistry::names(std::optional<ProblemKind> kind) const {
  const common::MutexLock lock(mutex_);
  std::vector<std::string> out;
  for (const auto& solver : solvers_) {
    if (kind && solver->capabilities().problem != *kind) continue;
    out.emplace_back(solver->name());
  }
  return out;
}

common::Result<const Solver*> SolverRegistry::select(const SolveRequest& request) const {
  request.structure();  // classify (and cache) outside the lock
  const common::MutexLock lock(mutex_);
  const Solver* best = nullptr;
  for (const auto& solver : solvers_) {
    if (!solver->accepts(request)) continue;
    if (best == nullptr ||
        solver->capabilities().auto_priority > best->capabilities().auto_priority) {
      best = solver.get();
    }
  }
  if (best == nullptr) {
    return common::Status::unsupported(
        std::string("no registered solver accepts this ") + to_string(request.kind()) +
        " instance (speed model " + model::to_string(request.speeds().kind()) +
        ", structure " + to_string(request.structure()) + ")");
  }
  return best;
}

std::size_t SolverRegistry::size() const {
  const common::MutexLock lock(mutex_);
  return solvers_.size();
}

common::Result<SolveReport> solve(const SolveRequest& request) {
  if (auto st = request.validate(); !st.is_ok()) return st;

  const SolverRegistry& registry = SolverRegistry::instance();
  const Solver* solver = nullptr;
  if (request.solver.empty()) {
    auto selected = registry.select(request);
    if (!selected.is_ok()) return selected.status();
    solver = selected.value();
  } else {
    solver = registry.find(request.solver);
    if (solver == nullptr) {
      std::string known;
      for (const auto& name : registry.names(request.kind())) {
        known += known.empty() ? name : (", " + name);
      }
      return common::Status::not_found("no solver named '" + request.solver +
                                       "'; registered for " + to_string(request.kind()) +
                                       ": " + known);
    }
  }
  return solver->run(request);
}

common::Result<SolveReport> solve(const core::Problem& problem,
                                  const SolveOptions& options) {
  return solve(SolveRequest(problem, {}, options));
}

common::Result<SolveReport> solve(const core::Problem& problem, std::string_view solver,
                                  const SolveOptions& options) {
  return solve(SolveRequest(problem, std::string(solver), options));
}

}  // namespace easched::api
