// TRI-CRIT members of the solver family. The old enum facade had no auto
// mode for TRI-CRIT; the registry adds one: chain instances route to the
// paper's chain strategy, forks (with a processor per branch) to the
// polynomial fork algorithm, everything else to BEST-OF — and VDD-HOPPING
// TRI-CRIT instances, which the facade could not express at all, route to
// the two-level adaptation of the continuous BEST-OF solution (claim C10).

#include <memory>
#include <string>
#include <vector>

#include "api/builtin.hpp"
#include "api/registry.hpp"
#include "graph/analysis.hpp"
#include "tricrit/chain.hpp"
#include "tricrit/fork.hpp"
#include "tricrit/heuristics.hpp"
#include "tricrit/vdd_adapt.hpp"

namespace easched::api {
namespace {

using model::SpeedModelKind;

SolveReport report_from(tricrit::TriCritSolution solution) {
  SolveReport report;
  report.schedule = std::move(solution.schedule);
  report.energy = solution.energy;
  report.re_executed = solution.re_executed;
  return report;
}

/// Shared machinery for the chain-order solvers: extract weights in the
/// chain's unique topological order, run, and map the chain-position
/// schedule back to task ids.
class ChainSolverBase : public Solver {
 protected:
  common::Result<SolveReport> do_run(const SolveRequest& request) const final {
    std::vector<graph::TaskId> order;
    auto weights = chain_weights(request.dag(), name(), order);
    if (!weights.is_ok()) return weights.status();

    auto r = run_chain(weights.value(), request);
    if (!r.is_ok()) return r.status();

    SolveReport report;
    report.schedule = chain_schedule_to_tasks(order, r.value().solution.schedule);
    report.energy = r.value().solution.energy;
    report.re_executed = r.value().solution.re_executed;
    report.iterations = r.value().subsets_explored;
    report.exact = is_exact();
    return report;
  }

  virtual common::Result<tricrit::ChainSolution> run_chain(
      const std::vector<double>& weights, const SolveRequest& request) const = 0;
  virtual bool is_exact() const noexcept { return false; }
};

class ChainExactSolver final : public ChainSolverBase {
 public:
  std::string_view name() const noexcept override { return "chain-exact"; }
  const Capabilities& capabilities() const noexcept override {
    static const Capabilities caps{ProblemKind::kTriCrit,
                                   speed_bit(SpeedModelKind::kContinuous),
                                   structure_bit(GraphClass::kChain),
                                   /*exact=*/true,
                                   /*auto_priority=*/-1,  // 2^n oracle, explicit-only
                                   "claim C3: chain optimum (subset enumeration)"};
    return caps;
  }

 protected:
  common::Result<tricrit::ChainSolution> run_chain(
      const std::vector<double>& weights, const SolveRequest& request) const override {
    return tricrit::solve_chain_exact(weights, request.deadline(),
                                      *request.problem->reliability, request.speeds());
  }
  bool is_exact() const noexcept override { return true; }
};

class ChainGreedySolver final : public ChainSolverBase {
 public:
  std::string_view name() const noexcept override { return "chain-greedy"; }
  const Capabilities& capabilities() const noexcept override {
    static const Capabilities caps{ProblemKind::kTriCrit,
                                   speed_bit(SpeedModelKind::kContinuous),
                                   structure_bit(GraphClass::kChain),
                                   /*exact=*/false,
                                   /*auto_priority=*/100,
                                   "claim C4: the paper's chain strategy"};
    return caps;
  }

 protected:
  common::Result<tricrit::ChainSolution> run_chain(
      const std::vector<double>& weights, const SolveRequest& request) const override {
    return tricrit::solve_chain_greedy(weights, request.deadline(),
                                       *request.problem->reliability, request.speeds());
  }
};

class ChainBnbSolver final : public ChainSolverBase {
 public:
  std::string_view name() const noexcept override { return "chain-bnb"; }
  const Capabilities& capabilities() const noexcept override {
    static const Capabilities caps{ProblemKind::kTriCrit,
                                   speed_bit(SpeedModelKind::kContinuous),
                                   structure_bit(GraphClass::kChain),
                                   /*exact=*/true,
                                   /*auto_priority=*/-1,
                                   "claim C3: chain optimum (branch & bound)"};
    return caps;
  }

 protected:
  common::Result<tricrit::ChainSolution> run_chain(
      const std::vector<double>& weights, const SolveRequest& request) const override {
    const long long max_nodes =
        request.options.max_nodes > 0 ? request.options.max_nodes : 5'000'000;
    return tricrit::solve_chain_bnb(weights, request.deadline(),
                                    *request.problem->reliability, request.speeds(),
                                    max_nodes);
  }
  bool is_exact() const noexcept override { return true; }
};

class ForkPolySolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "fork-poly"; }
  const Capabilities& capabilities() const noexcept override {
    static const Capabilities caps{ProblemKind::kTriCrit,
                                   speed_bit(SpeedModelKind::kContinuous),
                                   structure_bit(GraphClass::kFork),
                                   /*exact=*/false,  // exact up to grid resolution
                                   /*auto_priority=*/90,
                                   "claim C5: polynomial fork algorithm"};
    return caps;
  }

  bool accepts(const SolveRequest& request) const override {
    // The fork algorithm assumes every child on its own processor.
    return Solver::accepts(request) &&
           request.mapping().num_processors() >= request.dag().num_tasks() - 1;
  }

 protected:
  common::Result<SolveReport> do_run(const SolveRequest& request) const override {
    if (!graph::is_fork(request.dag())) {
      return common::Status::unsupported("fork-poly needs a fork graph");
    }
    auto r = tricrit::solve_fork_tricrit(request.dag(), request.deadline(),
                                         *request.problem->reliability, request.speeds(),
                                         request.options.fork_grid);
    if (!r.is_ok()) return r.status();
    return report_from(std::move(r.value().solution));
  }
};

/// The two heuristic families and their BEST-OF combination share a
/// do_run; only the inner call differs.
enum class HeuristicKind { kUniform, kSlack, kBestOf };

template <HeuristicKind kind>
class HeuristicSolver final : public Solver {
 public:
  std::string_view name() const noexcept override {
    switch (kind) {
      case HeuristicKind::kUniform: return "heuristic-A";
      case HeuristicKind::kSlack: return "heuristic-B";
      case HeuristicKind::kBestOf: return "best-of";
    }
    return "heuristic";
  }
  const Capabilities& capabilities() const noexcept override {
    static const Capabilities caps{ProblemKind::kTriCrit,
                                   speed_bit(SpeedModelKind::kContinuous),
                                   kAllStructures,
                                   /*exact=*/false,
                                   /*auto_priority=*/kind == HeuristicKind::kBestOf ? 50
                                                                                    : 10,
                                   "claim C6: complementary heuristic families"};
    return caps;
  }

 protected:
  common::Result<SolveReport> do_run(const SolveRequest& request) const override {
    tricrit::HeuristicOptions opts;
    opts.polish = request.options.polish;
    const core::Problem& p = *request.problem;
    const model::ReliabilityModel& rel = *p.reliability;
    auto r = kind == HeuristicKind::kUniform
                 ? tricrit::heuristic_uniform_reexec(p.dag, p.mapping, request.deadline(),
                                                     rel, p.speeds, opts)
                 : kind == HeuristicKind::kSlack
                       ? tricrit::heuristic_slack_reexec(p.dag, p.mapping,
                                                         request.deadline(),
                                                         rel, p.speeds, opts)
                       : tricrit::heuristic_best_of(p.dag, p.mapping, request.deadline(),
                                                    rel, p.speeds, opts);
    if (!r.is_ok()) return r.status();
    return report_from(std::move(r.value()));
  }
};

/// VDD-HOPPING TRI-CRIT (claim C10): solve the continuous relaxation with
/// BEST-OF, then convert every execution into a reliability-preserving
/// two-level mix. A scenario the enum facade could not express.
class VddAdaptSolver final : public Solver {
 public:
  std::string_view name() const noexcept override { return "vdd-adapt"; }
  const Capabilities& capabilities() const noexcept override {
    static const Capabilities caps{ProblemKind::kTriCrit,
                                   speed_bit(SpeedModelKind::kVddHopping),
                                   kAllStructures,
                                   /*exact=*/false,
                                   /*auto_priority=*/50,
                                   "claim C10: continuous heuristic -> VDD mixes"};
    return caps;
  }

 protected:
  common::Result<SolveReport> do_run(const SolveRequest& request) const override {
    const core::Problem& p = *request.problem;
    const model::ReliabilityModel& rel = *p.reliability;
    const auto continuous =
        model::SpeedModel::continuous(p.speeds.fmin(), p.speeds.fmax());
    tricrit::HeuristicOptions opts;
    opts.polish = request.options.polish;
    auto cont = tricrit::heuristic_best_of(p.dag, p.mapping, request.deadline(),
                                           rel, continuous, opts);
    if (!cont.is_ok()) return cont.status();
    auto adapted = tricrit::adapt_to_vdd(p.dag, cont.value(), rel, p.speeds);
    if (!adapted.is_ok()) return adapted.status();
    auto report = report_from(std::move(adapted.value().solution));
    report.iterations = adapted.value().tightened_tasks;
    report.gap_bound = adapted.value().energy_loss_ratio;
    return report;
  }
};

}  // namespace

void register_builtin_tricrit_solvers(SolverRegistry& registry) {
  (void)registry.add(std::make_unique<ChainExactSolver>());
  (void)registry.add(std::make_unique<ChainGreedySolver>());
  (void)registry.add(std::make_unique<ChainBnbSolver>());
  (void)registry.add(std::make_unique<ForkPolySolver>());
  (void)registry.add(std::make_unique<HeuristicSolver<HeuristicKind::kUniform>>());
  (void)registry.add(std::make_unique<HeuristicSolver<HeuristicKind::kSlack>>());
  (void)registry.add(std::make_unique<HeuristicSolver<HeuristicKind::kBestOf>>());
  (void)registry.add(std::make_unique<VddAdaptSolver>());
}

}  // namespace easched::api
