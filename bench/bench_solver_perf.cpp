// Micro-benchmarks (google-benchmark): scaling of the numerical substrates
// (simplex, barrier, water-filling) and the core solvers. Not tied to a
// paper claim — regression tracking for the implementation itself.

#include <benchmark/benchmark.h>

#include "bicrit/continuous_dag.hpp"
#include "bicrit/vdd_lp.hpp"
#include "common/rng.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "opt/waterfill.hpp"
#include "sched/list_scheduler.hpp"
#include "tricrit/chain.hpp"

namespace {

using namespace easched;

double fmax_makespan(const graph::Dag& dag, const sched::Mapping& mapping, double fmax) {
  std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    d[static_cast<std::size_t>(t)] = dag.weight(t) / fmax;
  }
  return graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan;
}

void BM_Waterfill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  opt::WaterfillProblem p;
  for (std::size_t j = 0; j < n; ++j) {
    p.coef.push_back(rng.uniform(0.5, 20.0));
    p.lo.push_back(0.01);
    p.hi.push_back(10.0);
  }
  p.budget = static_cast<double>(n) * 0.5;
  for (auto _ : state) {
    auto sol = opt::waterfill(p);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_Waterfill)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_ContinuousIpm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(2);
  const auto dag = graph::make_random_dag(n, 0.15, {1.0, 5.0}, rng);
  const auto mapping = sched::list_schedule(dag, 4, sched::PriorityPolicy::kCriticalPath);
  const auto speeds = model::SpeedModel::continuous(0.1, 1.0);
  const double D = fmax_makespan(dag, mapping, 1.0) * 1.5;
  int newton_steps = 0;
  for (auto _ : state) {
    auto sol = bicrit::solve_continuous(dag, mapping, D, speeds);
    newton_steps = sol.is_ok() ? sol.value().newton_steps : -1;
    benchmark::DoNotOptimize(sol);
  }
  // The barrier's rows, as bicrit::solve_durations emits them: one per
  // edge of the reduced augmented graph, s + d <= D per sink, s >= 0 per
  // source and two duration bounds per task.
  const graph::Dag aug = mapping.augmented_graph(dag);
  int rows = graph::transitive_reduction(aug).value().num_edges() + 2 * n;
  for (graph::TaskId t = 0; t < n; ++t) {
    rows += (aug.out_degree(t) == 0 ? 1 : 0) + (aug.in_degree(t) == 0 ? 1 : 0);
  }
  state.counters["rows"] = rows;
  state.counters["newton_steps"] = newton_steps;
}
BENCHMARK(BM_ContinuousIpm)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_VddLpSimplex(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(3);
  const auto dag = graph::make_random_dag(n, 0.15, {1.0, 5.0}, rng);
  const auto mapping = sched::list_schedule(dag, 4, sched::PriorityPolicy::kCriticalPath);
  const auto vdd = model::SpeedModel::vdd_hopping(model::xscale_levels());
  const double D = fmax_makespan(dag, mapping, 1.0) * 1.5;
  for (auto _ : state) {
    auto sol = bicrit::solve_vdd_lp(dag, mapping, D, vdd);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_VddLpSimplex)->Arg(10)->Arg(20)->Arg(30)->Unit(benchmark::kMillisecond);

void BM_TriCritChainGreedy(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(4);
  const auto w = graph::random_weights(n, {0.5, 3.0}, rng);
  double total = 0.0;
  for (double x : w) total += x;
  const auto speeds = model::SpeedModel::continuous(0.2, 1.0);
  const model::ReliabilityModel rel(1e-5, 3.0, 0.2, 1.0, 0.8);
  const double D = total / 0.8 * 2.0;
  for (auto _ : state) {
    auto sol = tricrit::solve_chain_greedy(w, D, rel, speeds);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_TriCritChainGreedy)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

void BM_TriCritChainExact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  common::Rng rng(5);
  const auto w = graph::random_weights(n, {0.5, 3.0}, rng);
  double total = 0.0;
  for (double x : w) total += x;
  const auto speeds = model::SpeedModel::continuous(0.2, 1.0);
  const model::ReliabilityModel rel(1e-5, 3.0, 0.2, 1.0, 0.8);
  const double D = total / 0.8 * 2.0;
  for (auto _ : state) {
    auto sol = tricrit::solve_chain_exact(w, D, rel, speeds);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_TriCritChainExact)->Arg(8)->Arg(12)->Arg(16)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
