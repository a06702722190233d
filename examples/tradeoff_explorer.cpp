// Trade-off explorer: the engine façade end to end on a small pipeline.
//
//   $ ./examples/tradeoff_explorer
//
// Submits the energy-vs-deadline Pareto sweep of a mapped DAG (BI-CRIT)
// and the energy-vs-reliability sweep of the same instance (TRI-CRIT) as
// two *concurrent* engine jobs — the deadline sweep streaming its points
// through the observer as they are discovered — then runs a two-solver
// comparison showing which algorithm dominates where. Everything funnels
// through the engine's shared SolveCache, so the second pass over any
// point is a lookup, not a solve. Finishes by exporting the BI-CRIT
// frontier as CSV.

#include <iostream>
#include <mutex>

#include "core/problem.hpp"
#include "engine/engine.hpp"
#include "frontier/analytics.hpp"
#include "frontier/compare.hpp"
#include "frontier/export.hpp"
#include "frontier/frontier.hpp"
#include "sched/list_scheduler.hpp"

int main() {
  using namespace easched;

  // A 3-stage pipeline with a fan-out middle stage, mapped on 3 processors.
  graph::Dag dag;
  const auto ingest = dag.add_task(2.0, "ingest");
  const auto a = dag.add_task(4.0, "analyze-a");
  const auto b = dag.add_task(3.0, "analyze-b");
  const auto c = dag.add_task(5.0, "analyze-c");
  const auto publish = dag.add_task(1.0, "publish");
  dag.add_edge(ingest, a);
  dag.add_edge(ingest, b);
  dag.add_edge(ingest, c);
  dag.add_edge(a, publish);
  dag.add_edge(b, publish);
  dag.add_edge(c, publish);

  const auto mapping = sched::list_schedule(dag, 3, sched::PriorityPolicy::kCriticalPath);
  const auto speeds = model::SpeedModel::continuous(0.2, 1.0);

  // One engine for the whole session: every curve below funnels its
  // solves through its shared cache, and repeated points (the comparison
  // re-visits the sweep grid) come back for free.
  auto created = engine::Engine::create();
  if (!created.is_ok()) {
    std::cerr << "engine creation failed: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();
  frontier::FrontierOptions options;
  options.initial_points = 7;
  options.max_points = 19;

  // 1 + 2 submitted together: the engine runs both trade-off curves as
  //    concurrent jobs on its worker pool.
  //
  // 1. BI-CRIT: how much energy does each unit of deadline slack buy?
  //    The observer streams each point as the sweep discovers it —
  //    exactly what an incremental plot (or an early-stopping driver)
  //    would consume.
  core::Problem bicrit(dag, mapping, speeds, 30.0);
  std::mutex stream_mutex;
  auto deadline_query = engine::FrontierQuery::deadline(bicrit, 8.0, 30.0, options);
  deadline_query.observer = [&stream_mutex](const frontier::FrontierPoint& p) {
    std::lock_guard<std::mutex> lock(stream_mutex);
    std::cout << "  streamed: D = " << p.constraint << "  ->  E = " << p.energy
              << "  [" << p.solver << "]\n";
  };
  std::cout << "energy vs deadline, streaming as discovered:\n";
  auto deadline_job = eng.submit(std::move(deadline_query));

  // 2. TRI-CRIT: the price of reliability at a fixed deadline. Sweeping
  //    the threshold speed frel shows energy climbing as the reliability
  //    requirement tightens (re-executions appear and speeds rise).
  const model::ReliabilityModel rel = model::default_reliability(0.2, 1.0, 0.9);
  core::Problem tricrit(dag, mapping, speeds, rel, 24.0);
  auto reliability_job =
      eng.submit(engine::FrontierQuery::reliability(tricrit, 0.3, 0.9, options));

  const auto& deadline_curve = deadline_job.get();
  std::cout << "\nfinal deadline curve (" << deadline_curve.points.size()
            << " Pareto points, " << deadline_curve.evaluated << " evaluations, "
            << deadline_curve.infeasible << " infeasible):\n";
  for (const auto& p : deadline_curve.points) {
    std::cout << "  D = " << p.constraint << "  ->  E = " << p.energy << "  ["
              << p.solver << "]\n";
  }
  const auto summary = frontier::summarize(deadline_curve);
  std::cout << "area under curve: " << summary.auc
            << ", hypervolume: " << summary.hypervolume << "\n";

  const auto& reliability_curve = reliability_job.get();
  std::cout << "\nenergy vs reliability threshold (deadline fixed at 24):\n";
  for (const auto& p : reliability_curve.points) {
    std::cout << "  frel = " << p.constraint << "  ->  E = " << p.energy << "  ["
              << p.solver << "]\n";
  }

  // 3. Which solver dominates where? On DISCRETE speeds the exact branch
  //    & bound and the greedy rounding heuristic sweep the same axis: the
  //    greedy matches where rounding is benign and B&B pulls ahead where
  //    the level choice gets combinatorial.
  core::Problem discrete(dag, mapping,
                         model::SpeedModel::discrete(model::xscale_levels()),
                         30.0);
  const auto comparison =
      eng.compare(engine::FrontierQuery::deadline(discrete, 8.0, 30.0, options),
                  {"discrete-bnb", "discrete-greedy"});
  std::cout << "\ndominance segments (deadline axis):\n";
  for (const auto& seg : comparison.segments) {
    std::cout << "  [" << seg.lo << ", " << seg.hi << "] -> " << seg.solver << "\n";
  }

  const auto stats = eng.cache_stats();
  std::cout << "\ncache: " << stats.entries << " entries, " << stats.hits << " hits, "
            << stats.misses << " misses\n";

  // 4. Export: the same curve a plotting script would consume.
  std::cout << "\nCSV export of the BI-CRIT frontier:\n";
  frontier::write_frontier_csv(deadline_curve, std::cout);
  return deadline_curve.points.empty() ? 1 : 0;
}
