// E14: frontier engine + SolveCache — Pareto sweeps over the standard
// corpus, cold (every point solved) vs warm (every point a cache hit),
// plus the two ISSUE-3 hot-path scenarios:
//
//  * perturbed-instance resweep: one task weight changes, the cold sweep
//    of the perturbed instance is the first traffic that pays for the new
//    solves, and Engine::resweep then refreshes the curve from
//    the stale one at cache speed — bit-identical to the cold sweep (the
//    replay runs the very same adaptive algorithm) and >= 5x faster (the
//    acceptance bar; in practice orders of magnitude once the cache has
//    seen the perturbed instance).
//  * warm-lookup scaling: the digest-keyed POD CacheKey makes a warm
//    probe O(1) in the instance size — per-probe warm time must stay
//    flat as the task count grows (the old full-string fingerprint
//    re-serialised the whole instance on every probe).
//
// With --json-out FILE the headline medians are also written as
// BENCH_frontier.json-style JSON so scripts/bench_snapshot.sh can record
// a machine-readable perf baseline for future PRs.

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "engine/engine.hpp"
#include "frontier/analytics.hpp"
#include "sched/list_scheduler.hpp"

namespace {

using namespace easched;

bool identical_curves(const frontier::FrontierResult& a,
                      const frontier::FrontierResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].constraint != b.points[i].constraint ||
        a.points[i].energy != b.points[i].energy ||
        a.points[i].makespan != b.points[i].makespan ||
        a.points[i].solver != b.points[i].solver) {
      return false;
    }
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::shared_ptr<const core::Problem> chain_problem(int tasks,
                                                   const model::SpeedModel& speeds) {
  graph::Dag dag;
  for (int i = 0; i < tasks; ++i) {
    dag.add_task(1.0 + 0.1 * static_cast<double>(i % 7));
    if (i > 0) dag.add_edge(i - 1, i);
  }
  const auto mapping = sched::list_schedule(dag, 1, sched::PriorityPolicy::kCriticalPath);
  const double base = bench::fmax_makespan(dag, mapping, speeds.fmax());
  return std::make_shared<const core::Problem>(std::move(dag), mapping, speeds,
                                               base * 4.0);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner("E14 frontier sweeps",
                "Pareto trade-off curves with memoized solves",
                "cold vs warm sweep wall time per family; warm must be >= 5x faster;\n"
                "resweep of a one-weight-perturbed instance must be >= 5x faster than\n"
                "its cold sweep and bit-identical; warm lookups must stay flat in n");

  const auto corpus = bench::seeded_corpus(argc, argv, 14, /*tasks=*/14,
                                           /*processors=*/4,
                                           /*instances_per_family=*/2);
  const auto speeds = model::SpeedModel::continuous(0.05, 1.0);

  auto created = engine::Engine::create();
  if (!created.is_ok()) {
    std::cerr << "cannot create engine: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();
  frontier::FrontierOptions fopt;
  fopt.initial_points = 9;
  fopt.max_points = 25;

  // Every sweep spans [D/4, D] of its problem's anchor deadline D.
  const auto sweep_query = [&](std::shared_ptr<const core::Problem> problem,
                               const frontier::FrontierOptions& options) {
    const double deadline = problem->deadline;
    return engine::FrontierQuery::deadline(std::move(problem), deadline * 0.25, deadline,
                                           options);
  };

  struct Sweep {
    std::string family;
    std::shared_ptr<const core::Problem> problem;
    frontier::FrontierResult cold;
  };
  std::vector<Sweep> sweeps;
  for (const auto& inst : corpus) {
    const double base = bench::fmax_makespan(inst.dag, inst.mapping, speeds.fmax());
    sweeps.push_back({inst.name,
                      std::make_shared<const core::Problem>(inst.dag, inst.mapping,
                                                            speeds, base * 4.0),
                      {}});
  }

  bench::Stopwatch cold_sw;
  for (auto& s : sweeps) s.cold = eng.sweep(sweep_query(s.problem, fopt));
  const double cold_ms = cold_sw.ms();

  bench::Stopwatch warm_sw;
  std::size_t mismatches = 0;
  common::Table table({"family", "points", "evaluated", "infeasible", "cold_ms",
                       "warm_ms", "warm_hits"});
  for (auto& s : sweeps) {
    bench::Stopwatch sw;
    const auto warm = eng.sweep(sweep_query(s.problem, fopt));
    const double warm_point_ms = sw.ms();
    if (!identical_curves(s.cold, warm)) ++mismatches;
    table.add_row({s.family,
                   common::format_int(static_cast<long long>(s.cold.points.size())),
                   common::format_int(static_cast<long long>(s.cold.evaluated)),
                   common::format_int(static_cast<long long>(s.cold.infeasible)),
                   common::format_fixed(s.cold.wall_ms, 2),
                   common::format_fixed(warm_point_ms, 2),
                   common::format_int(static_cast<long long>(warm.cache_hits))});
  }
  const double warm_ms = warm_sw.ms();
  table.print(std::cout);

  const auto stats = eng.cache_stats();
  std::cout << "\ncold sweep total: " << common::format_fixed(cold_ms, 1)
            << " ms, warm sweep total: " << common::format_fixed(warm_ms, 1)
            << " ms, speedup: "
            << (warm_ms > 0.0 ? common::format_ratio(cold_ms / warm_ms) : "inf")
            << "\ncache: " << stats.entries << " entries, " << stats.hits << " hits / "
            << stats.misses << " misses (hit rate "
            << common::format_pct(stats.hit_rate()) << "), " << stats.evictions
            << " evictions\n"
            << "warm == cold frontiers: " << (mismatches == 0 ? "yes" : "NO") << "\n";

  // ---- Perturbed-instance resweep ----------------------------------------
  // One task weight moves by 0.3%: every cached entry of the original
  // instance is (correctly) dead — the digest changed — so the perturbed
  // curve needs real solves. The cold sweep is that first traffic; the
  // resweep, seeded with the *stale* curve, then re-serves the updated
  // frontier from the cache, re-solving only probes the replay's adaptive
  // refinement places differently. Bit-identity is checked point by point.
  std::cout << "\nperturbed-instance resweep (one weight * 1.003):\n\n";
  common::Table ptable({"family", "cold_ms", "resweep_ms", "speedup", "prefetched",
                        "replay_hits", "identical"});
  double cold_p_total = 0.0;
  double resweep_total = 0.0;
  std::size_t resweep_mismatches = 0;
  for (auto& s : sweeps) {
    auto perturbed = std::make_shared<core::Problem>(*s.problem);
    perturbed->dag.set_weight(0, perturbed->dag.weight(0) * 1.003);

    bench::Stopwatch cold_p_sw;
    const auto cold_p = eng.sweep(sweep_query(perturbed, fopt));
    const double cold_p_ms = cold_p_sw.ms();

    bench::Stopwatch resweep_sw;
    const auto warm_p = eng.resweep({s.cold, sweep_query(perturbed, fopt)});
    const double resweep_ms = resweep_sw.ms();

    const bool identical = identical_curves(cold_p, warm_p);
    if (!identical) ++resweep_mismatches;
    cold_p_total += cold_p_ms;
    resweep_total += resweep_ms;
    ptable.add_row({s.family, common::format_fixed(cold_p_ms, 2),
                    common::format_fixed(resweep_ms, 2),
                    resweep_ms > 0.0 ? common::format_ratio(cold_p_ms / resweep_ms)
                                     : "inf",
                    common::format_int(static_cast<long long>(warm_p.prefetched)),
                    common::format_int(static_cast<long long>(warm_p.cache_hits)),
                    identical ? "yes" : "NO"});
  }
  ptable.print(std::cout);
  const double resweep_speedup =
      resweep_total > 0.0 ? cold_p_total / resweep_total : 0.0;
  std::cout << "\nperturbed cold total: " << common::format_fixed(cold_p_total, 1)
            << " ms, resweep total: " << common::format_fixed(resweep_total, 1)
            << " ms, speedup: "
            << (resweep_total > 0.0 ? common::format_ratio(resweep_speedup) : "inf")
            << "\nresweep == perturbed cold frontiers: "
            << (resweep_mismatches == 0 ? "yes" : "NO") << "\n";

  // First-touch variant for transparency: a resweep that is itself the
  // first traffic on a (differently) perturbed instance pays for the real
  // solves inside its prefetch, so its win over a cold sweep is only the
  // batching of the adaptive rounds — report it, don't gate on it.
  {
    auto perturbed2 = std::make_shared<core::Problem>(*sweeps.front().problem);
    perturbed2->dag.set_weight(1, perturbed2->dag.weight(1) * 1.003);
    bench::Stopwatch first_touch_sw;
    const auto first = eng.resweep({sweeps.front().cold, sweep_query(perturbed2, fopt)});
    std::cout << "first-touch resweep (no prior traffic on the instance): "
              << common::format_fixed(first_touch_sw.ms(), 2) << " ms, "
              << first.prefetched << " probes solved in one parallel batch\n";
  }

  // ---- Warm-lookup scaling with the instance size ------------------------
  // Chains keep the solver cheap at any n, isolating the lookup path. A
  // warm probe builds a POD key from the per-sweep interned context:
  // per-probe time must stay flat as n grows (the old fingerprint key
  // re-serialised all n weights per probe).
  std::cout << "\nwarm-lookup scaling (chain instances, per-probe warm cost):\n\n";
  common::Table ltable({"tasks", "evaluated", "warm_ms", "us_per_probe"});
  std::vector<std::pair<int, double>> scaling;
  // A denser grid amortises the once-per-sweep instance intern (the one
  // intentionally O(n) step of a warm sweep) over more probes, so the
  // per-probe figure isolates the per-probe lookup path.
  frontier::FrontierOptions lopt = fopt;
  lopt.initial_points = 129;
  lopt.max_points = 129;
  for (int tasks : {8, 32, 128, 512}) {
    const auto problem = chain_problem(tasks, speeds);
    auto lcreated = engine::Engine::create();  // a fresh, empty cache per size
    if (!lcreated.is_ok()) return 1;
    engine::Engine& leng = lcreated.value();
    const auto cold_l = leng.sweep(sweep_query(problem, lopt));
    std::vector<double> runs;
    std::size_t evaluated = cold_l.evaluated;
    for (int rep = 0; rep < 5; ++rep) {
      bench::Stopwatch sw;
      const auto warm_l = leng.sweep(sweep_query(problem, lopt));
      runs.push_back(sw.ms());
      evaluated = warm_l.evaluated;
    }
    const double warm_l_ms = median(runs);
    const double us_per_probe =
        evaluated > 0 ? warm_l_ms * 1000.0 / static_cast<double>(evaluated) : 0.0;
    scaling.emplace_back(tasks, us_per_probe);
    ltable.add_row({common::format_int(tasks),
                    common::format_int(static_cast<long long>(evaluated)),
                    common::format_fixed(warm_l_ms, 3), common::format_fixed(us_per_probe, 2)});
  }
  ltable.print(std::cout);
  // Flatness: 64x more tasks may cost at most 2.5x per probe. An O(n)
  // per-probe regression (the old full-string fingerprint, or a report
  // copy) shows up as >= 10x here, so the gate has real teeth while
  // leaving headroom for timer jitter on sub-microsecond baselines (the
  // 0.25 us floor keeps a noisy tiny baseline from failing a flat curve).
  const double base_probe = std::max(scaling.front().second, 0.25);
  const bool lookup_flat = scaling.back().second <= 2.5 * base_probe;
  std::cout << "\nwarm lookup flat in task count (512 vs 8 tasks <= 2.5x): "
            << (lookup_flat ? "yes" : "NO") << "\n";

  // Multi-solver comparison on one representative instance: the general
  // interior-point solver vs the chain closed form over the same deadline
  // axis (the corpus' first family is a chain, so both apply).
  const auto comparison = eng.compare(sweep_query(sweeps.front().problem, fopt),
                                      {"continuous-ipm", "closed-form-chain"});
  std::cout << "\nsolver comparison on '" << sweeps.front().family << "':\n\n";
  common::Table cmp({"solver", "points", "energy_min", "auc", "hypervolume"});
  for (const auto& sf : comparison.solvers) {
    cmp.add_row({sf.solver, common::format_int(static_cast<long long>(sf.summary.points)),
                 common::format_g(sf.summary.energy.min()),
                 common::format_g(sf.summary.auc),
                 common::format_g(sf.summary.hypervolume)});
  }
  cmp.print(std::cout);
  for (const auto& seg : comparison.segments) {
    std::cout << "  [" << common::format_g(seg.lo) << ", " << common::format_g(seg.hi)
              << "] -> " << seg.solver << "\n";
  }

  const bool warm_ok = mismatches == 0 && (warm_ms <= 0.0 || cold_ms / warm_ms >= 5.0);
  const bool resweep_ok =
      resweep_mismatches == 0 && (resweep_total <= 0.0 || resweep_speedup >= 5.0);

  if (const char* path = bench::json_out_path(argc, argv)) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"cold_ms\": " << common::format_g(cold_ms) << ",\n"
        << "  \"warm_ms\": " << common::format_g(warm_ms) << ",\n"
        << "  \"warm_speedup\": " << common::format_g(warm_ms > 0.0 ? cold_ms / warm_ms : 0.0)
        << ",\n"
        << "  \"perturbed_cold_ms\": " << common::format_g(cold_p_total) << ",\n"
        << "  \"resweep_ms\": " << common::format_g(resweep_total) << ",\n"
        << "  \"resweep_speedup\": " << common::format_g(resweep_speedup) << ",\n"
        << "  \"resweep_identical\": " << (resweep_mismatches == 0 ? "true" : "false")
        << ",\n"
        << "  \"warm_lookup_us_per_probe\": {";
    for (std::size_t i = 0; i < scaling.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << scaling[i].first
          << "\": " << common::format_g(scaling[i].second);
    }
    out << "},\n"
        << "  \"warm_lookup_flat\": " << (lookup_flat ? "true" : "false") << "\n"
        << "}\n";
  }

  std::cout << "\nShapes: warm/cold and resweep/cold speedups >= 5x (acceptance bars);\n"
               "resweep curves bit-identical to the perturbed cold sweeps; warm\n"
               "per-probe lookup flat as the task count grows.\n";
  return warm_ok && resweep_ok && lookup_flat ? 0 : 1;
}
