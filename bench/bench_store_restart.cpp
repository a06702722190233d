// E15: persistent solve-store — restart-with-store vs cold sweep.
//
// The production story the store exists for: a process sweeps frontiers,
// exits, and a fresh process replays the same traffic. Without the store
// the restart re-pays full solver cost; with it, load-on-open turns every
// probe into a cache hit. Three phases over the standard corpus:
//
//  * cold      — fresh cache, no store: the price of first traffic;
//  * populate  — fresh cache + write-through store: same solves, plus the
//                append cost (reported so the write-through tax is
//                visible, not gated — it is one sequential write per
//                fresh solve);
//  * restart   — fresh cache, the store reopened: the acceptance bar.
//                The replayed curves must be bit-identical to the cold
//                sweep, issue ZERO solver calls (cache misses == 0) and
//                run >= 5x faster than the cold sweep.
//
// With --json-out FILE the headline numbers are written as JSON so
// scripts/bench_snapshot.sh can fold them into the committed baseline.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench_util.hpp"
#include "engine/engine.hpp"

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

}  // namespace

int main(int argc, char** argv) {
  bench::banner("E15 store restart",
                "on-disk solve-store: restarts replay swept frontiers from the log",
                "restart-with-store must be >= 5x faster than the cold sweep,\n"
                "bit-identical, and issue zero solver calls; the write-through\n"
                "tax during population is reported for transparency");

  const auto corpus = bench::seeded_corpus(argc, argv, 15, /*tasks=*/14,
                                           /*processors=*/4,
                                           /*instances_per_family=*/2);
  const auto speeds = model::SpeedModel::continuous(0.05, 1.0);
  const std::string store_path =
      "/tmp/easched_bench_store_restart." + std::to_string(::getpid()) + ".log";
  std::remove(store_path.c_str());

  struct Sweep {
    std::string family;
    std::shared_ptr<const core::BiCritProblem> problem;
    frontier::FrontierResult cold;
  };
  std::vector<Sweep> sweeps;
  for (const auto& inst : corpus) {
    const double base = bench::fmax_makespan(inst.dag, inst.mapping, speeds.fmax());
    sweeps.push_back({inst.name,
                      std::make_shared<const core::BiCritProblem>(inst.dag, inst.mapping,
                                                                  speeds, base * 4.0),
                      {}});
  }
  frontier::FrontierOptions fopt;
  fopt.initial_points = 9;
  fopt.max_points = 25;

  const auto sweep_of = [&](engine::Engine& eng, const Sweep& s) {
    return eng.sweep(engine::FrontierQuery::deadline(s.problem, s.problem->deadline * 0.25,
                                                     s.problem->deadline, fopt));
  };
  // Each phase is a fresh Engine: its cache starts empty, and with a
  // store path the log is all that survives from the previous phase.
  const auto make_engine = [&](bool with_store) -> std::optional<engine::Engine> {
    engine::EngineConfig config;
    if (with_store) config.store_path = store_path;
    auto created = engine::Engine::create(std::move(config));
    if (!created.is_ok()) {
      std::cerr << "cannot create engine: " << created.status().to_string() << "\n";
      return std::nullopt;
    }
    return std::move(created).take();
  };

  // ---- cold: no persistence, first traffic pays everything ----------------
  double cold_ms = 0.0;
  {
    auto eng = make_engine(/*with_store=*/false);
    if (!eng) return 1;
    bench::Stopwatch sw;
    for (auto& s : sweeps) s.cold = sweep_of(*eng, s);
    cold_ms = sw.ms();
  }

  // ---- populate: same traffic, now writing through to the log -------------
  double populate_ms = 0.0;
  std::uint64_t store_bytes = 0;
  {
    auto eng = make_engine(/*with_store=*/true);
    if (!eng) return 1;
    bench::Stopwatch sw;
    for (const auto& s : sweeps) (void)sweep_of(*eng, s);
    populate_ms = sw.ms();
    store_bytes = eng->store()->stats().file_bytes;
  }

  // ---- restart: fresh process state, the log is all that survived ---------
  double restart_ms = 0.0;
  std::size_t restart_solver_calls = 0;
  std::size_t restart_hits = 0;
  std::size_t mismatches = 0;
  {
    auto eng = make_engine(/*with_store=*/true);
    if (!eng) return 1;
    bench::Stopwatch sw;
    common::Table table({"family", "points", "evaluated", "restart_hits", "identical"});
    for (auto& s : sweeps) {
      const auto replay = sweep_of(*eng, s);
      const bool identical = identical_curves(s.cold, replay);
      if (!identical) ++mismatches;
      table.add_row({s.family,
                     common::format_int(static_cast<long long>(replay.points.size())),
                     common::format_int(static_cast<long long>(replay.evaluated)),
                     common::format_int(static_cast<long long>(replay.cache_hits)),
                     identical ? "yes" : "NO"});
    }
    restart_ms = sw.ms();
    table.print(std::cout);
    const auto stats = eng->cache_stats();
    restart_solver_calls = stats.misses;
    restart_hits = stats.hits;
  }

  const double restart_speedup = restart_ms > 0.0 ? cold_ms / restart_ms : 0.0;
  std::cout << "\ncold sweep total:      " << common::format_fixed(cold_ms, 1)
            << " ms\npopulate (write-through): " << common::format_fixed(populate_ms, 1)
            << " ms (+" << common::format_pct(cold_ms > 0.0 ? populate_ms / cold_ms - 1.0 : 0.0)
            << " over cold; log " << store_bytes << " bytes)"
            << "\nrestart with store:    " << common::format_fixed(restart_ms, 1)
            << " ms, speedup "
            << (restart_ms > 0.0 ? common::format_ratio(restart_speedup) : "inf")
            << "\nrestart solver calls:  " << restart_solver_calls << " ("
            << restart_hits << " cache hits)"
            << "\nrestart == cold frontiers: " << (mismatches == 0 ? "yes" : "NO")
            << "\n";

  const bool ok = mismatches == 0 && restart_solver_calls == 0 &&
                  (restart_ms <= 0.0 || restart_speedup >= 5.0);

  if (const char* path = bench::json_out_path(argc, argv)) {
    std::ofstream out(path);
    out << "{\n"
        << "  \"cold_ms\": " << common::format_g(cold_ms) << ",\n"
        << "  \"populate_ms\": " << common::format_g(populate_ms) << ",\n"
        << "  \"restart_ms\": " << common::format_g(restart_ms) << ",\n"
        << "  \"restart_speedup\": " << common::format_g(restart_speedup) << ",\n"
        << "  \"restart_solver_calls\": " << restart_solver_calls << ",\n"
        << "  \"restart_identical\": " << (mismatches == 0 ? "true" : "false") << ",\n"
        << "  \"store_bytes\": " << store_bytes << "\n"
        << "}\n";
  }

  std::remove(store_path.c_str());
  std::cout << "\nShapes: restart >= 5x over cold with zero solver calls and\n"
               "bit-identical curves; the write-through tax stays small.\n";
  return ok ? 0 : 1;
}
