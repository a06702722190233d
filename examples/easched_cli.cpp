// Command-line driver: solve BI-CRIT/TRI-CRIT for DAGs read from the text
// format of graph/io.hpp — the entry point a downstream user scripts
// against without writing C++. Runs on the engine façade
// (engine/engine.hpp): one engine::Engine per invocation owns the solver
// registry, the SolveCache, the optional persistent store and the worker
// pool; --threads sets that pool's size everywhere. Any registered solver
// can be requested by name, and with no --solver the registry
// auto-selects by capability.
//
// Usage:
//   easched_cli <dag-file>... --deadline D [options]
//     Solves each file; with several files the whole set runs as one
//     batch query on the engine pool and prints one table. With --jobs
//     each file is submitted as its own asynchronous job instead
//     (Engine::submit), exercising per-job futures.
//   easched_cli frontier <dag-file> [options]
//     Sweeps a Pareto trade-off curve with the frontier engine:
//       --dmin A --dmax B            BI-CRIT energy-vs-deadline sweep
//       --dmin A --dmax B --frel F   TRI-CRIT deadline sweep at fixed frel
//       --deadline D --rmin A --rmax B
//                                    TRI-CRIT energy-vs-reliability sweep
//       --solvers n1,n2,...          multi-solver comparison (who wins where)
//       --points N / --max-points M  initial grid / refinement budget
//       --cache-cap N                LRU-cap the SolveCache at N entries
//                                    (default 0 = unbounded)
//       --stream                     print each frontier point as the sweep
//                                    discovers it (the engine's streaming
//                                    observer; goes to stderr under
//                                    --csv/--json so stdout stays clean)
//   easched_cli frontier <old.dag> <new.dag> --resweep [options]
//     Incremental update: sweeps the old instance, then resweeps the new
//     (slightly changed) instance warm-started from the old curve — the
//     printed frontier is bit-identical to a cold sweep of the new file.
//   easched_cli store <stat|verify|compact> <log-file>
//     Offline maintenance of a persistent solve-store log: record/byte
//     counts (stat), a full CRC + payload decode scan (verify), or a
//     rewrite dropping superseded and orphaned records (compact).
//   easched_cli serve --listen host:port [options]
//     Long-lived scheduling daemon (serve/server.hpp): accepts solve,
//     sweep and stat requests over the serve protocol, multiplexed onto
//     one shared engine. Admission control via --max-queued (global
//     engine queue cap; over-cap submits shed with OVERLOADED) and
//     --tenant-quota (per-tenant in-flight cap). Every engine flag
//     (--threads, --store, --warm-start, cache caps) applies — a daemon
//     with a store gives every connecting client cross-process warm
//     starts. The daemon's SolveCache is byte-capped at 4 MiB unless
//     --cache-cap-bytes says otherwise (0 = unbounded), so its decoded
//     answers stay bounded however long it runs; the store keeps only an
//     offset index. SIGINT/SIGTERM shut it down cleanly.
//   easched_cli remote <host:port> solve <dag-file> --deadline D [options]
//   easched_cli remote <host:port> sweep <dag-file> --dmin A --dmax B [options]
//   easched_cli remote <host:port> stat [--deep [--json]]
//     Client side: ship the problem to a daemon (--tenant picks the
//     isolation namespace; defaults to "default") and print the response
//     in the same shape as the local subcommands. `stat --deep` also
//     scrapes the daemon's full metric registry (Prometheus-style text,
//     or the JSON document with --json).
//   easched_cli metrics <dag-file>... --deadline D [options]
//     Runs the solves like the default mode, then dumps the engine's
//     metric registry to stdout (text exposition, or JSON with --json)
//     instead of the per-solve reports — the local inspection twin of
//     `remote stat --deep`. With --simulate it runs the online-simulator
//     corpus (same flags as the simulate subcommand) instead of dag
//     solves, so the easched_sim_* series (labelled policy=...) are
//     scrape-able like everything else.
//   easched_cli simulate [options]
//     Online arrival-stream simulation (src/sim): seeded streams of SLA
//     task classes replayed under the classic online DVFS policies
//     (static-edf, cc-edf, la-edf, sleep-edf), each scored against the
//     clairvoyant offline oracle (the exact solvers on the realized
//     trace). Prints per-stream and per-policy energy competitive
//     ratios and deadline-miss rates; bit-identical across runs and
//     thread counts for the same seed.
//       --seed N             corpus seed (default 42)
//       --streams S          independent arrival streams (default 4)
//       --horizon T          arrival cutoff per stream (default 120)
//       --policies a,b,...   policy subset (default: all four)
//       --periodic           strictly periodic arrivals (default Poisson)
//       --ladder             the 7-level discrete frequency/voltage
//                            ladder (with --vdd: VDD-HOPPING semantics);
//                            default: continuous [fmin, fmax]
//       --static-power P     awake power draw (default 0.05)
//       --wake-energy E      sleep->awake transition cost (default 0.5)
//       --out FILE           per-cell table via the obs writers
//                            (.json for JSON, anything else CSV, %.17g)
//
// Observability options (every mode with an engine):
//   --no-metrics          disable the engine's metric registry (results
//                         are bit-identical either way)
//   --trace-out FILE      retain per-job lifecycle spans and write them as
//                         Chrome trace_event JSON (load in a trace viewer)
//
// Persistence options (frontier mode):
//   --store FILE          back the SolveCache with an on-disk log: entries
//                         load on open and fresh solves write through, so
//                         a restarted process replays previous sweeps with
//                         zero solver calls
//   --store-mode M        both (default) | write-through | load-on-open
//   --warm-start          on a full miss, seed the continuous solver from
//                         the nearest stored schedule of the same instance
//   --cache-cap-bytes N   LRU-cap the SolveCache at ~N resident bytes
//                         (default 0 = unbounded; serve: 4 MiB)
//
// Shared options:
//   --processors P        platform size (default 2)
//   --fmin F --fmax F     continuous speed range (default 0.2 / 1.0)
//   --levels f1,f2,...    use a DISCRETE level set instead
//   --vdd                 treat the level set as VDD-HOPPING
//   --frel F              enable TRI-CRIT with threshold speed F
//   --lambda0 L --dexp D  reliability parameters (default 1e-5 / 3)
//   --solver NAME         registry solver name (default: auto-select)
//   --slack S             deadline-slack policy (scales --deadline, and in
//                         frontier mode the --dmin/--dmax axis; default 1)
//   --threads N           size of the one worker pool used for batches,
//                         jobs, sweeps and comparisons
//   --jobs                solve mode: one async engine job per file
//   --list-solvers        print the registry and exit
//   --gantt               print the timeline (single solve only)
//   --csv                 CSV output (timeline, batch table, or frontier)
//   --json                JSON output (frontier and comparison modes)
//
// Examples:
//   ./examples/easched_cli pipeline.dag --deadline 12 --frel 0.8 --gantt
//   ./examples/easched_cli frontier pipeline.dag --dmin 8 --dmax 40 --csv
//   ./examples/easched_cli frontier pipeline.dag --deadline 30
//       --rmin 0.4 --rmax 0.95 --solvers best-of,heuristic-A

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "api/batch.hpp"
#include "api/registry.hpp"
#include "common/table.hpp"
#include "core/problem.hpp"
#include "engine/engine.hpp"
#include "frontier/analytics.hpp"
#include "frontier/compare.hpp"
#include "frontier/export.hpp"
#include "frontier/frontier.hpp"
#include "graph/io.hpp"
#include "model/ladder.hpp"
#include "obs/export.hpp"
#include "sched/gantt.hpp"
#include "sched/list_scheduler.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/oracle.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"
#include "sim/stream.hpp"
#include "store/store.hpp"

namespace {

using namespace easched;

std::vector<double> parse_levels(const std::string& arg) {
  std::vector<double> out;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

std::vector<std::string> parse_names(const std::string& arg) {
  std::vector<std::string> out;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " <dag-file>... --deadline D [options]\n"
      << "       " << argv0 << " frontier <dag-file> --dmin A --dmax B [options]\n"
      << "       " << argv0
      << " frontier <dag-file> --deadline D --rmin A --rmax B [options]\n"
      << "       " << argv0 << " store <stat|verify|compact> <log-file>\n"
      << "       " << argv0 << " serve --listen host:port [--max-queued N]\n"
      << "         [--tenant-quota N] [--job-deadline-ms MS] [engine options]\n"
      << "       " << argv0
      << " remote <host:port> <solve|sweep|stat> [<dag-file>] [--tenant T] [--deep]\n"
      << "       " << argv0 << " metrics <dag-file>... --deadline D [--json]\n"
      << "       " << argv0 << " metrics --simulate [simulate options] [--json]\n"
      << "       " << argv0
      << " simulate [--seed N] [--streams S] [--horizon T] [--policies a,b]\n"
      << "         [--periodic] [--ladder [--vdd]] [--static-power P]\n"
      << "         [--wake-energy E] [--threads N] [--out FILE]\n"
      << "  [--processors P] [--fmin F] [--fmax F] [--levels f1,f2,...] [--vdd]\n"
      << "  [--frel F] [--lambda0 L] [--dexp D] [--solver NAME] [--solvers n1,n2]\n"
      << "  [--slack S] [--threads N] [--points N] [--max-points M]\n"
      << "  [--cache-cap N] [--cache-cap-bytes N] [--store FILE] [--store-mode M]\n"
      << "  [--warm-start] [--resweep] [--jobs] [--stream]\n"
      << "  [--no-metrics] [--trace-out F] [--list-solvers] [--gantt] [--csv] [--json]\n";
  return 2;
}

int list_solvers() {
  const auto& registry = api::SolverRegistry::instance();
  std::cout << "registered solvers (name / problem / exact / auto):\n";
  for (const auto& name : registry.names()) {
    const auto* solver = registry.find(name);
    const auto& caps = solver->capabilities();
    std::cout << "  " << name << "  [" << api::to_string(caps.problem) << "] "
              << (caps.exact ? "exact" : "heuristic") << " "
              << (caps.auto_priority >= 0 ? "auto-selectable" : "explicit-only")
              << "  — " << caps.paper_ref << "\n";
  }
  return 0;
}

/// Everything the two subcommands share, parsed in one pass.
struct CliArgs {
  std::vector<std::string> dag_paths;
  std::string solver_name;
  std::vector<std::string> solvers;  // frontier comparison mode
  double deadline = -1.0, fmin = 0.2, fmax = 1.0, lambda0 = 1e-5, dexp = 3.0;
  std::optional<double> frel;
  std::optional<std::vector<double>> levels;
  std::optional<double> dmin, dmax, rmin, rmax;
  bool vdd = false, gantt = false, csv = false, json = false, resweep = false;
  bool warm_start = false, jobs = false, stream = false;
  int processors = 2;
  int points = 9, max_points = 33;
  std::size_t threads = 0;
  std::size_t cache_cap = 0;
  std::optional<std::size_t> cache_cap_bytes;  // unset: the mode's default
  std::string store_path;
  std::string store_mode = "both";  // both | write-through | load-on-open
  bool no_metrics = false;  // disable the engine's metric registry
  bool deep = false;        // remote stat: also scrape the metric registry
  std::string trace_out;    // Chrome trace_event JSON destination
  api::SolveOptions options;
  // serve / remote mode
  std::string listen;              // host:port the daemon binds
  std::string tenant = "default";  // remote: cache/store isolation namespace
  std::size_t max_queued = 0;      // engine admission cap (0 = unbounded)
  std::size_t tenant_quota = 0;    // per-tenant in-flight cap (0 = unbounded)
  double job_deadline_ms = 0.0;    // per-request wall-clock deadline
  // simulate mode (src/sim)
  std::uint64_t sim_seed = 42;     // corpus seed
  int streams = 4;                 // independent arrival streams
  double horizon = 120.0;          // arrival cutoff per stream
  std::string policies;            // comma-separated subset; empty = all
  bool periodic = false;           // strictly periodic arrivals
  bool ladder = false;             // the 7-level discrete DVFS ladder
  double static_power = 0.05;      // awake power draw
  double wake_energy = 0.5;        // sleep -> awake transition cost
  std::string sim_out;             // per-cell table destination (CSV/JSON)
  bool simulate = false;           // metrics mode: run the sim corpus
};

/// Parses argv[first..); returns false (after printing) on a bad flag.
bool parse_args(int argc, char** argv, int first, CliArgs& args) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--deadline") {
      args.deadline = std::stod(next());
    } else if (arg == "--processors") {
      args.processors = std::stoi(next());
    } else if (arg == "--fmin") {
      args.fmin = std::stod(next());
    } else if (arg == "--fmax") {
      args.fmax = std::stod(next());
    } else if (arg == "--levels") {
      args.levels = parse_levels(next());
    } else if (arg == "--vdd") {
      args.vdd = true;
    } else if (arg == "--frel") {
      args.frel = std::stod(next());
    } else if (arg == "--lambda0") {
      args.lambda0 = std::stod(next());
    } else if (arg == "--dexp") {
      args.dexp = std::stod(next());
    } else if (arg == "--solver") {
      args.solver_name = next();
    } else if (arg == "--solvers") {
      args.solvers = parse_names(next());
    } else if (arg == "--slack") {
      args.options.deadline_slack = std::stod(next());
    } else if (arg == "--threads") {
      const int n = std::stoi(next());
      if (n < 1) {
        std::cerr << "--threads must be >= 1\n";
        return false;
      }
      args.threads = static_cast<std::size_t>(n);
    } else if (arg == "--dmin") {
      args.dmin = std::stod(next());
    } else if (arg == "--dmax") {
      args.dmax = std::stod(next());
    } else if (arg == "--rmin") {
      args.rmin = std::stod(next());
    } else if (arg == "--rmax") {
      args.rmax = std::stod(next());
    } else if (arg == "--points") {
      args.points = std::stoi(next());
    } else if (arg == "--max-points") {
      args.max_points = std::stoi(next());
    } else if (arg == "--cache-cap") {
      const long long cap = std::stoll(next());
      if (cap < 0) {
        std::cerr << "--cache-cap must be >= 0\n";
        return false;
      }
      args.cache_cap = static_cast<std::size_t>(cap);
    } else if (arg == "--cache-cap-bytes") {
      const long long cap = std::stoll(next());
      if (cap < 0) {
        std::cerr << "--cache-cap-bytes must be >= 0\n";
        return false;
      }
      args.cache_cap_bytes = static_cast<std::size_t>(cap);
    } else if (arg == "--store") {
      args.store_path = next();
    } else if (arg == "--store-mode") {
      args.store_mode = next();
      if (args.store_mode != "both" && args.store_mode != "write-through" &&
          args.store_mode != "load-on-open") {
        std::cerr << "--store-mode must be both, write-through or load-on-open\n";
        return false;
      }
    } else if (arg == "--warm-start") {
      args.warm_start = true;
    } else if (arg == "--no-metrics") {
      args.no_metrics = true;
    } else if (arg == "--trace-out") {
      args.trace_out = next();
    } else if (arg == "--deep") {
      args.deep = true;
    } else if (arg == "--listen") {
      args.listen = next();
    } else if (arg == "--tenant") {
      args.tenant = next();
    } else if (arg == "--max-queued") {
      const long long cap = std::stoll(next());
      if (cap < 0) {
        std::cerr << "--max-queued must be >= 0\n";
        return false;
      }
      args.max_queued = static_cast<std::size_t>(cap);
    } else if (arg == "--tenant-quota") {
      const long long cap = std::stoll(next());
      if (cap < 0) {
        std::cerr << "--tenant-quota must be >= 0\n";
        return false;
      }
      args.tenant_quota = static_cast<std::size_t>(cap);
    } else if (arg == "--job-deadline-ms") {
      args.job_deadline_ms = std::stod(next());
    } else if (arg == "--seed") {
      args.sim_seed = std::stoull(next());
    } else if (arg == "--streams") {
      args.streams = std::stoi(next());
      if (args.streams < 1) {
        std::cerr << "--streams must be >= 1\n";
        return false;
      }
    } else if (arg == "--horizon") {
      args.horizon = std::stod(next());
      if (args.horizon <= 0.0) {
        std::cerr << "--horizon must be positive\n";
        return false;
      }
    } else if (arg == "--policies") {
      args.policies = next();
    } else if (arg == "--periodic") {
      args.periodic = true;
    } else if (arg == "--ladder") {
      args.ladder = true;
    } else if (arg == "--static-power") {
      args.static_power = std::stod(next());
      if (args.static_power < 0.0) {
        std::cerr << "--static-power must be >= 0\n";
        return false;
      }
    } else if (arg == "--wake-energy") {
      args.wake_energy = std::stod(next());
      if (args.wake_energy < 0.0) {
        std::cerr << "--wake-energy must be >= 0\n";
        return false;
      }
    } else if (arg == "--out") {
      args.sim_out = next();
    } else if (arg == "--simulate") {
      args.simulate = true;
    } else if (arg == "--resweep") {
      args.resweep = true;
    } else if (arg == "--jobs") {
      args.jobs = true;
    } else if (arg == "--stream") {
      args.stream = true;
    } else if (arg == "--list-solvers") {
      std::exit(list_solvers());
    } else if (arg == "--gantt") {
      args.gantt = true;
    } else if (arg == "--csv") {
      args.csv = true;
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << arg << "\n";
      return false;
    } else {
      args.dag_paths.push_back(arg);
    }
  }
  return true;
}

common::Result<graph::Dag> load_dag(const std::string& path) {
  std::ifstream in(path);
  if (!in) return common::Status::not_found("cannot open " + path);
  return graph::read_text(in);
}

model::SpeedModel make_speeds(CliArgs& args) {
  model::SpeedModel speeds =
      args.levels ? (args.vdd ? model::SpeedModel::vdd_hopping(*args.levels)
                              : model::SpeedModel::discrete(*args.levels))
                  : model::SpeedModel::continuous(args.fmin, args.fmax);
  if (args.levels) {
    args.fmin = speeds.fmin();
    args.fmax = speeds.fmax();
  }
  return speeds;
}

/// One engine per invocation: the declarative EngineConfig replaces the
/// cache/store/thread plumbing every mode used to wire by hand.
common::Result<engine::Engine> make_engine(const CliArgs& args) {
  engine::EngineConfig config;
  config.threads = args.threads;
  config.cache_max_entries = args.cache_cap;
  config.cache_max_bytes = args.cache_cap_bytes.value_or(0);
  config.max_queued_jobs = args.max_queued;
  config.metrics = !args.no_metrics;
  if (!args.trace_out.empty()) config.trace_capacity = 4096;
  if (!args.store_path.empty()) {
    config.store_path = args.store_path;
    config.store_mode = args.store_mode == "write-through"
                            ? engine::StoreMode::kWriteThrough
                            : args.store_mode == "load-on-open"
                                  ? engine::StoreMode::kLoadOnOpen
                                  : engine::StoreMode::kBoth;
    config.store_warm_start = args.warm_start;
  }
  return engine::Engine::create(std::move(config));
}

/// --trace-out epilogue: dump the engine's retained job spans as Chrome
/// trace_event JSON (chrome://tracing, Perfetto, speedscope all read it).
void write_trace(engine::Engine& eng, const CliArgs& args) {
  if (args.trace_out.empty()) return;
  std::ofstream out(args.trace_out);
  if (!out) {
    std::cerr << "cannot open trace file " << args.trace_out << "\n";
    return;
  }
  if (!eng.write_trace_json(out)) {
    std::cerr << "tracing is disabled on this engine; trace file not written\n";
    return;
  }
  if (eng.trace() != nullptr && eng.trace()->recorded() == 0) {
    // Valid-but-empty document: only engine *jobs* leave spans, and
    // some verbs run through the synchronous conveniences.
    std::cerr << "note: " << args.trace_out
              << " has no job spans (this run used no async jobs)\n";
  }
}

/// --stream: the engine's frontier observer, printing each point as the
/// sweep discovers it. Under --csv/--json the stream goes to stderr so
/// stdout stays machine-parseable.
std::function<void(const frontier::FrontierPoint&)> make_streamer(const CliArgs& args) {
  if (!args.stream) return {};
  const bool to_stderr = args.csv || args.json;
  return [to_stderr](const frontier::FrontierPoint& p) {
    std::ostream& out = to_stderr ? std::cerr : std::cout;
    out << "stream: " << common::format_g(p.constraint) << " -> "
        << common::format_g(p.energy) << " [" << p.solver << "]\n";
  };
}

void print_frontier(const frontier::FrontierResult& result) {
  common::Table table({"constraint", "energy", "makespan", "solver", "exact"});
  for (const auto& p : result.points) {
    table.add_row({common::format_g(p.constraint), common::format_g(p.energy),
                   common::format_g(p.makespan), p.solver, p.exact ? "yes" : "no"});
  }
  table.print(std::cout);
  const auto summary = frontier::summarize(result);
  std::cout << "\nfrontier: " << result.points.size() << " points ("
            << result.dominated.size() << " dominated, " << result.infeasible
            << " infeasible) from " << result.evaluated << " evaluations, "
            << result.cache_hits << " cache hits";
  if (result.prefetched > 0) std::cout << " (" << result.prefetched << " prefetched)";
  std::cout << "\n"
            << "energy span: [" << common::format_g(summary.energy.min()) << ", "
            << common::format_g(summary.energy.max()) << "]  auc: "
            << common::format_g(summary.auc)
            << "  hypervolume: " << common::format_g(summary.hypervolume)
            << "  wall: " << common::format_fixed(result.wall_ms, 1) << " ms\n";
}

void print_comparison(const frontier::FrontierComparison& comparison) {
  common::Table table({"solver", "points", "infeasible", "energy_min", "auc",
                       "hypervolume", "wall_ms"});
  for (const auto& sf : comparison.solvers) {
    table.add_row({sf.solver,
                   common::format_int(static_cast<long long>(sf.summary.points)),
                   common::format_int(static_cast<long long>(sf.result.infeasible)),
                   common::format_g(sf.summary.energy.min()),
                   common::format_g(sf.summary.auc),
                   common::format_g(sf.summary.hypervolume),
                   common::format_fixed(sf.result.wall_ms, 1)});
  }
  table.print(std::cout);
  for (const auto& sf : comparison.solvers) {
    if (!sf.result.error.is_ok()) {
      std::cout << "warning: " << sf.solver
                << " sweep failed: " << sf.result.error.to_string() << "\n";
    }
  }
  std::cout << "\ndominance segments (who wins where on the "
            << frontier::to_string(comparison.axis) << " axis):\n\n";
  common::Table segments({"from", "to", "winner"});
  for (const auto& seg : comparison.segments) {
    segments.add_row({common::format_g(seg.lo), common::format_g(seg.hi), seg.solver});
  }
  segments.print(std::cout);
}

/// Output-format dispatch shared by both sweep axes.
int emit_frontier(const frontier::FrontierResult& result, const CliArgs& args) {
  if (!result.error.is_ok()) {
    std::cerr << "frontier sweep failed: " << result.error.to_string() << "\n";
    return 1;
  }
  if (args.csv) {
    frontier::write_frontier_csv(result, std::cout);
  } else if (args.json) {
    frontier::write_frontier_json(result, std::cout);
  } else {
    print_frontier(result);
  }
  return 0;
}

int emit_comparison(const frontier::FrontierComparison& comparison,
                    const CliArgs& args) {
  // A comparison stays useful when only some solvers fail; abort only
  // when every sweep errored out.
  bool any_ok = comparison.solvers.empty();
  for (const auto& sf : comparison.solvers) {
    if (sf.result.error.is_ok()) any_ok = true;
  }
  if (!any_ok) {
    for (const auto& sf : comparison.solvers) {
      std::cerr << sf.solver << " sweep failed: " << sf.result.error.to_string()
                << "\n";
    }
    return 1;
  }
  if (args.csv) {
    frontier::write_comparison_csv(comparison, std::cout);
  } else if (args.json) {
    frontier::write_comparison_json(comparison, std::cout);
  } else {
    print_comparison(comparison);
  }
  return 0;
}

int run_frontier(CliArgs& args) {
  // --resweep takes the old and the changed instance; plain sweeps one.
  const std::size_t expected_files = args.resweep ? 2 : 1;
  if (args.dag_paths.size() != expected_files) {
    std::cerr << (args.resweep
                      ? "frontier --resweep takes exactly two dag files (old, new)\n"
                      : "frontier mode takes exactly one dag file\n");
    return 2;
  }
  if (args.resweep && !args.solvers.empty()) {
    std::cerr << "--resweep and --solvers cannot be combined\n";
    return 2;
  }
  auto dag = load_dag(args.dag_paths[0]);
  if (!dag.is_ok()) {
    std::cerr << "bad dag file: " << dag.status().to_string() << "\n";
    return 1;
  }
  const auto mapping = sched::list_schedule(dag.value(), args.processors,
                                            sched::PriorityPolicy::kCriticalPath);
  std::optional<graph::Dag> new_dag;
  std::optional<sched::Mapping> new_mapping;
  if (args.resweep) {
    auto loaded = load_dag(args.dag_paths[1]);
    if (!loaded.is_ok()) {
      std::cerr << "bad dag file: " << loaded.status().to_string() << "\n";
      return 1;
    }
    new_dag = std::move(loaded).take();
    new_mapping = sched::list_schedule(*new_dag, args.processors,
                                       sched::PriorityPolicy::kCriticalPath);
  }
  const model::SpeedModel speeds = make_speeds(args);

  // Fold the slack policy into the swept quantities up front, exactly as
  // the solve path does: it scales the fixed deadline of a reliability
  // sweep and the [dmin, dmax] axis of a deadline sweep, so the flag
  // means "scale D" in every mode.
  const double slack = args.options.deadline_slack;
  args.options.deadline_slack = 1.0;
  const double deadline = args.deadline * slack;

  // The engine owns the cache, the optional store and the worker pool —
  // the plumbing this mode used to assemble by hand.
  auto created = make_engine(args);
  if (!created.is_ok()) {
    std::cerr << "cannot create engine: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();

  frontier::FrontierOptions fopt;
  fopt.initial_points = args.points;
  fopt.max_points = args.max_points;
  fopt.solver = args.solver_name;
  fopt.solve = args.options;
  const auto streamer = make_streamer(args);

  // Single sweeps and resweeps go through the asynchronous submit path
  // (with the --stream observer attached); comparisons sweep each solver
  // through Engine::compare on the same cache, store and pool.
  auto submit_sweep = [&](engine::FrontierQuery query) {
    query.observer = streamer;
    return eng.submit(std::move(query)).get();
  };

  // In resweep mode, sweep the old instance first and report the changed
  // instance's curve (bit-identical to its cold sweep) warm-started from
  // the old one.
  auto note_prev = [&](const frontier::FrontierResult& prev) {
    if (!args.csv && !args.json) {
      std::cout << "old instance '" << args.dag_paths[0] << "': "
                << prev.points.size() << " frontier points from " << prev.evaluated
                << " evaluations in " << common::format_fixed(prev.wall_ms, 1)
                << " ms; resweeping '" << args.dag_paths[1] << "'\n\n";
    }
  };
  auto submit_resweep = [&](frontier::FrontierResult prev, engine::FrontierQuery target) {
    note_prev(prev);
    engine::ResweepQuery query;
    query.prev = std::move(prev);
    query.target = std::move(target);
    query.target.observer = streamer;
    return eng.submit(std::move(query)).get();
  };

  // The mode dispatch below returns from many points; run it inside a
  // lambda so the trace/cache/store epilogue runs exactly once either way.
  const int rc = [&]() -> int {
  const bool reliability_mode = args.rmin && args.rmax;
  if (reliability_mode) {
    if (deadline <= 0.0) {
      std::cerr << "--rmin/--rmax sweeps need a fixed --deadline\n";
      return 2;
    }
    if (*args.rmin < args.fmin || *args.rmax > args.fmax || *args.rmin > *args.rmax) {
      std::cerr << "--rmin/--rmax must satisfy fmin <= rmin <= rmax <= fmax\n";
      return 2;
    }
    model::ReliabilityModel rel(args.lambda0, args.dexp, args.fmin, args.fmax,
                                *args.rmax);
    const auto problem = std::make_shared<const core::TriCritProblem>(
        dag.value(), mapping, speeds, rel, deadline);
    if (!args.solvers.empty()) {
      const auto query =
          engine::FrontierQuery::reliability(problem, *args.rmin, *args.rmax, fopt);
      return emit_comparison(eng.compare(query, args.solvers), args);
    }
    if (args.resweep) {
      auto prev = eng.sweep(
          engine::FrontierQuery::reliability(problem, *args.rmin, *args.rmax, fopt));
      const auto changed = std::make_shared<const core::TriCritProblem>(
          *new_dag, *new_mapping, speeds, rel, deadline);
      return emit_frontier(
          submit_resweep(std::move(prev), engine::FrontierQuery::reliability(
                                              changed, *args.rmin, *args.rmax, fopt)),
          args);
    }
    return emit_frontier(submit_sweep(engine::FrontierQuery::reliability(
                             problem, *args.rmin, *args.rmax, fopt)),
                         args);
  }

  if (!args.dmin || !args.dmax || *args.dmin <= 0.0 || *args.dmin > *args.dmax) {
    std::cerr << "frontier mode needs --dmin/--dmax (0 < dmin <= dmax) or "
                 "--deadline with --rmin/--rmax\n";
    return 2;
  }
  const double dmin = *args.dmin * slack;
  const double dmax = *args.dmax * slack;
  if (args.frel) {
    // TRI-CRIT deadline sweep: the reliability threshold stays fixed at
    // --frel while the deadline axis is swept.
    if (*args.frel < args.fmin || *args.frel > args.fmax) {
      std::cerr << "--frel must lie in [fmin, fmax]\n";
      return 2;
    }
    model::ReliabilityModel rel(args.lambda0, args.dexp, args.fmin, args.fmax,
                                *args.frel);
    const auto problem = std::make_shared<const core::TriCritProblem>(
        dag.value(), mapping, speeds, rel, dmax);
    if (!args.solvers.empty()) {
      return emit_comparison(
          eng.compare(engine::FrontierQuery::deadline(problem, dmin, dmax, fopt),
                      args.solvers),
          args);
    }
    if (args.resweep) {
      auto prev = eng.sweep(engine::FrontierQuery::deadline(problem, dmin, dmax, fopt));
      const auto changed = std::make_shared<const core::TriCritProblem>(
          *new_dag, *new_mapping, speeds, rel, dmax);
      return emit_frontier(
          submit_resweep(std::move(prev),
                         engine::FrontierQuery::deadline(changed, dmin, dmax, fopt)),
          args);
    }
    return emit_frontier(
        submit_sweep(engine::FrontierQuery::deadline(problem, dmin, dmax, fopt)), args);
  }
  const auto problem =
      std::make_shared<const core::BiCritProblem>(dag.value(), mapping, speeds, dmax);
  if (!args.solvers.empty()) {
    return emit_comparison(
        eng.compare(engine::FrontierQuery::deadline(problem, dmin, dmax, fopt),
                    args.solvers),
        args);
  }
  if (args.resweep) {
    auto prev = eng.sweep(engine::FrontierQuery::deadline(problem, dmin, dmax, fopt));
    const auto changed = std::make_shared<const core::BiCritProblem>(
        *new_dag, *new_mapping, speeds, dmax);
    return emit_frontier(
        submit_resweep(std::move(prev),
                       engine::FrontierQuery::deadline(changed, dmin, dmax, fopt)),
        args);
  }
  return emit_frontier(
      submit_sweep(engine::FrontierQuery::deadline(problem, dmin, dmax, fopt)), args);
  }();

  // Epilogue, on every dispatch path: trace dump, and the cache/store
  // summary for human-readable runs.
  write_trace(eng, args);
  if (!args.csv && !args.json && rc == 0) {
    const auto stats = eng.cache_stats();
    std::cout << "cache: " << stats.entries << " entries (~" << stats.bytes
              << " bytes), " << stats.hits << " hits + " << stats.store_hits
              << " store hits / " << stats.misses << " misses, " << stats.evictions
              << " evictions (" << stats.spills << " spilled), " << stats.warm_seeds
              << " warm-seeded solves, " << stats.interned_blobs
              << " interned instances\n";
    if (eng.store() != nullptr) {
      const auto sstats = eng.store()->stats();
      std::cout << "store '" << args.store_path << "': " << sstats.entries
                << " entries / " << sstats.blobs << " instances on disk ("
                << sstats.file_bytes << " bytes), " << sstats.appended
                << " appended this run\n";
    }
  }
  return rc;
}

/// Offline maintenance of a solve-store log: easched_cli store <op> <file>.
int run_store(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: " << argv[0] << " store <stat|verify|compact> <log-file>\n";
    return 2;
  }
  const std::string op = argv[2];
  const std::string path = argv[3];
  const auto print_stats = [](const store::StoreStats& s) {
    // stat counts raw records (superseded included); verify decodes and
    // reports live entries + superseded separately.
    std::cout << "  instances: " << s.blobs << "\n  entries:   " << s.entries
              << "\n  bytes:     " << s.file_bytes << "\n";
    if (s.superseded > 0) {
      std::cout << "  superseded: " << s.superseded << " (compact reclaims them)\n";
    }
    if (s.torn_bytes > 0) {
      std::cout << "  torn tail: " << s.torn_bytes << " bytes (ignored)\n";
    }
  };
  if (op == "stat") {
    const auto stats = store::SolveStore::stat(path);
    if (!stats.is_ok()) {
      std::cerr << "stat failed: " << stats.status().to_string() << "\n";
      return 1;
    }
    std::cout << "store log '" << path << "':\n";
    print_stats(stats.value());
    return 0;
  }
  if (op == "verify") {
    const auto stats = store::SolveStore::verify(path);
    if (!stats.is_ok()) {
      std::cerr << "verify FAILED: " << stats.status().to_string() << "\n";
      return 1;
    }
    std::cout << "store log '" << path << "' verified: every record decodes\n";
    print_stats(stats.value());
    return 0;
  }
  if (op == "compact") {
    const auto report = store::SolveStore::compact(path);
    if (!report.is_ok()) {
      std::cerr << "compact failed: " << report.status().to_string() << "\n";
      return 1;
    }
    const auto& r = report.value();
    std::cout << "compacted '" << path << "': " << r.entries_in << " -> "
              << r.entries_out << " entries, " << r.blobs_in << " -> " << r.blobs_out
              << " instances, " << r.bytes_in << " -> " << r.bytes_out << " bytes\n";
    return 0;
  }
  std::cerr << "unknown store operation '" << op << "'\n";
  return 2;
}

/// Several dag files: one engine batch query on the worker pool, or —
/// with --jobs — one asynchronous engine job per file (the submit path:
/// every file gets its own JobHandle and the table joins the futures).
int run_batch(CliArgs& args, double effective_deadline) {
  std::vector<api::BatchJob> jobs;
  for (const auto& path : args.dag_paths) {
    auto dag = load_dag(path);
    if (!dag.is_ok()) {
      std::cerr << "bad dag file " << path << ": " << dag.status().to_string() << "\n";
      return 1;
    }
    const auto mapping = sched::list_schedule(dag.value(), args.processors,
                                              sched::PriorityPolicy::kCriticalPath);
    const model::SpeedModel speeds = make_speeds(args);
    api::BatchJob job;
    job.family = path;
    if (args.frel) {
      model::ReliabilityModel rel(args.lambda0, args.dexp, args.fmin, args.fmax,
                                  *args.frel);
      job.tricrit = std::make_shared<const core::TriCritProblem>(
          std::move(dag).take(), mapping, speeds, rel, effective_deadline);
    } else {
      job.bicrit = std::make_shared<const core::BiCritProblem>(
          std::move(dag).take(), mapping, speeds, effective_deadline);
    }
    jobs.push_back(std::move(job));
  }

  auto created = make_engine(args);
  if (!created.is_ok()) {
    std::cerr << "cannot create engine: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();

  api::BatchReport report;
  if (args.jobs) {
    const auto start = std::chrono::steady_clock::now();
    std::vector<engine::Engine::SolveHandle> handles;
    handles.reserve(jobs.size());
    for (const auto& job : jobs) {
      handles.push_back(eng.submit(
          job.bicrit != nullptr
              ? engine::SolveQuery(job.bicrit, args.solver_name, args.options)
              : engine::SolveQuery(job.tricrit, args.solver_name, args.options)));
    }
    std::vector<common::Result<api::SolveReport>> results;
    results.reserve(handles.size());
    for (auto& handle : handles) results.push_back(handle.get());
    report = api::aggregate_batch(jobs, std::move(results));
    report.wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  } else {
    report = eng.solve_batch(jobs, args.solver_name, args.options);
  }

  common::Table table({"file", "status", "solver", "energy", "makespan", "wall_ms"});
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& r = report.results[i];
    if (!r.is_ok()) {
      table.add_row({jobs[i].family, r.status().to_string(), "-", "-", "-", "-"});
      continue;
    }
    table.add_row({jobs[i].family, "OK", r.value().solver,
                   common::format_g(r.value().energy),
                   common::format_g(r.value().makespan),
                   common::format_fixed(r.value().wall_ms, 2)});
  }
  if (args.csv) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
    std::cout << "\nbatch: " << report.solved << " solved, " << report.failed
              << " failed in " << common::format_fixed(report.wall_ms, 1) << " ms\n";
  }
  write_trace(eng, args);
  return report.failed == 0 ? 0 : 1;
}

int run_solve(CliArgs& args) {
  if (args.dag_paths.empty() || args.deadline <= 0.0) return 2;

  // Fold the slack policy into the problem once: solver and feasibility
  // check then agree on the same effective deadline, and the request can
  // keep the default slack of 1.
  const double effective_deadline = args.deadline * args.options.deadline_slack;
  args.options.deadline_slack = 1.0;

  if (args.dag_paths.size() > 1) return run_batch(args, effective_deadline);

  auto dag = load_dag(args.dag_paths[0]);
  if (!dag.is_ok()) {
    std::cerr << "bad dag file: " << dag.status().to_string() << "\n";
    return 1;
  }
  const auto mapping = sched::list_schedule(dag.value(), args.processors,
                                            sched::PriorityPolicy::kCriticalPath);
  const model::SpeedModel speeds = make_speeds(args);

  // One solve still goes through the façade: the engine is cheap to
  // construct and the call shape matches every other mode.
  auto created = make_engine(args);
  if (!created.is_ok()) {
    std::cerr << "cannot create engine: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();

  common::Result<api::SolveReport> result = common::Status::internal("unsolved");
  if (args.frel) {
    model::ReliabilityModel rel(args.lambda0, args.dexp, args.fmin, args.fmax,
                                *args.frel);
    core::TriCritProblem p(dag.value(), mapping, speeds, rel, effective_deadline);
    result = eng.solve(p, args.solver_name, args.options);
    if (result.is_ok() && !p.check(result.value().schedule).is_ok()) {
      std::cerr << "internal error: schedule failed validation\n";
      return 1;
    }
  } else {
    core::BiCritProblem p(dag.value(), mapping, speeds, effective_deadline);
    result = eng.solve(p, args.solver_name, args.options);
    if (result.is_ok() && !p.check(result.value().schedule).is_ok()) {
      std::cerr << "internal error: schedule failed validation\n";
      return 1;
    }
  }
  if (!result.is_ok()) {
    std::cerr << "solve failed: " << result.status().to_string() << "\n";
    return 1;
  }

  const api::SolveReport& report = result.value();
  if (report.problem == api::ProblemKind::kTriCrit) {
    std::cout << "re-executed tasks: " << report.re_executed << "\n";
  }
  std::cout << "solver: " << report.solver << "\nenergy: " << report.energy
            << "\nmakespan: " << report.makespan << " (deadline " << effective_deadline
            << ")\nwall time: " << report.wall_ms << " ms\n";
  if (args.gantt) sched::write_gantt(std::cout, dag.value(), mapping, report.schedule);
  if (args.csv) sched::write_timeline_csv(std::cout, dag.value(), mapping, report.schedule);
  write_trace(eng, args);
  return 0;
}

// ---- simulate -------------------------------------------------------------

/// The simulator's platform: --ladder picks the 7-level discrete
/// frequency/voltage table (VDD-HOPPING with --vdd), --levels/--fmin/
/// --fmax work exactly like everywhere else.
sim::SimConfig make_sim_config(CliArgs& args) {
  sim::SimConfig config;
  if (args.ladder) {
    config.speeds = model::DvfsLadder::xscale7().speed_model(args.vdd);
    args.fmin = config.speeds.fmin();
    args.fmax = config.speeds.fmax();
  } else {
    config.speeds = make_speeds(args);
  }
  config.static_power = args.static_power;
  config.wake_energy = args.wake_energy;
  return config;
}

/// The validated policy list: --policies subset, or all four.
common::Result<std::vector<std::string>> sim_policy_list(const CliArgs& args) {
  std::vector<std::string> policies =
      args.policies.empty() ? sim::policy_names() : parse_names(args.policies);
  if (policies.empty()) return common::Status::invalid("--policies names no policy");
  for (const auto& name : policies) {
    auto p = sim::make_policy(name);
    if (!p.is_ok()) return p.status();
  }
  return policies;
}

/// easched_cli simulate: replay a seeded corpus of arrival streams under
/// the online DVFS policies and score each against the clairvoyant
/// offline oracle. Everything printed or exported is bit-identical
/// across runs and thread counts for the same seed.
int run_simulate(CliArgs& args) {
  auto policies = sim_policy_list(args);
  if (!policies.is_ok()) {
    std::cerr << "simulate: " << policies.status().to_string() << "\n";
    return 2;
  }
  const sim::SimConfig config = make_sim_config(args);
  const auto classes = sim::default_task_classes(args.periodic);

  auto created = make_engine(args);
  if (!created.is_ok()) {
    std::cerr << "cannot create engine: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();

  const auto metrics =
      sim::run_policy_corpus(classes, args.streams, args.horizon, args.sim_seed,
                             policies.value(), config, eng.metrics(), args.threads);

  // One oracle solve per stream (the traces replay deterministically
  // from the seed, so regeneration is exact).
  std::vector<sim::OracleReport> oracles;
  for (int s = 0; s < args.streams; ++s) {
    const auto trace = sim::make_trace(classes, args.horizon, args.sim_seed,
                                       static_cast<std::uint64_t>(s));
    auto oracle = sim::oracle_baseline(trace, config, eng);
    if (!oracle.is_ok()) {
      std::cerr << "simulate: oracle solve failed on stream " << s << ": "
                << oracle.status().to_string() << "\n";
      return 1;
    }
    oracles.push_back(std::move(oracle).take());
  }

  std::cout << "online simulation: " << args.streams << " stream(s), horizon "
            << common::format_g(args.horizon) << ", seed " << args.sim_seed << ", "
            << (args.periodic ? "periodic" : "poisson") << " arrivals, "
            << model::to_string(config.speeds.kind()) << " speeds ["
            << common::format_g(config.speeds.fmin()) << ", "
            << common::format_g(config.speeds.fmax()) << "], oracle solver "
            << oracles.front().solver << "\n\n";

  common::Table table({"stream", "policy", "jobs", "energy", "oracle", "ratio",
                       "misses", "miss_rate", "transitions", "wakeups", "idle",
                       "sleep"});
  for (int s = 0; s < args.streams; ++s) {
    const auto& oracle = oracles[static_cast<std::size_t>(s)];
    for (const auto& m : metrics[static_cast<std::size_t>(s)]) {
      table.add_row({common::format_int(s), m.policy,
                     common::format_int(static_cast<long long>(m.arrivals)),
                     common::format_g(m.total_energy()), common::format_g(oracle.energy),
                     common::format_fixed(m.total_energy() / oracle.energy, 4),
                     common::format_int(static_cast<long long>(m.deadline_misses)),
                     common::format_pct(m.miss_rate()),
                     common::format_int(static_cast<long long>(m.freq_transitions)),
                     common::format_int(static_cast<long long>(m.wakeups)),
                     common::format_fixed(m.idle_time, 2),
                     common::format_fixed(m.sleep_time, 2)});
    }
  }
  table.print(std::cout);

  // Per-policy aggregate: the empirical competitive-ratio headline.
  std::cout << "\n";
  common::Table agg({"policy", "mean_ratio", "max_ratio", "energy_total", "misses",
                     "miss_rate"});
  for (std::size_t p = 0; p < policies.value().size(); ++p) {
    double ratio_sum = 0.0, ratio_max = 0.0, energy = 0.0;
    std::uint64_t misses = 0, completions = 0;
    for (int s = 0; s < args.streams; ++s) {
      const auto& m = metrics[static_cast<std::size_t>(s)][p];
      const double ratio = m.total_energy() / oracles[static_cast<std::size_t>(s)].energy;
      ratio_sum += ratio;
      ratio_max = std::max(ratio_max, ratio);
      energy += m.total_energy();
      misses += m.deadline_misses;
      completions += m.completions;
    }
    agg.add_row({policies.value()[p], common::format_fixed(ratio_sum / args.streams, 4),
                 common::format_fixed(ratio_max, 4), common::format_g(energy),
                 common::format_int(static_cast<long long>(misses)),
                 common::format_pct(completions == 0 ? 0.0
                                                     : static_cast<double>(misses) /
                                                           static_cast<double>(completions))});
  }
  agg.print(std::cout);

  if (!args.sim_out.empty()) {
    obs::SampleTable out({"stream", "policy", "jobs", "energy", "dynamic_energy",
                          "static_energy", "wake_energy", "oracle_energy", "ratio",
                          "misses", "completions", "freq_transitions", "wakeups",
                          "busy_time", "idle_time", "sleep_time", "span"});
    for (int s = 0; s < args.streams; ++s) {
      const auto& oracle = oracles[static_cast<std::size_t>(s)];
      for (const auto& m : metrics[static_cast<std::size_t>(s)]) {
        out.begin_row();
        out.add_value(std::to_string(s));
        out.add_label(m.policy);
        out.add_value(std::to_string(m.arrivals));
        out.add_value(obs::format_double(m.total_energy()));
        out.add_value(obs::format_double(m.dynamic_energy));
        out.add_value(obs::format_double(m.static_energy));
        out.add_value(obs::format_double(m.wake_energy));
        out.add_value(obs::format_double(oracle.energy));
        out.add_value(obs::format_double(m.total_energy() / oracle.energy));
        out.add_value(std::to_string(m.deadline_misses));
        out.add_value(std::to_string(m.completions));
        out.add_value(std::to_string(m.freq_transitions));
        out.add_value(std::to_string(m.wakeups));
        out.add_value(obs::format_double(m.busy_time));
        out.add_value(obs::format_double(m.idle_time));
        out.add_value(obs::format_double(m.sleep_time));
        out.add_value(obs::format_double(m.span));
      }
    }
    auto st = out.write_file(args.sim_out);
    if (!st.is_ok()) {
      std::cerr << "simulate: cannot write " << args.sim_out << ": " << st.to_string()
                << "\n";
      return 1;
    }
    std::cout << "\nwrote " << out.rows() << " rows to " << args.sim_out << "\n";
  }
  write_trace(eng, args);
  return 0;
}

/// easched_cli metrics: run the solves like the default mode, then dump
/// the engine's metric registry instead of the per-solve reports — the
/// local twin of `remote stat --deep`.
int run_metrics(CliArgs& args) {
  if (args.no_metrics) {
    std::cerr << "metrics mode and --no-metrics cannot be combined\n";
    return 2;
  }
  if (args.simulate) {
    // metrics --simulate: run the sim corpus against the engine registry
    // and dump the per-policy counters instead of the ratio tables.
    auto policies = sim_policy_list(args);
    if (!policies.is_ok()) {
      std::cerr << "metrics --simulate: " << policies.status().to_string() << "\n";
      return 2;
    }
    auto created = make_engine(args);
    if (!created.is_ok()) {
      std::cerr << "cannot create engine: " << created.status().to_string() << "\n";
      return 1;
    }
    engine::Engine& eng = created.value();
    const sim::SimConfig config = make_sim_config(args);
    sim::run_policy_corpus(sim::default_task_classes(args.periodic), args.streams,
                           args.horizon, args.sim_seed, policies.value(), config,
                           eng.metrics(), args.threads);
    if (args.json) {
      eng.write_metrics_json(std::cout);
    } else {
      eng.write_metrics_text(std::cout);
    }
    write_trace(eng, args);
    return 0;
  }
  if (args.dag_paths.empty() || args.deadline <= 0.0) {
    std::cerr << "metrics mode: easched_cli metrics <dag-file>... --deadline D"
                 " [--json] [engine options] | easched_cli metrics --simulate"
                 " [simulate options]\n";
    return 2;
  }
  const double effective_deadline = args.deadline * args.options.deadline_slack;
  args.options.deadline_slack = 1.0;

  auto created = make_engine(args);
  if (!created.is_ok()) {
    std::cerr << "cannot create engine: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();

  int failed = 0;
  for (const auto& path : args.dag_paths) {
    auto dag = load_dag(path);
    if (!dag.is_ok()) {
      std::cerr << "bad dag file " << path << ": " << dag.status().to_string() << "\n";
      return 1;
    }
    const auto mapping = sched::list_schedule(dag.value(), args.processors,
                                              sched::PriorityPolicy::kCriticalPath);
    const model::SpeedModel speeds = make_speeds(args);
    common::Result<api::SolveReport> result = common::Status::internal("unsolved");
    if (args.frel) {
      model::ReliabilityModel rel(args.lambda0, args.dexp, args.fmin, args.fmax,
                                  *args.frel);
      core::TriCritProblem p(std::move(dag).take(), mapping, speeds,
                             rel, effective_deadline);
      result = eng.solve(p, args.solver_name, args.options);
    } else {
      core::BiCritProblem p(std::move(dag).take(), mapping, speeds,
                            effective_deadline);
      result = eng.solve(p, args.solver_name, args.options);
    }
    if (!result.is_ok()) {
      std::cerr << path << ": solve failed: " << result.status().to_string() << "\n";
      ++failed;
    }
  }

  if (args.json) {
    eng.write_metrics_json(std::cout);
  } else {
    eng.write_metrics_text(std::cout);
  }
  write_trace(eng, args);
  return failed == 0 ? 0 : 1;
}

// ---- serve / remote -------------------------------------------------------

/// Splits "host:port"; false on a malformed spec.
bool parse_host_port(const std::string& spec, std::string& host, int& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size()) return false;
  host = spec.substr(0, colon);
  try {
    port = std::stoi(spec.substr(colon + 1));
  } catch (const std::exception&) {
    return false;
  }
  return port >= 0 && port <= 65535;
}

serve::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// serve's default --cache-cap-bytes.
constexpr std::size_t kServeCacheCapBytes = std::size_t{4} << 20;

int run_serve(CliArgs& args) {
  if (args.listen.empty()) {
    std::cerr << "serve mode needs --listen host:port\n";
    return 2;
  }
  serve::ServerConfig config;
  if (!parse_host_port(args.listen, config.host, config.port)) {
    std::cerr << "--listen: expected host:port, got '" << args.listen << "'\n";
    return 2;
  }
  config.tenant_quota = args.tenant_quota;
  config.default_job_deadline_ms = args.job_deadline_ms;
  // A daemon serves for ever: bound its decoded answers by default.
  if (!args.cache_cap_bytes) args.cache_cap_bytes = kServeCacheCapBytes;

  auto created = make_engine(args);
  if (!created.is_ok()) {
    std::cerr << "cannot create engine: " << created.status().to_string() << "\n";
    return 1;
  }
  engine::Engine& eng = created.value();

  auto server = serve::Server::create(&eng, config);
  if (!server.is_ok()) {
    std::cerr << "cannot start daemon: " << server.status().to_string() << "\n";
    return 1;
  }
  std::cout << "easched daemon listening on " << config.host << ":"
            << server.value().port() << " (" << eng.threads() << " worker threads"
            << (args.max_queued > 0
                    ? ", queue cap " + std::to_string(args.max_queued)
                    : std::string(", unbounded queue"))
            << (args.tenant_quota > 0
                    ? ", tenant quota " + std::to_string(args.tenant_quota)
                    : std::string())
            << ")\n"
            << std::flush;

  g_server = &server.value();
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  const common::Status status = server.value().run();
  g_server = nullptr;
  server.value().stop();

  const auto stats = server.value().stats();
  std::cout << "daemon stopped: " << stats.connections << " connections, "
            << stats.requests << " requests (" << stats.accepted << " accepted, "
            << stats.shed << " shed, " << stats.completed << " completed, "
            << stats.deadline_exceeded << " deadline-exceeded), "
            << stats.protocol_errors << " protocol errors\n";
  write_trace(eng, args);
  if (!status.is_ok()) {
    std::cerr << "serve loop failed: " << status.to_string() << "\n";
    return 1;
  }
  return 0;
}

/// Builds the wire problem from the shared CLI flags + a dag file's text.
serve::ProblemSpec make_problem_spec(const CliArgs& args, std::string dag_text,
                                     double deadline) {
  serve::ProblemSpec spec;
  spec.dag_text = std::move(dag_text);
  spec.processors = args.processors;
  if (args.levels) {
    spec.speed_kind = args.vdd ? model::SpeedModelKind::kVddHopping
                               : model::SpeedModelKind::kDiscrete;
    spec.levels = *args.levels;
  } else {
    spec.speed_kind = model::SpeedModelKind::kContinuous;
    spec.fmin = args.fmin;
    spec.fmax = args.fmax;
  }
  spec.deadline = deadline;
  if (args.frel) {
    spec.tricrit = true;
    spec.lambda0 = args.lambda0;
    spec.dexp = args.dexp;
    spec.frel = *args.frel;
  }
  return spec;
}

common::Result<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return common::Status::not_found("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

int run_remote(const std::string& endpoint, const std::string& op, CliArgs& args) {
  std::string host;
  int port = 0;
  if (!parse_host_port(endpoint, host, port)) {
    std::cerr << "remote: expected host:port, got '" << endpoint << "'\n";
    return 2;
  }
  auto connected = serve::Client::connect(host, port, args.tenant);
  if (!connected.is_ok()) {
    std::cerr << "cannot connect: " << connected.status().to_string() << "\n";
    return 1;
  }
  serve::Client& client = connected.value();

  if (op == "stat") {
    auto stat = client.stat();
    if (!stat.is_ok()) {
      std::cerr << "stat failed: " << stat.status().to_string() << "\n";
      return 1;
    }
    const auto& s = stat.value();
    std::cout << "daemon: " << s.threads << " threads, " << s.queued_jobs
              << " queued jobs\ncache: " << s.cache_entries << " entries, "
              << s.cache_hits << " hits + " << s.store_hits << " store hits / "
              << s.cache_misses << " misses\n";
    if (s.has_store) {
      std::cout << "store: " << s.store_entries << " entries / " << s.store_blobs
                << " instances (" << s.store_bytes << " bytes)\n";
    }
    std::cout << "tenant '" << args.tenant << "': " << s.tenant_accepted
              << " accepted, " << s.tenant_shed << " shed, " << s.tenant_completed
              << " completed (" << s.tenant_deadline_exceeded
              << " deadline-exceeded), " << s.tenant_in_flight << " in flight\n";
    if (args.deep) {
      // One scrape of the daemon's whole registry. With --json the body
      // replaces the human summary ordering concern: it is emitted as-is.
      auto scraped = client.metrics(args.json ? serve::MetricsFormat::kJson
                                              : serve::MetricsFormat::kText);
      if (!scraped.is_ok()) {
        std::cerr << "metrics scrape failed: " << scraped.status().to_string()
                  << "\n";
        return 1;
      }
      std::cout << "\n" << scraped.value().body;
    }
    return 0;
  }

  if (args.dag_paths.size() != 1) {
    std::cerr << "remote " << op << " takes exactly one dag file\n";
    return 2;
  }
  auto dag_text = read_file(args.dag_paths[0]);
  if (!dag_text.is_ok()) {
    std::cerr << dag_text.status().to_string() << "\n";
    return 1;
  }

  if (op == "solve") {
    if (args.deadline <= 0.0) {
      std::cerr << "remote solve needs --deadline\n";
      return 2;
    }
    const double effective_deadline = args.deadline * args.options.deadline_slack;
    serve::SolveRequest request;
    request.problem =
        make_problem_spec(args, std::move(dag_text).take(), effective_deadline);
    request.solver = args.solver_name;
    request.job_deadline_ms = args.job_deadline_ms;
    auto response = client.solve(std::move(request));
    if (!response.is_ok()) {
      std::cerr << "remote solve failed: " << response.status().to_string() << "\n";
      return 1;
    }
    const auto& r = response.value();
    if (!r.status.is_ok()) {
      std::cerr << "solve failed: " << r.status.to_string() << "\n";
      return 1;
    }
    if (r.re_executed > 0) std::cout << "re-executed tasks: " << r.re_executed << "\n";
    std::cout << "solver: " << r.solver << "\nenergy: " << r.energy
              << "\nmakespan: " << r.makespan << " (deadline " << effective_deadline
              << ")\nwall time: " << r.wall_ms << " ms (daemon-side)\n";
    return 0;
  }

  if (op == "sweep") {
    serve::SweepRequest request;
    const double slack = args.options.deadline_slack;
    if (args.rmin && args.rmax) {
      if (args.deadline <= 0.0) {
        std::cerr << "remote sweep --rmin/--rmax needs a fixed --deadline\n";
        return 2;
      }
      if (!args.frel) args.frel = *args.rmax;  // reliability sweeps are TRI-CRIT
      request.axis = serve::WireAxis::kReliability;
      request.lo = *args.rmin;
      request.hi = *args.rmax;
      request.problem = make_problem_spec(args, std::move(dag_text).take(),
                                          args.deadline * slack);
    } else {
      if (!args.dmin || !args.dmax || *args.dmin <= 0.0 || *args.dmin > *args.dmax) {
        std::cerr << "remote sweep needs --dmin/--dmax (0 < dmin <= dmax) or "
                     "--deadline with --rmin/--rmax\n";
        return 2;
      }
      request.axis = serve::WireAxis::kDeadline;
      request.lo = *args.dmin * slack;
      request.hi = *args.dmax * slack;
      request.problem =
          make_problem_spec(args, std::move(dag_text).take(), request.hi);
    }
    request.initial_points = args.points;
    request.max_points = args.max_points;
    request.solver = args.solver_name;
    request.job_deadline_ms = args.job_deadline_ms;
    auto response = client.sweep(std::move(request));
    if (!response.is_ok()) {
      std::cerr << "remote sweep failed: " << response.status().to_string() << "\n";
      return 1;
    }
    const auto& r = response.value();
    if (!r.status.is_ok()) {
      std::cerr << "sweep failed: " << r.status.to_string() << "\n";
      return 1;
    }
    common::Table table({"constraint", "energy", "makespan", "solver", "exact"});
    for (const auto& p : r.points) {
      table.add_row({common::format_g(p.constraint), common::format_g(p.energy),
                     common::format_g(p.makespan), p.solver, p.exact ? "yes" : "no"});
    }
    table.print(std::cout);
    std::cout << "\nfrontier: " << r.points.size() << " points (" << r.infeasible
              << " infeasible) from " << r.evaluated << " evaluations, "
              << r.cache_hits << " cache hits";
    if (r.prefetched > 0) std::cout << " (" << r.prefetched << " prefetched)";
    std::cout << "  wall: " << common::format_fixed(r.wall_ms, 1)
              << " ms (daemon-side)\n";
    return 0;
  }

  std::cerr << "unknown remote operation '" << op << "'\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);

  if (std::string(argv[1]) == "store") return run_store(argc, argv);
  if (std::string(argv[1]) == "serve") {
    CliArgs args;
    if (!parse_args(argc, argv, 2, args)) return usage(argv[0]);
    const int rc = run_serve(args);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  if (std::string(argv[1]) == "remote") {
    if (argc < 4) return usage(argv[0]);
    CliArgs args;
    if (!parse_args(argc, argv, 4, args)) return usage(argv[0]);
    const int rc = run_remote(argv[2], argv[3], args);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  if (std::string(argv[1]) == "metrics") {
    CliArgs args;
    if (!parse_args(argc, argv, 2, args)) return usage(argv[0]);
    const int rc = run_metrics(args);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  if (std::string(argv[1]) == "simulate") {
    CliArgs args;
    if (!parse_args(argc, argv, 2, args)) return usage(argv[0]);
    const int rc = run_simulate(args);
    return rc == 2 ? usage(argv[0]) : rc;
  }
  const bool frontier_mode = std::string(argv[1]) == "frontier";
  CliArgs args;
  if (!parse_args(argc, argv, frontier_mode ? 2 : 1, args)) return usage(argv[0]);

  const int rc = frontier_mode ? run_frontier(args) : run_solve(args);
  return rc == 2 ? usage(argv[0]) : rc;
}
