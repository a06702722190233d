// Command-line driver: solve, sweep, simulate, serve and query
// BI-CRIT/TRI-CRIT problems read from the DAG text format of
// graph/io.hpp, without writing C++. Every verb runs on one
// engine::Engine (engine/engine.hpp) or talks to a daemon that owns one,
// and every verb builds its problem one way: the DAG file's text and the
// shared flags form a serve::ProblemSpec, which local verbs pass through
// serve::build_problem and `remote` sends to the daemon. One flag table
// (kFlags) and one verb table (kVerbs) drive parsing, dispatch and the
// usage text; run the binary with no arguments to print that text.
//
// Examples:
//   easched_cli pipeline.dag --deadline 12 --frel 0.8 --gantt
//   easched_cli frontier pipeline.dag --dmin 8 --dmax 40 --csv
//   easched_cli frontier pipeline.dag --deadline 30 --rmin 0.4 --rmax 0.95
//       --solvers best-of,heuristic-A
//   easched_cli serve --listen 127.0.0.1:7411 --store solves.log
//   easched_cli remote 127.0.0.1:7411 solve pipeline.dag --deadline 12

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "api/batch.hpp"
#include "api/registry.hpp"
#include "common/table.hpp"
#include "engine/engine.hpp"
#include "frontier/analytics.hpp"
#include "frontier/compare.hpp"
#include "frontier/export.hpp"
#include "frontier/frontier.hpp"
#include "model/ladder.hpp"
#include "obs/export.hpp"
#include "sched/gantt.hpp"
#include "serve/client.hpp"
#include "serve/problem.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/oracle.hpp"
#include "sim/policy.hpp"
#include "sim/simulator.hpp"
#include "sim/stream.hpp"
#include "store/store.hpp"

namespace {

using namespace easched;

/// The verbs as bits, so a flag can name the verbs that read it.
enum VerbBit : unsigned {
  kSolve = 1, kFrontier = 2, kMetrics = 4, kSimulate = 8, kServe = 16, kStore = 32,
  kRemoteSolve = 64, kRemoteSweep = 128, kRemoteStat = 256,
};
constexpr unsigned kProblemVerbs = kSolve | kFrontier | kMetrics | kRemoteSolve | kRemoteSweep;
constexpr unsigned kSpeedVerbs = kProblemVerbs | kSimulate;
constexpr unsigned kEngineVerbs = kSolve | kFrontier | kMetrics | kSimulate | kServe;
constexpr unsigned kSweepVerbs = kFrontier | kRemoteSweep;
constexpr unsigned kSimVerbs = kSimulate | kMetrics;
constexpr unsigned kRemoteVerbs = kRemoteSolve | kRemoteSweep | kRemoteStat;

/// Every value a verb reads, filled in one pass over the flag table.
struct Args {
  std::vector<std::string> positional;  // dag files; store: operation, log file
  std::string endpoint;                 // remote: host:port
  std::string solver_name;
  std::vector<std::string> solvers;  // frontier comparison mode
  double deadline = -1.0, fmin = 0.2, fmax = 1.0, lambda0 = 1e-5, dexp = 3.0, slack = 1.0;
  std::optional<double> frel;
  std::optional<std::vector<double>> levels;
  std::optional<double> dmin, dmax, rmin, rmax;
  bool vdd = false, gantt = false, csv = false, json = false, resweep = false;
  bool warm_start = false, jobs = false, stream = false, list_solvers = false;
  int processors = 2, points = 9, max_points = 33;
  std::size_t threads = 0, cache_cap = 0;
  std::optional<std::size_t> cache_cap_bytes;  // unset: the verb's default
  std::string store_path, trace_out;
  engine::StoreMode store_mode = engine::StoreMode::kBoth;
  bool no_metrics = false, deep = false;
  // serve / remote
  std::string listen, tenant = "default";
  std::size_t max_queued = 0, tenant_quota = 0;
  double job_deadline_ms = 0.0;
  // simulate
  std::uint64_t sim_seed = 42;
  int streams = 4;
  double horizon = 120.0, static_power = 0.05, wake_energy = 0.5;
  std::vector<std::string> policies;  // empty: all
  bool periodic = false, ladder = false, simulate = false;
  std::string sim_out;
};

/// Prints a one-line error; returns the usage exit code.
int fail(const std::string& message) {
  std::cerr << message << "\n";
  return 2;
}

/// `what: STATUS`; a rejected input exits 2, any other failure 1.
int fail(const std::string& what, const common::Status& status) {
  std::cerr << what << ": " << status.to_string() << "\n";
  return status.code() == common::StatusCode::kInvalidArgument ? 2 : 1;
}

// ---- the flag table ---------------------------------------------------------

/// Strict parse of the whole string into T; nullopt on junk, overflow or
/// a non-finite real.
template <typename T>
std::optional<T> parse_number(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

std::vector<std::string> split(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Stores a flag's value, or returns what the value should have been.
using Parser = std::function<std::string(Args&, const std::string&)>;

/// A number of type T that passes `ok` when one is given.
template <typename T, typename Field>
Parser number(Field Args::*field, bool (*ok)(T) = nullptr, const char* expected = nullptr) {
  if (expected == nullptr) expected = std::is_integral_v<T> ? "an integer" : "a number";
  return [=](Args& args, const std::string& value) -> std::string {
    const std::optional<T> parsed = parse_number<T>(value);
    if (!parsed || (ok != nullptr && !ok(*parsed))) return expected;
    args.*field = *parsed;
    return {};
  };
}

Parser text(std::string Args::*field) {
  return [=](Args& args, const std::string& value) -> std::string {
    args.*field = value;
    return {};
  };
}

Parser names(std::vector<std::string> Args::*field) {
  return [=](Args& args, const std::string& value) -> std::string {
    args.*field = split(value);
    return (args.*field).empty() ? "a comma-separated list of names" : "";
  };
}

Parser on(bool Args::*field) {
  return [=](Args& args, const std::string&) -> std::string {
    args.*field = true;
    return {};
  };
}

bool positive(double x) { return x > 0.0; }
bool non_negative(double x) { return x >= 0.0; }

struct Flag {
  const char* name;
  const char* value;  // its name in the usage text; nullptr: a switch
  unsigned verbs;     // every other verb rejects the flag
  const char* help;
  Parser parse;
};

const Flag kFlags[] = {
    {"--deadline", "D", kProblemVerbs, "the deadline",
     number<double>(&Args::deadline, positive, "a number > 0")},
    {"--processors", "P", kProblemVerbs, "platform size (default 2)",
     number<int>(&Args::processors)},
    {"--fmin", "F", kSpeedVerbs, "lowest continuous speed (default 0.2)",
     number<double>(&Args::fmin)},
    {"--fmax", "F", kSpeedVerbs, "highest continuous speed (default 1)",
     number<double>(&Args::fmax)},
    {"--levels", "f1,f2,...", kSpeedVerbs, "a DISCRETE speed level set",
     [](Args& args, const std::string& value) -> std::string {
       std::vector<double> levels;
       for (const auto& item : split(value)) {
         const auto level = parse_number<double>(item);
         if (!level) return "a comma-separated list of numbers";
         levels.push_back(*level);
       }
       args.levels = std::move(levels);
       return {};
     }},
    {"--vdd", nullptr, kSpeedVerbs, "treat the level set as VDD-HOPPING", on(&Args::vdd)},
    {"--frel", "F", kProblemVerbs, "TRI-CRIT at reliability threshold speed F",
     number<double>(&Args::frel)},
    {"--lambda0", "L", kProblemVerbs, "fault rate at fmax (default 1e-5)",
     number<double>(&Args::lambda0)},
    {"--dexp", "D", kProblemVerbs, "fault-rate sensitivity (default 3)",
     number<double>(&Args::dexp)},
    {"--solver", "NAME", kProblemVerbs, "registry solver (default: auto)",
     text(&Args::solver_name)},
    {"--slack", "S", kProblemVerbs, "scale --deadline and --dmin/--dmax by S (default 1)",
     number<double>(&Args::slack, positive, "a number > 0")},
    {"--list-solvers", nullptr, kSolve, "print the solver registry", on(&Args::list_solvers)},
    {"--jobs", nullptr, kSolve, "one asynchronous engine job per dag file", on(&Args::jobs)},
    {"--gantt", nullptr, kSolve, "print the timeline of a single solve", on(&Args::gantt)},
    {"--csv", nullptr, kSolve | kFrontier, "CSV output", on(&Args::csv)},
    {"--json", nullptr, kFrontier | kMetrics | kRemoteStat, "JSON output", on(&Args::json)},
    {"--dmin", "A", kSweepVerbs, "deadline sweep from A", number<double>(&Args::dmin)},
    {"--dmax", "B", kSweepVerbs, "deadline sweep to B", number<double>(&Args::dmax)},
    {"--rmin", "A", kSweepVerbs, "reliability sweep from A (at --deadline)",
     number<double>(&Args::rmin)},
    {"--rmax", "B", kSweepVerbs, "reliability sweep to B", number<double>(&Args::rmax)},
    {"--points", "N", kSweepVerbs, "initial sweep grid (default 9)",
     number<int>(&Args::points)},
    {"--max-points", "M", kSweepVerbs, "sweep budget (default 33)",
     number<int>(&Args::max_points)},
    {"--solvers", "n1,n2,...", kFrontier, "compare these solvers", names(&Args::solvers)},
    {"--resweep", nullptr, kFrontier, "sweep <new.dag> warm from <old.dag>",
     on(&Args::resweep)},
    {"--stream", nullptr, kFrontier, "print points as the sweep finds them",
     on(&Args::stream)},
    {"--threads", "N", kEngineVerbs, "worker pool size",
     number<std::size_t>(&Args::threads, [](std::size_t n) { return n >= 1 && n <= 1024; },
                         "an integer in [1, 1024]")},
    {"--cache-cap", "N", kEngineVerbs, "LRU-cap the cache at N entries (0: none)",
     number<std::size_t>(&Args::cache_cap)},
    {"--cache-cap-bytes", "N", kEngineVerbs, "LRU-cap the cache at ~N bytes (serve: 4 MiB)",
     number<std::size_t>(&Args::cache_cap_bytes)},
    {"--store", "FILE", kEngineVerbs, "back the cache with an on-disk log",
     text(&Args::store_path)},
    {"--store-mode", "M", kEngineVerbs, "both (default), write-through or load-on-open",
     [](Args& args, const std::string& value) -> std::string {
       using engine::StoreMode;
       for (const auto& [name, mode] : {std::pair{"both", StoreMode::kBoth},
                                        std::pair{"write-through", StoreMode::kWriteThrough},
                                        std::pair{"load-on-open", StoreMode::kLoadOnOpen}}) {
         if (value == name) {
           args.store_mode = mode;
           return {};
         }
       }
       return "both, write-through or load-on-open";
     }},
    {"--warm-start", nullptr, kEngineVerbs, "seed misses from the store",
     on(&Args::warm_start)},
    {"--no-metrics", nullptr, kEngineVerbs & ~kMetrics, "disable the metric registry",
     on(&Args::no_metrics)},
    {"--trace-out", "FILE", kEngineVerbs, "write job spans as Chrome trace_event JSON",
     text(&Args::trace_out)},
    {"--listen", "host:port", kServe, "the daemon's address", text(&Args::listen)},
    {"--max-queued", "N", kServe, "shed beyond N queued jobs (0: none)",
     number<std::size_t>(&Args::max_queued)},
    {"--tenant-quota", "N", kServe, "per-tenant in-flight cap (0: none)",
     number<std::size_t>(&Args::tenant_quota)},
    {"--job-deadline-ms", "MS", kServe | kRemoteSolve | kRemoteSweep, "per-request deadline",
     number<double>(&Args::job_deadline_ms, non_negative, "a number >= 0")},
    {"--tenant", "T", kRemoteVerbs, "isolation namespace (default 'default')",
     text(&Args::tenant)},
    {"--deep", nullptr, kRemoteStat, "also scrape the metric registry", on(&Args::deep)},
    {"--simulate", nullptr, kMetrics, "run the simulate corpus", on(&Args::simulate)},
    {"--seed", "N", kSimVerbs, "corpus seed (default 42)",
     number<std::uint64_t>(&Args::sim_seed)},
    {"--streams", "S", kSimVerbs, "arrival streams (default 4)",
     number<int>(&Args::streams, [](int n) { return n >= 1; }, "an integer >= 1")},
    {"--horizon", "T", kSimVerbs, "arrival cutoff per stream (default 120)",
     number<double>(&Args::horizon, positive, "a number > 0")},
    {"--policies", "a,b,...", kSimVerbs, "policy subset (default: all)",
     names(&Args::policies)},
    {"--periodic", nullptr, kSimVerbs, "periodic arrivals (default Poisson)",
     on(&Args::periodic)},
    {"--ladder", nullptr, kSimVerbs, "the 7-level DVFS ladder (VDD with --vdd)",
     on(&Args::ladder)},
    {"--static-power", "P", kSimVerbs, "awake power draw (default 0.05)",
     number<double>(&Args::static_power, non_negative, "a number >= 0")},
    {"--wake-energy", "E", kSimVerbs, "sleep-to-awake cost (default 0.5)",
     number<double>(&Args::wake_energy, non_negative, "a number >= 0")},
    {"--out", "FILE", kSimulate, "per-cell table (.json: JSON, else CSV)",
     text(&Args::sim_out)},
};

// ---- problems ---------------------------------------------------------------

/// The problem a verb solves, in the form the daemon receives it: the
/// DAG file's text and the shared flags at `deadline`, TRI-CRIT with
/// threshold speed `frel` when one is given.
common::Result<serve::ProblemSpec> read_spec(const Args& args, const std::string& path,
                                             double deadline, std::optional<double> frel) {
  std::ifstream in(path);
  if (!in) return common::Status::not_found("cannot open " + path);
  serve::ProblemSpec spec;
  spec.dag_text.assign(std::istreambuf_iterator<char>(in), {});
  spec.processors = args.processors;
  if (args.levels) {
    spec.speed_kind =
        args.vdd ? model::SpeedModelKind::kVddHopping : model::SpeedModelKind::kDiscrete;
    spec.levels = *args.levels;
  } else {
    spec.fmin = args.fmin;
    spec.fmax = args.fmax;
  }
  spec.deadline = deadline;
  if (frel) {
    spec.tricrit = true;
    spec.lambda0 = args.lambda0;
    spec.dexp = args.dexp;
    spec.frel = *frel;
  }
  return spec;
}

/// read_spec through serve::build_problem, which range-checks it: the one
/// way a local verb gets its problem.
common::Result<serve::BuiltProblem> load_problem(const Args& args, const std::string& path,
                                                 double deadline, std::optional<double> frel) {
  auto spec = read_spec(args, path, deadline, frel);
  if (!spec.is_ok()) return spec.status();
  return serve::build_problem(spec.value(), deadline);
}

/// Each dag file as a batch job at --deadline; the exit code of the first
/// file that fails, 0 when all load.
int load_jobs(const Args& args, std::vector<api::BatchJob>& jobs) {
  if (args.positional.empty() || args.deadline <= 0.0) {
    return fail("expected <dag-file>... and --deadline D");
  }
  for (const auto& path : args.positional) {
    auto problem = load_problem(args, path, args.deadline, args.frel);
    if (!problem.is_ok()) return fail(path, problem.status());
    api::BatchJob job;
    job.family = path;
    job.problem = std::move(problem).take();
    jobs.push_back(std::move(job));
  }
  return 0;
}

/// The sweep `frontier` and `remote sweep` share. A reliability sweep is
/// TRI-CRIT at the axis maximum with the deadline fixed; a deadline sweep
/// anchors the problem at dmax and is TRI-CRIT only with --frel.
struct SweepPlan {
  bool reliability = false;
  double lo = 0.0, hi = 0.0, anchor = 0.0;
  std::optional<double> frel;
};

common::Result<SweepPlan> plan_sweep(const Args& args) {
  if (args.rmin && args.rmax) {
    if (args.deadline <= 0.0) {
      return common::Status::invalid("--rmin/--rmax sweeps need a fixed --deadline");
    }
    if (*args.rmin > *args.rmax) {
      return common::Status::invalid(
          "--rmin/--rmax must satisfy fmin <= rmin <= rmax <= fmax");
    }
    return SweepPlan{true, *args.rmin, *args.rmax, args.deadline, args.rmax};
  }
  if (!args.dmin || !args.dmax || *args.dmin <= 0.0 || *args.dmin > *args.dmax) {
    return common::Status::invalid(
        "a sweep needs --dmin/--dmax (0 < dmin <= dmax) or --deadline with --rmin/--rmax");
  }
  return SweepPlan{false, *args.dmin, *args.dmax, *args.dmax, args.frel};
}

// ---- output -----------------------------------------------------------------

/// The solve report lines local and remote solves share; a local
/// api::SolveReport and a wire SolveResponse carry the same fields.
template <typename Report>
void print_solve(const Report& report, bool tricrit, double deadline, const char* wall_note) {
  if (tricrit) std::cout << "re-executed tasks: " << report.re_executed << "\n";
  std::cout << "solver: " << report.solver << "\nenergy: " << report.energy
            << "\nmakespan: " << report.makespan << " (deadline " << deadline
            << ")\nwall time: " << report.wall_ms << " ms" << wall_note << "\n";
}

/// The frontier points table; local and wire points share its columns.
template <typename Point>
void print_points(const std::vector<Point>& points) {
  common::Table table({"constraint", "energy", "makespan", "solver", "exact"});
  for (const auto& p : points) {
    table.add_row({common::format_g(p.constraint), common::format_g(p.energy),
                   common::format_g(p.makespan), p.solver, p.exact ? "yes" : "no"});
  }
  table.print(std::cout);
}

/// Output-format dispatch shared by both sweep axes.
int emit_frontier(const frontier::FrontierResult& result, const Args& args) {
  if (!result.error.is_ok()) return fail("frontier sweep failed", result.error);
  if (args.csv) {
    frontier::write_frontier_csv(result, std::cout);
  } else if (args.json) {
    frontier::write_frontier_json(result, std::cout);
  } else {
    print_points(result.points);
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
  return 0;
}

int emit_comparison(const frontier::FrontierComparison& comparison,
                    const Args& args) {
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
  return 0;
}

// ---- local verbs ------------------------------------------------------------

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

/// Runs `body` on the one engine the flags configure, then writes the
/// --trace-out file. An engine that cannot be created exits 1.
int with_engine(const Args& args, const std::function<int(engine::Engine&)>& body) {
  engine::EngineConfig config;
  config.threads = args.threads;
  config.cache_max_entries = args.cache_cap;
  config.cache_max_bytes = args.cache_cap_bytes.value_or(0);
  config.max_queued_jobs = args.max_queued;
  config.metrics = !args.no_metrics;
  if (!args.trace_out.empty()) config.trace_capacity = 4096;
  if (!args.store_path.empty()) {
    config.store_path = args.store_path;
    config.store_mode = args.store_mode;
    config.store_warm_start = args.warm_start;
  }
  auto created = engine::Engine::create(std::move(config));
  if (!created.is_ok()) return fail("cannot create engine", created.status());
  engine::Engine& eng = created.value();
  const int rc = body(eng);
  if (args.trace_out.empty()) return rc;
  std::ofstream out(args.trace_out);
  if (!out) {
    std::cerr << "cannot open trace file " << args.trace_out << "\n";
  } else if (!eng.write_trace_json(out)) {
    std::cerr << "tracing is disabled on this engine; trace file not written\n";
  } else if (eng.trace() != nullptr && eng.trace()->recorded() == 0) {
    // Valid-but-empty document: only engine *jobs* leave spans, and
    // some verbs run through the synchronous conveniences.
    std::cerr << "note: " << args.trace_out
              << " has no job spans (this run used no async jobs)\n";
  }
  return rc;
}

/// --stream: the engine's frontier observer, printing each point as the
/// sweep discovers it. Under --csv/--json the stream goes to stderr so
/// stdout stays machine-parseable.
std::function<void(const frontier::FrontierPoint&)> make_streamer(const Args& args) {
  if (!args.stream) return {};
  const bool to_stderr = args.csv || args.json;
  return [to_stderr](const frontier::FrontierPoint& p) {
    std::ostream& out = to_stderr ? std::cerr : std::cout;
    out << "stream: " << common::format_g(p.constraint) << " -> "
        << common::format_g(p.energy) << " [" << p.solver << "]\n";
  };
}

int run_frontier(Args& args) {
  // --resweep takes the old and the changed instance; plain sweeps one.
  if (args.positional.size() != (args.resweep ? 2u : 1u)) {
    return fail(args.resweep ? "frontier --resweep takes exactly two dag files (old, new)"
                             : "frontier mode takes exactly one dag file");
  }
  if (args.resweep && !args.solvers.empty()) {
    return fail("--resweep and --solvers cannot be combined");
  }
  const auto plan = plan_sweep(args);
  if (!plan.is_ok()) return fail(plan.status().message());
  const SweepPlan& sweep = plan.value();
  std::vector<serve::BuiltProblem> problems;
  for (const auto& path : args.positional) {
    auto problem = load_problem(args, path, sweep.anchor, sweep.frel);
    if (!problem.is_ok()) return fail(path, problem.status());
    problems.push_back(std::move(problem).take());
  }
  if (sweep.reliability && sweep.lo < problems[0]->speeds.fmin()) {
    return fail("--rmin/--rmax must satisfy fmin <= rmin <= rmax <= fmax");
  }

  frontier::FrontierOptions fopt;
  fopt.initial_points = args.points;
  fopt.max_points = args.max_points;
  fopt.solver = args.solver_name;
  auto query_for = [&](const serve::BuiltProblem& problem) {
    return sweep.reliability
               ? engine::FrontierQuery::reliability(problem, sweep.lo, sweep.hi, fopt)
               : engine::FrontierQuery::deadline(problem, sweep.lo, sweep.hi, fopt);
  };

  return with_engine(args, [&](engine::Engine& eng) {
    int rc = 0;
    if (!args.solvers.empty()) {
      // Comparisons sweep each solver through Engine::compare on the same
      // cache, store and pool.
      rc = emit_comparison(eng.compare(query_for(problems[0]), args.solvers), args);
    } else if (args.resweep) {
      // Sweep the old instance, then report the changed instance's curve
      // (bit-identical to its cold sweep) warm-started from the old one.
      engine::ResweepQuery query;
      query.prev = eng.sweep(query_for(problems[0]));
      if (!args.csv && !args.json) {
        std::cout << "old instance '" << args.positional[0] << "': "
                  << query.prev.points.size() << " frontier points from "
                  << query.prev.evaluated << " evaluations in "
                  << common::format_fixed(query.prev.wall_ms, 1) << " ms; resweeping '"
                  << args.positional[1] << "'\n\n";
      }
      query.target = query_for(problems[1]);
      query.target.observer = make_streamer(args);
      rc = emit_frontier(eng.submit(std::move(query)).get(), args);
    } else {
      engine::FrontierQuery query = query_for(problems[0]);
      query.observer = make_streamer(args);
      rc = emit_frontier(eng.submit(std::move(query)).get(), args);
    }
    if (args.csv || args.json || rc != 0) return rc;
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
    return rc;
  });
}

/// Offline maintenance of a solve-store log: easched_cli store <op> <file>.
int run_store(Args& args) {
  if (args.positional.size() != 2) return fail("store takes <stat|verify|compact> <log-file>");
  const std::string& op = args.positional[0];
  const std::string& path = args.positional[1];
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
  if (op == "stat" || op == "verify") {
    const bool verify = op == "verify";
    const auto stats =
        verify ? store::SolveStore::verify(path) : store::SolveStore::stat(path);
    if (!stats.is_ok()) {
      std::cerr << (verify ? "verify FAILED: " : "stat failed: ")
                << stats.status().to_string() << "\n";
      return 1;
    }
    std::cout << "store log '" << path
              << (verify ? "' verified: every record decodes\n" : "':\n");
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
  return fail("unknown store operation '" + op + "'");
}

/// Several dag files: one engine batch query on the worker pool, or —
/// with --jobs — one asynchronous engine job per file (the submit path:
/// every file gets its own JobHandle and the table joins the futures).
int run_batch(const Args& args, const std::vector<api::BatchJob>& jobs) {
  return with_engine(args, [&](engine::Engine& eng) {
    api::BatchReport report;
    if (args.jobs) {
      const auto start = std::chrono::steady_clock::now();
      std::vector<engine::Engine::SolveHandle> handles;
      handles.reserve(jobs.size());
      for (const auto& job : jobs) {
        handles.push_back(eng.submit(engine::SolveQuery(job.problem, args.solver_name)));
      }
      std::vector<common::Result<api::SolveReport>> results;
      results.reserve(handles.size());
      for (auto& handle : handles) results.push_back(handle.get());
      report = api::aggregate_batch(jobs, std::move(results));
      report.wall_ms = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    } else {
      report = eng.solve_batch(jobs, args.solver_name);
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
    return report.failed == 0 ? 0 : 1;
  });
}

int run_solve(Args& args) {
  std::vector<api::BatchJob> jobs;
  if (const int rc = load_jobs(args, jobs); rc != 0) return rc;
  if (jobs.size() > 1) return run_batch(args, jobs);

  const core::Problem& p = *jobs[0].problem;
  return with_engine(args, [&](engine::Engine& eng) {
    const common::Result<api::SolveReport> result = eng.solve(p, args.solver_name);
    if (!result.is_ok()) return fail("solve failed", result.status());
    const api::SolveReport& report = result.value();
    if (!p.check(report.schedule).is_ok()) {
      std::cerr << "internal error: schedule failed validation\n";
      return 1;
    }
    print_solve(report, p.reliability.has_value(), p.deadline, "");
    if (args.gantt) sched::write_gantt(std::cout, p.dag, p.mapping, report.schedule);
    if (args.csv) sched::write_timeline_csv(std::cout, p.dag, p.mapping, report.schedule);
    return 0;
  });
}

// ---- simulate -----------------------------------------------------------------

/// The simulator's platform: --ladder picks the 7-level discrete
/// frequency/voltage table (VDD-HOPPING with --vdd), --levels/--fmin/
/// --fmax work exactly like everywhere else.
common::Result<sim::SimConfig> make_sim_config(const Args& args) {
  sim::SimConfig config;
  try {
    config.speeds =
        args.ladder   ? model::DvfsLadder::xscale7().speed_model(args.vdd)
        : !args.levels ? model::SpeedModel::continuous(args.fmin, args.fmax)
        : args.vdd     ? model::SpeedModel::vdd_hopping(*args.levels)
                       : model::SpeedModel::discrete(*args.levels);
  } catch (const std::exception& e) {
    return common::Status::invalid(std::string("speed model rejected: ") + e.what());
  }
  config.static_power = args.static_power;
  config.wake_energy = args.wake_energy;
  return config;
}

/// The validated policy list: --policies subset, or all four.
common::Result<std::vector<std::string>> sim_policy_list(const Args& args) {
  std::vector<std::string> policies =
      args.policies.empty() ? sim::policy_names() : args.policies;
  for (const auto& name : policies) {
    auto p = sim::make_policy(name);
    if (!p.is_ok()) return p.status();
  }
  return policies;
}

/// easched_cli simulate: replay a seeded corpus of arrival streams under
/// the online DVFS policies and score each against the clairvoyant
/// offline oracle. Everything printed or exported is bit-identical
/// across runs and thread counts for the same seed. metrics --simulate
/// runs the same corpus and dumps the engine's registry instead.
int run_simulate(Args& args) {
  auto policies = sim_policy_list(args);
  if (!policies.is_ok()) return fail("simulate: " + policies.status().to_string());
  const auto made = make_sim_config(args);
  if (!made.is_ok()) return fail("simulate: " + made.status().to_string());
  const sim::SimConfig& config = made.value();
  const auto classes = sim::default_task_classes(args.periodic);

  return with_engine(args, [&](engine::Engine& eng) {
    const auto metrics =
        sim::run_policy_corpus(classes, args.streams, args.horizon, args.sim_seed,
                               policies.value(), config, eng.metrics(), args.threads);
    if (args.simulate) {
      if (args.json) {
        eng.write_metrics_json(std::cout);
      } else {
        eng.write_metrics_text(std::cout);
      }
      return 0;
    }

    // One oracle solve per stream (the traces replay deterministically
    // from the seed, so regeneration is exact).
    std::vector<sim::OracleReport> oracles;
    for (int s = 0; s < args.streams; ++s) {
      const auto trace = sim::make_trace(classes, args.horizon, args.sim_seed,
                                         static_cast<std::uint64_t>(s));
      auto oracle = sim::oracle_baseline(trace, config, eng);
      if (!oracle.is_ok()) {
        return fail("simulate: oracle solve failed on stream " + std::to_string(s),
                    oracle.status());
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
        for (const double v : {m.total_energy(), m.dynamic_energy, m.static_energy,
                               m.wake_energy, oracle.energy,
                               m.total_energy() / oracle.energy}) {
          out.add_value(obs::format_double(v));
        }
        for (const auto n : {m.deadline_misses, m.completions, m.freq_transitions,
                             m.wakeups}) {
          out.add_value(std::to_string(n));
        }
        for (const double v : {m.busy_time, m.idle_time, m.sleep_time, m.span}) {
          out.add_value(obs::format_double(v));
        }
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
                   common::format_pct(completions == 0
                                          ? 0.0
                                          : static_cast<double>(misses) /
                                                static_cast<double>(completions))});
    }
    agg.print(std::cout);

    if (args.sim_out.empty()) return 0;
    if (auto st = out.write_file(args.sim_out); !st.is_ok()) {
      std::cerr << "simulate: cannot write " << args.sim_out << ": " << st.to_string()
                << "\n";
      return 1;
    }
    std::cout << "\nwrote " << out.rows() << " rows to " << args.sim_out << "\n";
    return 0;
  });
}

/// easched_cli metrics: run the solves like the default verb, then dump
/// the engine's metric registry instead of the per-solve reports — the
/// local twin of `remote stat --deep`.
int run_metrics(Args& args) {
  if (args.simulate) return run_simulate(args);
  std::vector<api::BatchJob> jobs;
  if (const int rc = load_jobs(args, jobs); rc != 0) return rc;
  return with_engine(args, [&](engine::Engine& eng) {
    int failed = 0;
    for (const auto& job : jobs) {
      const auto result = eng.solve(*job.problem, args.solver_name);
      if (!result.is_ok()) {
        std::cerr << job.family << ": solve failed: " << result.status().to_string() << "\n";
        ++failed;
      }
    }
    if (args.json) {
      eng.write_metrics_json(std::cout);
    } else {
      eng.write_metrics_text(std::cout);
    }
    return failed == 0 ? 0 : 1;
  });
}

// ---- serve / remote -------------------------------------------------------

/// Splits "host:port"; false on a malformed spec.
bool parse_host_port(const std::string& spec, std::string& host, int& port) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0) return false;
  const auto parsed = parse_number<int>(spec.substr(colon + 1));
  if (!parsed || *parsed < 0 || *parsed > 65535) return false;
  host = spec.substr(0, colon);
  port = *parsed;
  return true;
}

serve::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

/// serve's default --cache-cap-bytes.
constexpr std::size_t kServeCacheCapBytes = std::size_t{4} << 20;

int run_serve(Args& args) {
  serve::ServerConfig config;
  if (!parse_host_port(args.listen, config.host, config.port)) {
    return fail("serve needs --listen host:port, got '" + args.listen + "'");
  }
  config.tenant_quota = args.tenant_quota;
  config.default_job_deadline_ms = args.job_deadline_ms;
  // A daemon serves for ever: bound its decoded answers by default.
  if (!args.cache_cap_bytes) args.cache_cap_bytes = kServeCacheCapBytes;

  return with_engine(args, [&](engine::Engine& eng) {
    auto server = serve::Server::create(&eng, config);
    if (!server.is_ok()) return fail("cannot start daemon", server.status());
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
    return status.is_ok() ? 0 : fail("serve loop failed", status);
  });
}

/// Connects to the remote verbs' daemon as --tenant.
common::Result<serve::Client> connect(const Args& args) {
  std::string host;
  int port = 0;
  if (!parse_host_port(args.endpoint, host, port)) {
    return common::Status::invalid("expected host:port, got '" + args.endpoint + "'");
  }
  return serve::Client::connect(host, port, args.tenant);
}

/// Sends one request on a fresh connection: the daemon's answer, or the
/// status of the step that failed.
template <typename Request, typename Response>
common::Result<Response> ask(const Args& args, Request request,
                             common::Result<Response> (serve::Client::*call)(Request)) {
  auto client = connect(args);
  if (!client.is_ok()) return client.status();
  auto response = (client.value().*call)(std::move(request));
  if (response.is_ok() && !response.value().status.is_ok()) return response.value().status;
  return response;
}

int run_remote_solve(Args& args) {
  if (args.positional.size() != 1 || args.deadline <= 0.0) {
    return fail("remote solve takes one <dag-file> and --deadline D");
  }
  serve::SolveRequest request;
  auto spec = read_spec(args, args.positional[0], args.deadline, args.frel);
  if (!spec.is_ok()) return fail(args.positional[0], spec.status());
  request.problem = std::move(spec).take();
  request.solver = args.solver_name;
  request.job_deadline_ms = args.job_deadline_ms;
  const bool tricrit = request.problem.tricrit;
  const auto response = ask(args, std::move(request), &serve::Client::solve);
  if (!response.is_ok()) return fail("remote solve", response.status());
  print_solve(response.value(), tricrit, args.deadline, " (daemon-side)");
  return 0;
}

int run_remote_sweep(Args& args) {
  if (args.positional.size() != 1) return fail("remote sweep takes one <dag-file>");
  const auto plan = plan_sweep(args);
  if (!plan.is_ok()) return fail(plan.status().message());
  const SweepPlan& sweep = plan.value();
  serve::SweepRequest request;
  auto spec = read_spec(args, args.positional[0], sweep.anchor, sweep.frel);
  if (!spec.is_ok()) return fail(args.positional[0], spec.status());
  request.problem = std::move(spec).take();
  request.axis =
      sweep.reliability ? serve::WireAxis::kReliability : serve::WireAxis::kDeadline;
  request.lo = sweep.lo;
  request.hi = sweep.hi;
  request.initial_points = args.points;
  request.max_points = args.max_points;
  request.solver = args.solver_name;
  request.job_deadline_ms = args.job_deadline_ms;
  const auto response = ask(args, std::move(request), &serve::Client::sweep);
  if (!response.is_ok()) return fail("remote sweep", response.status());
  const auto& r = response.value();
  print_points(r.points);
  std::cout << "\nfrontier: " << r.points.size() << " points (" << r.infeasible
            << " infeasible) from " << r.evaluated << " evaluations, "
            << r.cache_hits << " cache hits";
  if (r.prefetched > 0) std::cout << " (" << r.prefetched << " prefetched)";
  std::cout << "  wall: " << common::format_fixed(r.wall_ms, 1) << " ms (daemon-side)\n";
  return 0;
}

int run_remote_stat(Args& args) {
  auto client = connect(args);
  if (!client.is_ok()) return fail("remote stat", client.status());
  auto stat = client.value().stat();
  if (!stat.is_ok()) return fail("remote stat", stat.status());
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
  if (!args.deep) return 0;
  // One scrape of the daemon's whole registry, emitted as-is.
  auto scraped = client.value().metrics(args.json ? serve::MetricsFormat::kJson
                                                  : serve::MetricsFormat::kText);
  if (!scraped.is_ok()) return fail("metrics scrape failed", scraped.status());
  std::cout << "\n" << scraped.value().body;
  return 0;
}

// ---- the verb table ---------------------------------------------------------

struct Verb {
  const char* name;  // solve is the default: its words start at argv[1]
  unsigned bit;
  const char* synopsis;
  int (*run)(Args&);
};

const Verb kVerbs[] = {
    {"solve", kSolve, "<dag-file>... --deadline D", run_solve},
    {"frontier", kFrontier,
     "frontier <dag-file> [<new.dag> --resweep] (--dmin A --dmax B | --deadline D "
     "--rmin A --rmax B)",
     run_frontier},
    {"metrics", kMetrics, "metrics (<dag-file>... --deadline D | --simulate)", run_metrics},
    {"simulate", kSimulate, "simulate", run_simulate},
    {"serve", kServe, "serve --listen host:port", run_serve},
    {"store", kStore, "store <stat|verify|compact> <log-file>", run_store},
    {"remote solve", kRemoteSolve, "remote <host:port> solve <dag-file> --deadline D",
     run_remote_solve},
    {"remote sweep", kRemoteSweep,
     "remote <host:port> sweep <dag-file> (--dmin A --dmax B | --deadline D --rmin A "
     "--rmax B)",
     run_remote_sweep},
    {"remote stat", kRemoteStat, "remote <host:port> stat", run_remote_stat},
};

const Verb* find_verb(const std::string& name) {
  for (const auto& verb : kVerbs) {
    if (name == verb.name) return &verb;
  }
  return nullptr;
}

int usage() {
  std::cerr << "usage:\n";
  for (const auto& verb : kVerbs) std::cerr << "  easched_cli " << verb.synopsis << "\n";
  std::cerr << "\noptions [the verbs that read them]:\n";
  for (const auto& flag : kFlags) {
    std::string head = flag.name;
    if (flag.value != nullptr) head += std::string(" ") + flag.value;
    std::cerr << "  " << head << std::string(head.size() < 24 ? 24 - head.size() : 1, ' ')
              << flag.help << " [";
    const char* sep = "";
    for (const auto& verb : kVerbs) {
      if ((flag.verbs & verb.bit) == 0) continue;
      std::cerr << sep << verb.name;
      sep = ", ";
    }
    std::cerr << "]\n";
  }
  return 2;
}

/// Parses words[first..) for `verb`; the error, or empty on success.
std::string parse_args(const std::vector<std::string>& words, std::size_t first,
                       const Verb& verb, Args& args) {
  for (std::size_t i = first; i < words.size(); ++i) {
    const std::string& word = words[i];
    if (word.rfind("--", 0) != 0) {
      args.positional.push_back(word);
      continue;
    }
    const auto flag = std::find_if(std::begin(kFlags), std::end(kFlags),
                                   [&](const Flag& f) { return word == f.name; });
    if (flag == std::end(kFlags)) {
      return "unknown option " + word + " (run easched_cli alone for the usage)";
    }
    if ((flag->verbs & verb.bit) == 0) return word + " does not apply to " + verb.name;
    std::string value;
    if (flag->value != nullptr) {
      if (++i == words.size()) return "missing value for " + word;
      value = words[i];
    }
    if (const std::string expected = flag->parse(args, value); !expected.empty()) {
      return word + ": expected " + expected + ", got '" + value + "'";
    }
  }
  // --slack scales every deadline the verbs pass on, so requests keep
  // the default slack of 1 and solver and feasibility check agree.
  if (args.deadline > 0.0) args.deadline *= args.slack;
  if (args.dmin) *args.dmin *= args.slack;
  if (args.dmax) *args.dmax *= args.slack;
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> words(argv + 1, argv + argc);
  if (words.empty()) return usage();
  const Verb* verb = &kVerbs[0];
  std::size_t first = 0;
  Args args;
  if (words[0] == "remote") {
    if (words.size() < 3) return fail("remote takes <host:port> <solve|sweep|stat>");
    args.endpoint = words[1];
    verb = find_verb("remote " + words[2]);
    if (verb == nullptr) return fail("unknown remote operation '" + words[2] + "'");
    first = 3;
  } else if (const Verb* named = find_verb(words[0]);
             named != nullptr && (named->bit & (kSolve | kRemoteVerbs)) == 0) {
    verb = named;
    first = 1;
  }
  if (const std::string error = parse_args(words, first, *verb, args); !error.empty()) {
    return fail(error);
  }
  if (args.list_solvers) return list_solvers();
  return verb->run(args);
}
