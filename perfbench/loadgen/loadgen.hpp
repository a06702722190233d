#pragma once
// perfbench_loadgen — the single-threaded load generator of the serving
// benchmark (perfbench/run.py drives it; see perfbench/README.md).
//
// It starts the real daemon (`easched_cli serve`) as a child process,
// drives one named workload over at most kConnections connections with
// the public serve::Client, checks every answer, replays a sample of its
// own requests through the library's public layer calls, and writes one
// JSON document of raw measurements for run.py to turn into metrics.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

constexpr int kConnections = 4;
constexpr int kProcessors = 3;
constexpr double kFmin = 0.2;
constexpr double kFmax = 1.0;
constexpr double kFrel = 0.8;
/// Every benchmark connection handshakes as this tenant, so the daemon's
/// cache namespace (and the in-process replay's digests) match.
inline const std::string kTenant = "bench";

// ---- problems (problems.cpp) ---------------------------------------------

/// One generated instance in wire form.
struct Problem {
  std::string family;
  std::string dag_text;
  double makespan_fmax = 0.0;  ///< all-fmax makespan of the 3-processor mapping
  double deadline = 0.0;       ///< 3x makespan_fmax
  bool tricrit = false;
};

/// `count` seeded instances of `tasks` tasks cycling through the
/// core::standard_corpus families; each is TRI-CRIT with probability
/// `tricrit_share`. The same seed gives the same list.
std::vector<Problem> make_problems(std::uint64_t seed, int tasks, std::size_t count,
                                   double tricrit_share);

/// The same instance with task 0's weight multiplied by `factor`.
Problem scale_task0(const Problem& problem, double factor);

easched::serve::ProblemSpec spec_of(const Problem& problem);

// ---- the daemon child process (daemon.cpp) --------------------------------

class Daemon {
 public:
  /// Spawns `cli serve --listen 127.0.0.1:0 --store <store_path>` and
  /// blocks until it prints its listening line. Null (with `error` set)
  /// when it fails to start.
  static std::unique_ptr<Daemon> start(const std::string& cli, const std::string& store_path,
                                       std::string* error);
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  /// Stops the child if stop() was not called.
  ~Daemon();

  int port() const noexcept { return port_; }
  /// The child's VmHWM (peak resident set) in MiB; 0 when unreadable.
  double peak_rss_mb() const;
  /// SIGTERM (graceful) or SIGKILL, drain its output, wait for it. True
  /// when a graceful stop ended in exit code 0 (or the kill was reaped).
  bool stop(bool graceful);

 private:
  Daemon() = default;
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

// ---- spans ----------------------------------------------------------------

/// One timed interval of the traced run. Spans of one request share
/// `request`; `parent` names the enclosing span (empty at the root).
struct Span {
  std::uint64_t request = 0;
  std::string name;
  std::string parent;
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans held in memory and written once, at exit, as Chrome trace JSON.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const noexcept { return enabled_; }
  void add(Span span) {
    if (enabled_) spans_.push_back(std::move(span));
  }
  /// Per span name: median self time in microseconds (duration minus
  /// the part covered by child spans of the same request).
  std::map<std::string, double> self_time_p50_us() const;
  void write_chrome_json(std::ostream& os) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---- in-process layer replay (replay.cpp) ---------------------------------

/// One request of the run replayed through the library's public layer
/// calls, with the daemon's answer to compare against.
struct ReplayItem {
  std::uint64_t request = 0;  ///< span id
  Problem problem;
  /// Solve requests: the daemon's energy/makespan. Sweep requests: the
  /// probe trace of the daemon's cold sweep and its wall time.
  double energy = 0.0;
  double makespan = 0.0;
  std::vector<double> probes;
  double lo = 0.0;
  double hi = 0.0;
  double sweep_wall_ms = 0.0;
};

struct ReplayResult {
  /// Layer name -> per-call samples (microseconds or milliseconds, as the
  /// name's suffix says).
  std::map<std::string, std::vector<double>> samples;
  /// Solver name -> api::solve times in ms.
  std::map<std::string, std::vector<double>> solve_ms;
  /// SolveReport::iterations of every continuous-ipm solve, in order.
  std::vector<long long> newton_steps;
  /// Per replayed sweep: summed serial probe-solve ms / the daemon's sweep wall.
  std::vector<double> sweep_serial_over_wall;
  std::size_t checked = 0;
  std::vector<std::string> mismatches;
};

/// Replays solve requests (`sweep` false) or cold deadline sweeps (`sweep`
/// true). Every layer call is timed; when `spans` is enabled each gets a
/// child span of a "replay" root sharing the item's request id. Solve
/// items are also checked: the in-process api::solve must reproduce the
/// daemon's energy and makespan bit for bit. `scratch_dir` holds the
/// replay's own store log.
ReplayResult replay(const std::vector<ReplayItem>& items, bool sweep,
                    const std::string& scratch_dir, SpanLog& spans);

/// Median open/replay time of the store log at `path`, read-only, in ms;
/// -1 when it cannot be opened.
double store_open_ms(const std::string& path, int repeats);

// ---- report (report.cpp) --------------------------------------------------

double percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// The raw measurement document run.py reads.
class Report {
 public:
  void number(const std::string& name, double value) { numbers_[name] = value; }
  void series(const std::string& name, std::vector<double> values) {
    series_[name] = std::move(values);
  }
  /// A daemon scrape taken around a measured phase: the JSON metrics body
  /// verbatim plus the StatResponse counters.
  void scrape(const std::string& name, const std::string& metrics_json,
              const easched::serve::StatResponse& stat, double at_ms);
  void error(std::string message);
  std::size_t errors() const noexcept { return error_count_; }
  void write(std::ostream& os) const;

 private:
  std::map<std::string, double> numbers_;
  std::map<std::string, std::vector<double>> series_;
  std::map<std::string, std::string> scrapes_;  ///< name -> JSON object text
  std::vector<std::string> error_samples_;
  std::size_t error_count_ = 0;
};

std::string json_string(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench
