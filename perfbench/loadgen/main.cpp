// perfbench_loadgen — drives one workload of the serving benchmark
// against a freshly started daemon and writes raw measurements as JSON.
//
//   perfbench_loadgen --workload serve-warm|serve-cold|sweep --seed N
//                     --seconds S --trace 0|1 --cli <easched_cli>
//                     --workdir <dir> --out <file.json> [--trace-out <file>]
//
// Exit code 0 when every request was answered and every answer checked
// out; 1 on a mismatch or a failed request; 2 on a usage or start-up
// error. perfbench/run.py turns the JSON into the benchmark's metrics.

#include <sys/prctl.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "loadgen.hpp"

namespace perfbench {
namespace {

using namespace easched;

// ---- arguments --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cli;
  std::string workdir;
  std::string out;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--cli") {
      args.cli = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else if (flag == "--out") {
      args.out = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args.workload.empty() && !args.cli.empty() &&
         !args.workdir.empty() && !args.out.empty() && args.seconds > 0.0;
}

// ---- the connections -------------------------------------------------------

/// One request on the wire: which generated item it carries and when it
/// was due and sent.
struct Sent {
  std::size_t item = 0;
  int kind = 0;  ///< SweepKind of a sweep request
  bool sweep = false;
  bool traced = false;
  std::uint64_t span = 0;  ///< request id shared by the request's spans
  Clock::time_point due;
  Clock::time_point sent;
};

struct Done {
  Sent req;
  Clock::time_point done;
  serve::SolveResponse solve;
  serve::SweepResponse sweep;
};

/// The benchmark's kConnections connections, used round-robin from this
/// one thread. Every request is tracked until its response is taken.
class Fleet {
 public:
  explicit Fleet(SpanLog& spans) : spans_(spans) {}

  bool connect(int port, std::string* error) {
    clients_.clear();
    pending_.assign(kConnections, {});
    for (int c = 0; c < kConnections; ++c) {
      auto client = serve::Client::connect("127.0.0.1", port, kTenant);
      if (!client.is_ok()) {
        *error = "connect: " + client.status().to_string();
        return false;
      }
      clients_.push_back(std::move(client).take());
    }
    return true;
  }
  void close() {
    clients_.clear();
    pending_.clear();
  }

  serve::Client& control() { return clients_[0]; }
  std::size_t outstanding() const {
    std::size_t n = 0;
    for (const auto& p : pending_) n += p.size();
    return n;
  }
  std::uint64_t sent_count() const noexcept { return sent_; }
  Clock::time_point last_sent() const noexcept { return last_sent_; }
  std::uint64_t received_count() const noexcept { return received_; }

  template <typename Request>
  bool send(Request request, Sent s) {
    const std::size_t c = next_++ % clients_.size();
    request.request_id = clients_[c].next_request_id();
    s.span = ++span_ids_;
    s.sweep = std::is_same<Request, serve::SweepRequest>::value;
    const auto t0 = Clock::now();
    const bool ok = clients_[c].send(request).is_ok();
    s.sent = Clock::now();
    if (s.traced) {
      send_us.push_back(1000.0 * ms_between(t0, s.sent));
      spans_.add(Span{s.span, "serve.send", "request", t0, s.sent});
    }
    pending_[c][request.request_id] = s;
    last_sent_ = s.sent;
    ++sent_;
    return ok;
  }

  /// Polls every connection once without blocking and moves answered
  /// requests into `done`. False when a connection died.
  bool collect(std::vector<Done>& done) {
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      if (pending_[c].empty()) continue;
      const auto t0 = Clock::now();
      if (!clients_[c].poll(0).is_ok()) return false;
      const auto polled = Clock::now();
      std::size_t got = 0;
      bool traced = false;
      for (auto it = pending_[c].begin(); it != pending_[c].end();) {
        Done d;
        const bool taken = it->second.sweep ? clients_[c].take_sweep(it->first, &d.sweep)
                                            : clients_[c].take_solve(it->first, &d.solve);
        if (!taken) {
          ++it;
          continue;
        }
        d.req = it->second;
        d.done = polled;
        traced = traced || d.req.traced;
        done.push_back(std::move(d));
        it = pending_[c].erase(it);
        ++got;
      }
      received_ += got;
      if (got > 0 && traced) {
        const auto t1 = Clock::now();
        recv_us.push_back(1000.0 * ms_between(t0, t1) / static_cast<double>(got));
        for (std::size_t k = done.size() - got; k < done.size(); ++k) {
          const Done& d = done[k];
          if (!d.req.traced) continue;
          spans_.add(Span{d.req.span, "serve.recv", "request", t0, t1});
          spans_.add(Span{d.req.span, "request", "", d.req.due, t1});
        }
      }
    }
    return true;
  }

  std::vector<double> send_us;  ///< Client::send, traced requests only
  std::vector<double> recv_us;  ///< poll + take_* per response, traced only

 private:
  SpanLog& spans_;
  std::vector<serve::Client> clients_;
  std::vector<std::map<std::uint64_t, Sent>> pending_;  ///< per connection
  std::size_t next_ = 0;
  std::uint64_t span_ids_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
  Clock::time_point last_sent_;
};

/// Sleeps one idle slice, or until `until` if that comes first. Timer
/// slack is set to 1 ns at start-up, so a slice is not rounded up by the
/// kernel's default 50 us.
void idle_until(Clock::time_point until, std::chrono::microseconds slice) {
  std::this_thread::sleep_until(std::min(until, Clock::now() + slice));
}

// ---- the run ---------------------------------------------------------------

constexpr int kSetups = 11;  ///< timed set-ups per run, after one untimed
constexpr std::size_t kWarmProblems = 64;
constexpr std::size_t kReplaySample = 48;
constexpr std::size_t kColdChunk = 256;
constexpr double kWarmUpSeconds = 0.5;
constexpr double kTraceBlockMs = 250.0;  ///< traced and untraced blocks alternate
constexpr double kRoundSeconds = 5.0;  ///< serve-* rounds: one open and one closed slice
/// Replayed requests get span ids far above the live requests' ids.
constexpr std::uint64_t kReplayIds = 1ULL << 40;

class Run {
 public:
  explicit Run(Args args) : args_(std::move(args)), spans_(args_.trace), fleet_(spans_) {}

  int main() {
    const bool serve = args_.workload == "serve-warm" || args_.workload == "serve-cold";
    if (!serve && args_.workload != "sweep") {
      std::cerr << "unknown workload '" << args_.workload << "'\n";
      return 2;
    }
    store_path_ = args_.workdir + "/daemon-store.log";
    // Warm hits and warm sweeps come back in well under a millisecond, so
    // the generator polls every 20 us. On serve-cold the pool is saturated
    // and answers take milliseconds: a 200 us slice leaves the daemon's
    // workers the CPU the generator would burn.
    idle_slice_ = std::chrono::microseconds(args_.workload == "serve-cold" ? 200 : 20);
    start_ = Clock::now();

    if (!prepare_inputs()) return 2;
    // The first set-up also pays for a cold page cache and binary; it is
    // not counted. The one after it starts the daemon the workload runs
    // on; the other timed set-ups are spread over the run (see
    // spare_set_ups), so their median does not hang on one moment of a
    // host whose speed drifts.
    if (spare_set_ups(0) < 0.0) return 2;
    setups_.clear();
    const double s = set_up(store_path_, daemon_, fleet_, &primed_);
    if (s < 0.0) return 2;
    setups_.push_back(s);

    const bool ok = args_.workload == "serve-warm"   ? serve_workload(/*warm=*/true)
                    : args_.workload == "serve-cold" ? serve_workload(/*warm=*/false)
                                                     : sweep_workload();
    if (!ok || spare_set_ups(kSetups) < 0.0) return finish(2);
    report_.series("setup_s", setups_);
    report_.number("setup_s", median(setups_));
    account();
    report_.number("peak_rss_mb", daemon_->peak_rss_mb());
    fleet_.close();
    if (!daemon_->stop(/*graceful=*/true)) report_.error("daemon did not exit cleanly");
    const double open_ms = store_open_ms(store_path_, 5);
    if (open_ms < 0.0) report_.error("cannot reopen the daemon's store log");
    report_.number("store.open_ms", open_ms);
    replay_sample();
    return finish(report_.errors() == 0 ? 0 : 1);
  }

 private:
  // ---- inputs ----

  bool prepare_inputs() {
    if (args_.workload == "serve-warm") {
      problems_ = make_problems(args_.seed, 32, kWarmProblems, 0.0);
    } else if (args_.workload == "serve-cold") {
      // Open-loop needs ~rate x duration; the closed loop extends on demand.
      const double expected = kColdRate * open_seconds() + 600.0 * closed_seconds();
      while (problems_.size() < static_cast<std::size_t>(expected)) extend_cold();
    } else {
      problems_ = make_problems(args_.seed, 24, static_cast<std::size_t>(25.0 * args_.seconds) + 8,
                                0.0);
    }
    return !problems_.empty();
  }

  /// Cold problems come in fixed seeded chunks, so problem i is the same
  /// at a seed however many the closed loop ends up using.
  void extend_cold() {
    const std::uint64_t chunk = problems_.size() / kColdChunk;
    auto more = make_problems(args_.seed * 1000003ULL + chunk, 32, kColdChunk, 0.25);
    problems_.insert(problems_.end(), more.begin(), more.end());
  }

  double open_seconds() const { return 0.6 * args_.seconds; }
  double closed_seconds() const { return 0.4 * args_.seconds; }
  int rounds() const { return std::max(1, static_cast<int>(args_.seconds / kRoundSeconds + 0.5)); }

  // ---- set-up ----

  /// Starts a fresh daemon on a fresh store at `store`, connects `fleet`
  /// to it and, on serve-warm, primes it into `primed`. Returns the
  /// seconds it took, or -1.
  double set_up(const std::string& store, std::unique_ptr<Daemon>& daemon, Fleet& fleet,
                std::vector<serve::SolveResponse>* primed) {
    std::remove(store.c_str());
    const auto t0 = Clock::now();
    std::string error;
    daemon = Daemon::start(args_.cli, store, &error);
    if (!daemon || !fleet.connect(daemon->port(), &error)) {
      std::cerr << "set-up failed: " << error << "\n";
      return -1.0;
    }
    if (args_.workload == "serve-warm" && !prime(fleet, primed)) return -1.0;
    return ms_between(t0, Clock::now()) / 1000.0;
  }

  /// Times set-ups of a spare daemon (started, connected, primed, then
  /// killed) until `target` set-ups are counted, the workload's own
  /// included. The spare's priming answers must equal the workload
  /// daemon's. Returns the seconds spent, or -1 when one failed.
  double spare_set_ups(int target) {
    const auto t0 = Clock::now();
    for (int k = static_cast<int>(setups_.size()); k < std::max(target, 1); ++k) {
      SpanLog off(false);
      Fleet fleet(off);
      std::unique_ptr<Daemon> daemon;
      std::vector<serve::SolveResponse> primed;
      const double s = set_up(args_.workdir + "/spare-store.log", daemon, fleet, &primed);
      spare_requests_ += fleet.sent_count();
      fleet.close();
      if (daemon) daemon->stop(/*graceful=*/false);
      if (s < 0.0) return -1.0;
      setups_.push_back(s);
      for (std::size_t i = 0; i < primed.size() && i < primed_.size(); ++i) {
        if (primed[i].energy != primed_[i].energy || primed[i].makespan != primed_[i].makespan) {
          report_.error("a spare daemon primed item " + std::to_string(i) + " to energy " +
                        json_number(primed[i].energy) + ", the workload's " +
                        json_number(primed_[i].energy));
        }
      }
    }
    return ms_between(t0, Clock::now()) / 1000.0;
  }

  /// The share of kSetups that should be counted once `done` of the run
  /// has passed.
  static int setups_due(double done) {
    return 1 + static_cast<int>(done * (kSetups - 1) + 0.5);
  }

  /// Sends each warm problem once over `fleet` and keeps its answer in
  /// `primed`: the energy every later hit must repeat.
  bool prime(Fleet& fleet, std::vector<serve::SolveResponse>* primed) {
    primed->assign(problems_.size(), serve::SolveResponse{});
    std::vector<Done> done;
    for (std::size_t i = 0; i < problems_.size(); ++i) {
      Sent s;
      s.item = i;
      s.due = Clock::now();
      if (!fleet.send(solve_request(i), s)) return false;
    }
    if (!drain(fleet, done)) return false;
    for (const Done& d : done) {
      if (!d.solve.status.is_ok()) {
        report_.error("priming item " + std::to_string(d.req.item) + ": " +
                      d.solve.status.to_string());
      }
      (*primed)[d.req.item] = d.solve;
    }
    return true;
  }

  serve::SolveRequest solve_request(std::size_t item) const {
    serve::SolveRequest request;
    request.problem = spec_of(problems_[item]);
    return request;
  }

  /// Waits for every outstanding request of `fleet` (at most 60 s).
  bool drain(std::vector<Done>& done) { return drain(fleet_, done); }
  bool drain(Fleet& fleet, std::vector<Done>& done) {
    const auto limit = Clock::now() + std::chrono::seconds(60);
    while (fleet.outstanding() > 0) {
      if (!fleet.collect(done)) {
        std::cerr << "a connection died with " << fleet.outstanding() << " outstanding\n";
        return false;
      }
      if (Clock::now() > limit) {
        std::cerr << fleet.outstanding() << " requests unanswered after 60 s\n";
        return false;
      }
      idle_until(Clock::now() + idle_slice_, idle_slice_);
    }
    return true;
  }

  // ---- scrapes ----

  bool scrape(const std::string& name) {
    const double at = ms_between(start_, Clock::now());
    auto metrics = fleet_.control().metrics(serve::MetricsFormat::kJson);
    auto stat = fleet_.control().stat();
    if (!metrics.is_ok() || !stat.is_ok()) {
      std::cerr << "scrape " << name << " failed\n";
      return false;
    }
    report_.scrape(name, metrics.value().body, stat.value(), at);
    return true;
  }

  // ---- serve-warm / serve-cold ----

  static constexpr double kWarmRate = 4000.0;
  static constexpr double kColdRate = 100.0;
  static constexpr std::size_t kWarmWindow = 32;
  static constexpr std::size_t kColdWindow = 64;

  bool serve_workload(bool warm) {
    warm_ = warm;
    common::Rng rng(args_.seed ^ 0x5e7e5eedULL);
    const double rate = warm ? kWarmRate : kColdRate;
    const std::size_t window = warm ? kWarmWindow : kColdWindow;
    std::size_t next_cold = 0;
    const std::function<std::size_t()> next_item = [&]() -> std::size_t {
      if (warm) return static_cast<std::size_t>(rng.below(problems_.size()));
      while (next_cold >= problems_.size()) extend_cold();
      return next_cold++;
    };

    // ---- open loop: Poisson arrivals at a fixed offered rate ----
    // Offsets are in open-loop time: the rounds below play it in slices.
    std::vector<std::pair<double, std::size_t>> schedule;  // (due ms, item)
    for (double t = rng.exponential(rate / 1000.0); t < 1000.0 * open_seconds();
         t += rng.exponential(rate / 1000.0)) {
      schedule.emplace_back(t, next_item());
    }
    // Unmeasured warm-up: the daemon's threads, allocator and the CPUs
    // under it get going before the first timed request.
    if (!closed_loop(window, kWarmUpSeconds, next_item).ok) return false;

    std::vector<Done> done;
    std::vector<double> latency, traced_latency, untraced_latency, lateness_ms;
    std::vector<std::pair<double, double>> backlog;  // (due ms, outstanding)
    const auto take = [&] {
      for (const Done& d : done) {
        const double ms = ms_between(d.req.due, d.done);
        latency.push_back(ms);
        (d.req.traced ? traced_latency : untraced_latency).push_back(ms);
        check_solve(d);
        open_answers_.push_back({d.req.item, d.req.due, d.solve.energy, d.solve.makespan});
      }
      done.clear();
    };
    // The host's speed drifts over tens of seconds, so the two phases
    // alternate in rounds: each metric then averages over the whole run
    // rather than over the stretch its phase happened to get.
    const int rounds = this->rounds();
    const double slice_ms = 1000.0 * open_seconds() / rounds;
    double open_wall_ms = 0.0, backlog_end = 0.0;
    ClosedLoop closed;
    std::vector<double> round_p50, round_p90, round_rps;
    std::size_t next = 0;
    for (int r = 0; r < rounds; ++r) {
      const std::string tag = "." + std::to_string(r);
      if (!scrape("open_before" + tag)) return false;
      const std::size_t first = latency.size();
      const double base_ms = r * slice_ms;
      const auto t0 = Clock::now() + std::chrono::milliseconds(5);
      for (; next < schedule.size() && schedule[next].first < base_ms + slice_ms; ++next) {
        const auto [at_ms, item] = schedule[next];
        const auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(at_ms - base_ms));
        while (Clock::now() < due) {
          if (!fleet_.collect(done)) return false;
          take();
          idle_until(due, idle_slice_);
        }
        Sent s;
        s.item = item;
        s.due = due;
        s.traced = spans_.enabled() && traced_block(at_ms);
        backlog.emplace_back(at_ms, static_cast<double>(fleet_.outstanding()));
        if (!fleet_.send(solve_request(item), s)) return false;
        lateness_ms.push_back(ms_between(due, fleet_.last_sent()));
      }
      backlog_end = std::max(backlog_end, static_cast<double>(fleet_.outstanding()));
      open_wall_ms += ms_between(t0, Clock::now());
      if (!drain(done)) return false;
      take();
      if (!scrape("open_after" + tag)) return false;
      const std::vector<double> slice(latency.begin() + first, latency.end());
      round_p50.push_back(percentile(slice, 0.5));
      round_p90.push_back(percentile(slice, 0.9));

      // ---- closed loop: a fixed window of outstanding requests ----
      if (!scrape("closed_before" + tag)) return false;
      const ClosedLoop c = closed_loop(window, closed_seconds() / rounds, next_item);
      if (!c.ok || !scrape("closed_after" + tag)) return false;
      closed.completed += c.completed;
      closed.answered += c.answered;
      closed.wall_s += c.wall_s;
      round_rps.push_back(static_cast<double>(c.completed) / c.wall_s);
      if (spare_set_ups(setups_due((r + 1.0) / rounds)) < 0.0) return false;
    }

    report_.number("rounds", rounds);
    report_.series("open.round_p50_ms", round_p50);
    report_.series("open.round_p90_ms", round_p90);
    report_.series("closed.round_rps", round_rps);
    report_.number("open.backlog_end", backlog_end);
    report_.number("open.requests", static_cast<double>(latency.size()));
    report_.number("open.offered_rps", rate);
    report_.number("open.achieved_rps",
                   1000.0 * static_cast<double>(latency.size()) / open_wall_ms);
    // The reported figures are medians over the rounds: a round that a
    // host stall hit does not move them.
    report_.number("latency_p50_ms", median(round_p50));
    report_.number("latency_p90_ms", median(round_p90));
    report_.number("open.p50_ms", percentile(latency, 0.5));
    report_.number("lateness_p99_ms", percentile(lateness_ms, 0.99));
    report_.number("lateness_max_ms", percentile(lateness_ms, 1.0));
    report_backlog(backlog, 1000.0 * open_seconds());
    if (spans_.enabled()) {
      report_.number("trace.overhead_ms",
                     percentile(traced_latency, 0.5) - percentile(untraced_latency, 0.5));
    }
    report_.number("throughput_rps", median(round_rps));
    report_.number("closed.window", static_cast<double>(window));
    report_.number("closed.completed", static_cast<double>(closed.completed));
    report_.number("closed.wall_s", closed.wall_s);
    report_.number("measured.requests",
                   static_cast<double>(latency.size() + closed.answered));
    return true;
  }

  struct ClosedLoop {
    bool ok = false;
    std::size_t completed = 0;  ///< answers inside the window
    std::size_t answered = 0;   ///< every answer, the drained tail included
    double wall_s = 0.0;        ///< phase start to the last answer inside it
  };

  /// Keeps `window` requests outstanding for `seconds`, sending the next
  /// item as each answer arrives, then drains the tail. Every answer is
  /// checked as it lands.
  ClosedLoop closed_loop(std::size_t window, double seconds,
                         const std::function<std::size_t()>& next_item) {
    ClosedLoop out;
    std::vector<Done> done;
    const auto c0 = Clock::now();
    const auto c_end =
        c0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
    const auto send_next = [&](Clock::time_point now) {
      Sent s;
      s.item = next_item();
      s.due = now;
      return fleet_.send(solve_request(s.item), s);
    };
    for (std::size_t k = 0; k < window; ++k) {
      if (!send_next(Clock::now())) return out;
    }
    Clock::time_point last_done = c0;
    while (Clock::now() < c_end) {
      if (!fleet_.collect(done)) return out;
      const auto now = Clock::now();
      for (const Done& d : done) {
        check_solve(d);
        ++out.answered;
        if (d.done > c_end) continue;
        ++out.completed;
        last_done = std::max(last_done, d.done);
        if (!send_next(now)) return out;
      }
      if (done.empty()) idle_until(c_end, idle_slice_);
      done.clear();
    }
    out.wall_s = ms_between(c0, last_done) / 1000.0;
    if (!drain(done)) return out;
    for (const Done& d : done) check_solve(d);
    out.answered += done.size();
    out.ok = true;
    return out;
  }

  bool traced_block(double at_ms) const {
    return static_cast<long long>(at_ms / kTraceBlockMs) % 2 == 1;
  }

  /// Median outstanding requests at send time in the first and the last
  /// quarter of the open-loop phase: a backlog that grows means the
  /// offered rate is above what the daemon serves. Medians, so that one
  /// host stall, whose queue drains within milliseconds, does not read as
  /// growth.
  void report_backlog(const std::vector<std::pair<double, double>>& backlog, double span_ms) {
    std::vector<double> first, last;
    for (const auto& [at, n] : backlog) {
      if (at < 0.25 * span_ms) {
        first.push_back(n);
      } else if (at >= 0.75 * span_ms) {
        last.push_back(n);
      }
    }
    report_.number("open.backlog_first_quarter", first.empty() ? 0.0 : median(first));
    report_.number("open.backlog_last_quarter", last.empty() ? 0.0 : median(last));
  }

  void check_solve(const Done& d) {
    if (!d.solve.status.is_ok()) {
      report_.error("request for item " + std::to_string(d.req.item) + ": " +
                    d.solve.status.to_string());
      return;
    }
    if (!warm_) return;  // cold answers are checked by the in-process replay
    const serve::SolveResponse& p = primed_[d.req.item];
    if (d.solve.energy != p.energy || d.solve.makespan != p.makespan) {
      report_.error("warm hit for item " + std::to_string(d.req.item) + " returned energy " +
                    json_number(d.solve.energy) + ", primed " + json_number(p.energy));
    }
  }

  // ---- sweep ----

  enum SweepKind { kCold = 0, kWarm = 1, kResweep = 2 };

  serve::SweepRequest sweep_request(const Problem& p, std::size_t base_item) const {
    serve::SweepRequest request;
    request.problem = spec_of(p);
    request.axis = serve::WireAxis::kDeadline;
    request.lo = 0.9 * problems_[base_item].makespan_fmax;
    request.hi = 3.0 * problems_[base_item].makespan_fmax;
    return request;
  }

  /// One sweep with nothing else in flight; false when the connection died.
  bool sweep_once(serve::SweepRequest request, std::size_t item, int kind, Done* out) {
    Sent s;
    s.item = item;
    s.kind = kind;
    s.due = Clock::now();
    // Traced and untraced blocks of 8 instances: each block holds every
    // corpus family once, so the two halves see the same mix.
    s.traced = spans_.enabled() && (item / kSweepBlock) % 2 == 1;
    if (!fleet_.send(std::move(request), s)) return false;
    std::vector<Done> done;
    while (done.empty()) {
      if (!fleet_.collect(done)) return false;
      if (done.empty()) idle_until(Clock::now() + idle_slice_, idle_slice_);
    }
    *out = std::move(done.front());
    return true;
  }

  static bool same_curve(const serve::SweepResponse& a, const serve::SweepResponse& b) {
    if (a.points.size() != b.points.size()) return false;
    for (std::size_t i = 0; i < a.points.size(); ++i) {
      const serve::WirePoint& p = a.points[i];
      const serve::WirePoint& q = b.points[i];
      if (p.constraint != q.constraint || p.energy != q.energy || p.makespan != q.makespan ||
          p.solver != q.solver || p.exact != q.exact) {
        return false;
      }
    }
    return true;
  }

  bool sweep_workload() {
    // Unmeasured warm-up: cold sweeps of instances the run never measures.
    const auto warm_up = make_problems(args_.seed ^ 0x3a11f00dULL, 24, 8, 0.0);
    const auto warm_up_end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(kWarmUpSeconds));
    for (std::size_t k = 0; k < warm_up.size() && Clock::now() < warm_up_end; ++k) {
      serve::SweepRequest request;
      request.problem = spec_of(warm_up[k]);
      request.lo = 0.9 * warm_up[k].makespan_fmax;
      request.hi = 3.0 * warm_up[k].makespan_fmax;
      Done d;
      if (!sweep_once(std::move(request), k, kCold, &d)) return false;
      if (!d.sweep.status.is_ok()) report_.error("warm-up sweep: " + d.sweep.status.to_string());
    }
    if (!scrape("sweep_before")) return false;
    std::vector<double> cold_ms, warm_ms, resweep_ms, all_ms;
    std::vector<double> traced_cold, untraced_cold;
    double probes = 0.0, evaluated = 0.0, infeasible = 0.0, hits = 0.0, prefetched = 0.0;
    const auto t0 = Clock::now();
    auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(args_.seconds));
    std::size_t i = 0;
    // Spare set-ups run between instances; the time they take is added
    // to `end` and taken off the measured wall.
    double spare_s = 0.0;
    // Per block of kSweepBlock instances (every corpus family once): the
    // reported figures are medians over the whole blocks.
    std::vector<double> block_p50, block_p90, block_rps;
    auto block_t0 = t0;
    double block_spare_s = 0.0;
    for (; i < problems_.size() && (i < 3 || Clock::now() < end); ++i) {
      const double done = (ms_between(t0, Clock::now()) / 1000.0 - spare_s) / args_.seconds;
      const double spent = spare_set_ups(setups_due(std::min(1.0, done)));
      if (spent < 0.0) return false;
      spare_s += spent;
      block_spare_s += spent;
      end += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(spent));
      Done cold, warm, resweep;
      if (!sweep_once(sweep_request(problems_[i], i), i, kCold, &cold)) return false;
      if (!sweep_once(sweep_request(problems_[i], i), i, kWarm, &warm)) return false;
      serve::SweepRequest changed = sweep_request(scale_task0(problems_[i], 1.05), i);
      changed.prev_probes = cold.sweep.probes;
      if (!sweep_once(std::move(changed), i, kResweep, &resweep)) return false;

      for (const Done* d : {&cold, &warm, &resweep}) {
        const double ms = ms_between(d->req.sent, d->done);
        all_ms.push_back(ms);
        if (!d->sweep.status.is_ok()) {
          report_.error("sweep kind " + std::to_string(d->req.kind) + " of item " +
                        std::to_string(i) + ": " + d->sweep.status.to_string());
        }
      }
      cold_ms.push_back(ms_between(cold.req.sent, cold.done));
      (cold.req.traced ? traced_cold : untraced_cold).push_back(cold_ms.back());
      warm_ms.push_back(ms_between(warm.req.sent, warm.done));
      resweep_ms.push_back(ms_between(resweep.req.sent, resweep.done));
      if (!same_curve(cold.sweep, warm.sweep)) {
        report_.error("warm sweep of item " + std::to_string(i) + " differs from its cold sweep");
      }
      probes += static_cast<double>(cold.sweep.probes.size());
      evaluated += static_cast<double>(cold.sweep.evaluated);
      infeasible += static_cast<double>(cold.sweep.infeasible);
      hits += static_cast<double>(resweep.sweep.cache_hits);
      prefetched += static_cast<double>(resweep.sweep.prefetched);
      if (sweeps_.size() < kSweepSample) sweeps_.push_back({i, cold.sweep, resweep.sweep});
      if ((i + 1) % kSweepBlock == 0) {
        const std::vector<double> block(cold_ms.end() - kSweepBlock, cold_ms.end());
        block_p50.push_back(percentile(block, 0.5));
        block_p90.push_back(percentile(block, 0.9));
        const auto now = Clock::now();
        block_rps.push_back(3.0 * kSweepBlock /
                            (ms_between(block_t0, now) / 1000.0 - block_spare_s));
        block_t0 = now;
        block_spare_s = 0.0;
      }
    }
    const double wall_s = ms_between(t0, Clock::now()) / 1000.0 - spare_s;
    if (!scrape("sweep_after")) return false;
    const double n = static_cast<double>(i);
    report_.number("sweeps", n);
    const bool blocks = !block_p50.empty();
    report_.series("sweep.block_p50_ms", block_p50);
    report_.series("sweep.block_rps", block_rps);
    report_.number("latency_p50_ms", blocks ? median(block_p50) : percentile(cold_ms, 0.5));
    report_.number("latency_p90_ms", blocks ? median(block_p90) : percentile(cold_ms, 0.9));
    report_.number("sweep_cold_p50_ms", percentile(cold_ms, 0.5));
    report_.number("sweep_warm_p50_ms", percentile(warm_ms, 0.5));
    report_.number("resweep_p50_ms", percentile(resweep_ms, 0.5));
    double all_sum = 0.0;
    for (const double v : all_ms) all_sum += v;
    report_.number("sweep.client_mean_ms", all_sum / static_cast<double>(all_ms.size()));
    report_.number("throughput_rps", blocks ? median(block_rps) : 3.0 * n / wall_s);
    report_.number("measured.requests", 3.0 * n);
    report_.number("frontier.sweep_probes", probes / n);
    report_.number("frontier.infeasible_ratio", evaluated > 0.0 ? infeasible / evaluated : 0.0);
    report_.number("frontier.prefetch_useful_ratio", prefetched > 0.0 ? hits / prefetched : 0.0);
    if (spans_.enabled()) {
      report_.number("trace.overhead_ms",
                     percentile(traced_cold, 0.5) - percentile(untraced_cold, 0.5));
    }
    return verify_resweeps();
  }

  /// Each sampled resweep must equal, bit for bit, a cold sweep of the
  /// changed instance — run here under a tenant of its own, whose cache
  /// namespace has never seen the instance.
  bool verify_resweeps() {
    auto verifier = serve::Client::connect("127.0.0.1", daemon_->port(), "verify");
    if (!verifier.is_ok()) {
      std::cerr << "verify connection: " << verifier.status().to_string() << "\n";
      return false;
    }
    for (const SweepSample& s : sweeps_) {
      auto cold =
          verifier.value().sweep(sweep_request(scale_task0(problems_[s.item], 1.05), s.item));
      ++verify_requests_;
      if (!cold.is_ok() || !cold.value().status.is_ok()) {
        report_.error("verification sweep of item " + std::to_string(s.item) + " failed");
      } else if (!same_curve(cold.value(), s.resweep)) {
        report_.error("resweep of item " + std::to_string(s.item) +
                      " differs from a cold sweep of the changed instance");
      }
    }
    return true;
  }

  // ---- accounting, replay, output ----

  /// Every request sent on the benchmark tenant was answered exactly once
  /// (the Fleet takes each response by id, once), and the daemon's own
  /// per-tenant counters agree.
  void account() {
    const std::uint64_t sent = fleet_.sent_count();
    const std::uint64_t received = fleet_.received_count();
    if (fleet_.outstanding() != 0 || sent != received) {
      report_.error(std::to_string(sent) + " requests sent, " + std::to_string(received) +
                    " answered");
    }
    auto stat = fleet_.control().stat();
    if (!stat.is_ok()) {
      report_.error("final stat: " + stat.status().to_string());
    } else if (stat.value().tenant_accepted != sent ||
               stat.value().tenant_completed != received) {
      report_.error("daemon counted " + std::to_string(stat.value().tenant_accepted) +
                    " accepted / " + std::to_string(stat.value().tenant_completed) +
                    " completed, the generator " + std::to_string(sent) + " / " +
                    std::to_string(received));
    }
    report_.number("attempted",
                   static_cast<double>(fleet_.sent_count() + verify_requests_ + spare_requests_));
  }

  /// Replays a deterministic sample of this run's own requests through the
  /// public layer calls (and checks cold answers against an in-process solve).
  void replay_sample() {
    std::vector<ReplayItem> items;
    const bool sweep = args_.workload == "sweep";
    if (sweep) {
      for (const SweepSample& s : sweeps_) {
        ReplayItem it;
        it.request = kReplayIds + s.item;
        it.problem = problems_[s.item];
        it.probes = s.cold.probes;
        const serve::SweepRequest r = sweep_request(problems_[s.item], s.item);
        it.lo = r.lo;
        it.hi = r.hi;
        it.sweep_wall_ms = s.cold.wall_ms;
        items.push_back(std::move(it));
      }
    } else {
      // The open loop's requests, in schedule order, are fixed by the seed.
      std::vector<const OpenAnswer*> order;
      for (const OpenAnswer& a : open_answers_) order.push_back(&a);
      std::sort(order.begin(), order.end(),
                [](const OpenAnswer* a, const OpenAnswer* b) { return a->due < b->due; });
      // Each problem once: a repeated store put is a no-op and would read
      // as a fast append.
      std::vector<bool> chosen(problems_.size(), false);
      const std::size_t stride = std::max<std::size_t>(1, order.size() / kReplaySample);
      for (std::size_t k = 0; k < order.size() && items.size() < kReplaySample; k += stride) {
        while (k < order.size() && chosen[order[k]->item]) ++k;
        if (k == order.size()) break;
        const OpenAnswer& a = *order[k];
        chosen[a.item] = true;
        ReplayItem it;
        it.request = kReplayIds + k;
        it.problem = problems_[a.item];
        it.energy = a.energy;
        it.makespan = a.makespan;
        items.push_back(std::move(it));
      }
    }
    const ReplayResult r = replay(items, sweep, args_.workdir, spans_);
    for (const auto& m : r.mismatches) report_.error(m);
    report_.number("replay.items", static_cast<double>(items.size()));
    report_.number("replay.checked", static_cast<double>(r.checked));
    for (const auto& [name, samples] : r.samples) report_.number(name, median(samples));
    std::vector<double> ipm_ms;
    for (const auto& [solver, ms] : r.solve_ms) {
      report_.number("api.solve_ms." + solver, median(ms));
      if (solver == "continuous-ipm") ipm_ms = ms;
    }
    report_.number("api.solve_ipm_ms", ipm_ms.empty() ? 0.0 : median(ipm_ms));
    double steps = 0.0;
    for (const long long s : r.newton_steps) steps += static_cast<double>(s);
    const double ipm_solves = static_cast<double>(r.newton_steps.size());
    report_.number("opt.newton_steps", ipm_solves > 0.0 ? steps / ipm_solves : 0.0);
    if (!r.sweep_serial_over_wall.empty()) {
      report_.number("sweep.serial_over_wall", median(r.sweep_serial_over_wall));
    }
    double solve_sum = 0.0, solves = 0.0;
    for (const auto& [solver, ms] : r.solve_ms) {
      for (const double v : ms) solve_sum += v;
      solves += static_cast<double>(ms.size());
    }
    report_.number("api.solve_mean_ms", solves > 0.0 ? solve_sum / solves : 0.0);
  }

  int finish(int code) {
    if (spans_.enabled()) {
      report_.number("serve.send_us", median(fleet_.send_us));
      report_.number("serve.recv_us", median(fleet_.recv_us));
      for (const auto& [name, us] : spans_.self_time_p50_us()) {
        report_.number("self_us." + name, us);
      }
      if (!args_.trace_out.empty()) {
        std::ofstream trace(args_.trace_out);
        spans_.write_chrome_json(trace);
      }
    }
    report_.number("failed", static_cast<double>(report_.errors()));
    std::ofstream out(args_.out);
    report_.write(out);
    if (!out) {
      std::cerr << "cannot write " << args_.out << "\n";
      return 2;
    }
    return code;
  }

  struct SweepSample {
    std::size_t item = 0;
    serve::SweepResponse cold;
    serve::SweepResponse resweep;
  };
  static constexpr std::size_t kSweepSample = 4;
  static constexpr std::size_t kSweepBlock = 8;  ///< core::standard_corpus has 8 families

  Args args_;
  SpanLog spans_;
  Fleet fleet_;
  Report report_;
  std::unique_ptr<Daemon> daemon_;
  std::string store_path_;
  Clock::time_point start_;
  std::vector<Problem> problems_;
  std::vector<serve::SolveResponse> primed_;
  /// What the replay needs of each open-loop answer.
  struct OpenAnswer {
    std::size_t item = 0;
    Clock::time_point due;
    double energy = 0.0;
    double makespan = 0.0;
  };
  std::vector<OpenAnswer> open_answers_;
  bool warm_ = false;
  std::vector<SweepSample> sweeps_;
  std::uint64_t verify_requests_ = 0;
  std::uint64_t spare_requests_ = 0;  ///< priming requests of spare daemons
  std::vector<double> setups_;  ///< timed set-ups, in seconds
  std::chrono::microseconds idle_slice_{20};
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench_loadgen --workload W --seed N --seconds S --trace 0|1\n"
                 "         --cli PATH --workdir DIR --out FILE [--trace-out FILE]\n";
    return 2;
  }
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  return perfbench::Run(std::move(args)).main();
}
