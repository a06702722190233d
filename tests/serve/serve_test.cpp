// serve::Server over real loopback TCP: the daemon's acceptance
// properties, exercised with serve::Client and (where the client is
// deliberately too well-behaved) a raw socket:
//   * a remote solve answers exactly what the local api answers;
//   * sweep -> resweep chains through SweepResponse::probes;
//   * the per-tenant quota sheds with OVERLOADED under pipelined load
//     while a second tenant's traffic is still admitted (fairness);
//   * TRI-CRIT solves and reliability-axis sweeps answer exactly what
//     the local api and engine answer; a reliability sweep of a BI-CRIT
//     problem is refused;
//   * a burst past a one-worker daemon's queue sheds the excess as
//     OVERLOADED and serves the rest;
//   * a version-mismatch Hello is refused in the handshake;
//   * a CRC-corrupt frame costs one ErrorResponse, not the connection;
//   * a request sent before the handshake closes the connection.
//   * a repeated solve is served from the problem memo and the engine's
//     cache without a worker hop, still bit-equal to the local api;
//   * an out-of-range processor count is refused before any allocation.
// The whole file must run clean under check.sh --tsan: responses are
// encoded on engine worker threads while the poll loop owns the sockets.

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/registry.hpp"
#include "api/solver.hpp"
#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "graph/analysis.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "sched/list_scheduler.hpp"
#include "serve/client.hpp"
#include "serve/problem.hpp"
#include "serve/protocol.hpp"

namespace easched::serve {
namespace {

/// A reproducible wire problem plus its locally-built equivalent.
struct TestProblem {
  ProblemSpec spec;
  core::Problem local;
};

TestProblem make_problem(std::uint64_t seed, int tasks, double slack) {
  common::Rng rng(seed);
  auto dag = graph::make_random_dag(tasks, 0.2, {1.0, 4.0}, rng);
  const int processors = 3;
  auto mapping = sched::list_schedule(dag, processors,
                                      sched::PriorityPolicy::kCriticalPath);
  std::vector<double> d(static_cast<std::size_t>(dag.num_tasks()));
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    d[static_cast<std::size_t>(t)] = dag.weight(t);
  }
  const double deadline =
      graph::time_analysis(mapping.augmented_graph(dag), d, 0.0).makespan * slack;
  ProblemSpec spec;
  spec.dag_text = graph::to_text(dag);
  spec.processors = processors;
  spec.fmin = 0.1;
  spec.fmax = 1.0;
  spec.deadline = deadline;
  core::Problem local(dag, mapping, model::SpeedModel::continuous(0.1, 1.0), deadline);
  return {std::move(spec), std::move(local)};
}

/// make_problem's instance as TRI-CRIT at threshold speed `frel`, on the
/// wire and locally, with the reliability statics the daemon rebuilds.
TestProblem make_tricrit_problem(std::uint64_t seed, int tasks, double slack,
                                 double frel) {
  TestProblem p = make_problem(seed, tasks, slack);
  p.spec.tricrit = true;
  p.spec.frel = frel;
  p.local.reliability.emplace(p.spec.lambda0, p.spec.dexp, p.spec.fmin, p.spec.fmax, frel);
  return p;
}

/// An Engine + running Server on an ephemeral loopback port. Heap-held:
/// the Server captures the Engine's address, so the Engine must never
/// move after create(). Members declared engine-first so the Server (and
/// its loop thread) is destroyed before the Engine it points into.
struct Daemon {
  std::unique_ptr<engine::Engine> engine;
  std::unique_ptr<Server> server;

  static Daemon start(engine::EngineConfig econfig, ServerConfig sconfig) {
    Daemon daemon;
    auto created = engine::Engine::create(std::move(econfig));
    EXPECT_TRUE(created.is_ok()) << created.status().to_string();
    daemon.engine =
        std::make_unique<engine::Engine>(std::move(created).take());
    auto server = Server::create(daemon.engine.get(), std::move(sconfig));
    EXPECT_TRUE(server.is_ok()) << server.status().to_string();
    daemon.server = std::make_unique<Server>(std::move(server).take());
    EXPECT_TRUE(daemon.server->start().is_ok());
    return daemon;
  }
};

/// A BI-CRIT solver that parks in do_run while the gate is closed, then
/// answers exactly as continuous-ipm does. A sweep run with it holds a
/// one-worker daemon's only worker until the test opens the gate, so
/// tests that need "the sweep is still running" assume no timing.
class GateSolver final : public api::Solver {
 public:
  std::string_view name() const noexcept override { return "test-gate"; }
  const api::Capabilities& capabilities() const noexcept override {
    static const api::Capabilities caps{};  // BI-CRIT, explicit-by-name only
    return caps;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
    entered_ = false;
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  /// Blocks until a solve is parked at the closed gate.
  void wait_entered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }

 protected:
  common::Result<api::SolveReport> do_run(const api::SolveRequest& request) const override {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      entered_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return api::SolverRegistry::instance().find("continuous-ipm")->run(request);
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  mutable bool open_ = true;
  mutable bool entered_ = false;
};

/// The binary's one GateSolver, registered on first use.
GateSolver& gate_solver() {
  static GateSolver* const gate = [] {
    auto owned = std::make_unique<GateSolver>();
    GateSolver* raw = owned.get();
    EXPECT_TRUE(api::SolverRegistry::instance().add(std::move(owned)).is_ok());
    return raw;
  }();
  return *gate;
}

/// Closes the gate for a test's scope. Declare it after the Daemon: it
/// opens the gate on destruction, before the engine drains its jobs, so
/// a failed assertion cannot hang the test.
class GateHold {
 public:
  GateHold() { gate_solver().close(); }
  GateHold(const GateHold&) = delete;
  GateHold& operator=(const GateHold&) = delete;
  ~GateHold() { release(); }
  void release() { gate_solver().open(); }
};

/// Blocks until `count` jobs wait in the engine queue.
void wait_queued(const engine::Engine& engine, std::size_t count) {
  while (engine.queued_jobs() != count) std::this_thread::yield();
}

// ---- raw-socket helpers (for traffic serve::Client refuses to send) ----

int connect_raw(int port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo("127.0.0.1", port_str.c_str(), &hints, &resolved) != 0) return -1;
  const int fd = ::socket(resolved->ai_family, resolved->ai_socktype, 0);
  if (fd >= 0 && ::connect(fd, resolved->ai_addr, resolved->ai_addrlen) != 0) {
    ::close(fd);
    ::freeaddrinfo(resolved);
    return -1;
  }
  ::freeaddrinfo(resolved);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

/// Blocks until the decoder yields one frame; fails the test on EOF.
Frame read_frame(int fd, FrameDecoder& decoder) {
  Frame frame;
  for (;;) {
    const auto result = decoder.next(frame);
    if (result == FrameDecoder::Result::kFrame) return frame;
    EXPECT_EQ(result, FrameDecoder::Result::kNeedMore);
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed while waiting for a frame";
      return frame;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

/// Completes a well-formed version-1 handshake on a raw socket.
void handshake_raw(int fd, FrameDecoder& decoder, const std::string& tenant) {
  Hello hello;
  hello.tenant = tenant;
  send_all(fd, encode_frame(MsgType::kHello, hello.encode()));
  const Frame ack_frame = read_frame(fd, decoder);
  ASSERT_EQ(ack_frame.type, MsgType::kHelloAck);
  auto ack = HelloAck::decode(ack_frame.payload);
  ASSERT_TRUE(ack.is_ok());
  ASSERT_TRUE(ack.value().status.is_ok()) << ack.value().status.to_string();
}

TEST(Serve, RemoteSolveMatchesLocalApi) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(21, 10, 1.6);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  SolveRequest request;
  request.problem = problem.spec;
  auto response = client.value().solve(std::move(request));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  ASSERT_TRUE(response.value().status.is_ok()) << response.value().status.to_string();

  const auto local = api::solve(problem.local);
  ASSERT_TRUE(local.is_ok());
  EXPECT_EQ(response.value().energy, local.value().energy);
  EXPECT_EQ(response.value().makespan, local.value().makespan);
  EXPECT_EQ(response.value().solver, local.value().solver);

  // The daemon's stat view attributes the request to this tenant.
  auto stat = client.value().stat();
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().tenant_accepted, 1u);
  EXPECT_EQ(stat.value().tenant_completed, 1u);
  EXPECT_EQ(stat.value().tenant_shed, 0u);
  EXPECT_GE(stat.value().threads, 1u);

  // A structurally bad problem comes back as a typed failure response,
  // not a dropped connection.
  SolveRequest bad;
  bad.problem = problem.spec;
  bad.problem.dag_text = "not a dag";
  auto bad_response = client.value().solve(std::move(bad));
  ASSERT_TRUE(bad_response.is_ok()) << bad_response.status().to_string();
  EXPECT_EQ(bad_response.value().status.code(), common::StatusCode::kInvalidArgument);

  daemon.server->stop();
}

/// The value of one unlabelled or labelled series line in a text scrape
/// (-1 when absent).
double scraped(const std::string& body, const std::string& series) {
  const std::string prefix = series + " ";
  std::size_t at = body.rfind("\n" + prefix);
  if (at == std::string::npos) {
    if (body.rfind(prefix, 0) != 0) return -1.0;
    at = 0;
  } else {
    ++at;
  }
  return std::stod(body.substr(at + prefix.size()));
}

TEST(Serve, RepeatSolveIsServedFromMemoAndCache) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(28, 10, 1.6);
  const auto local = api::solve(problem.local);
  ASSERT_TRUE(local.is_ok());

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  std::vector<SolveResponse> answers;
  for (int i = 0; i < 2; ++i) {
    SolveRequest request;
    request.problem = problem.spec;
    auto response = client.value().solve(std::move(request));
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    ASSERT_TRUE(response.value().status.is_ok()) << response.value().status.to_string();
    answers.push_back(response.value());
  }
  for (const auto& answer : answers) {
    EXPECT_EQ(answer.energy, local.value().energy);
    EXPECT_EQ(answer.makespan, local.value().makespan);
    EXPECT_EQ(answer.solver, local.value().solver);
    EXPECT_EQ(answer.iterations, local.value().iterations);
    EXPECT_EQ(answer.exact, local.value().exact);
  }
  // The repeat is the stored report itself, solver wall time included.
  EXPECT_EQ(answers[1].wall_ms, answers[0].wall_ms);

  auto scrape = client.value().metrics(MetricsFormat::kText);
  ASSERT_TRUE(scrape.is_ok()) << scrape.status().to_string();
  const std::string& body = scrape.value().body;
  EXPECT_EQ(scraped(body, "easched_serve_problem_memo_misses_total"), 1.0) << body;
  EXPECT_EQ(scraped(body, "easched_serve_problem_memo_hits_total"), 1.0);
  EXPECT_EQ(scraped(body, "easched_serve_problem_memo_evictions_total"), 0.0);
  EXPECT_GT(scraped(body, "easched_serve_problem_memo_bytes"), 0.0);
  EXPECT_LE(scraped(body, "easched_serve_problem_memo_bytes"),
            static_cast<double>(ProblemMemo::kBudgetBytes));
  EXPECT_EQ(scraped(body, "easched_jobs_sync_hits_total{kind=\"solve\"}"), 1.0);

  // Another tenant reuses the built problem but not the answer: its
  // cache namespace is its own, so its first solve is a fresh miss.
  auto other = Client::connect("127.0.0.1", daemon.server->port(), "tenant-b");
  ASSERT_TRUE(other.is_ok()) << other.status().to_string();
  SolveRequest request;
  request.problem = problem.spec;
  auto response = other.value().solve(std::move(request));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(response.value().energy, local.value().energy);
  auto again = other.value().metrics(MetricsFormat::kText);
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(scraped(again.value().body, "easched_serve_problem_memo_hits_total"), 2.0);
  EXPECT_EQ(scraped(again.value().body, "easched_jobs_sync_hits_total{kind=\"solve\"}"),
            1.0);
  EXPECT_EQ(daemon.engine->cache_stats().misses, 2u);

  daemon.server->stop();
}

TEST(Serve, ProcessorCountAboveBoundIsRejected) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(29, 8, 1.6);
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  // Rejected before anything is allocated for the processors.
  for (const std::int32_t processors : {std::numeric_limits<std::int32_t>::max(),
                                        kMaxProcessors + 1, 0}) {
    SolveRequest bad;
    bad.problem = problem.spec;
    bad.problem.processors = processors;
    auto response = client.value().solve(std::move(bad));
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    EXPECT_EQ(response.value().status.code(), common::StatusCode::kInvalidArgument)
        << processors;
  }

  // The daemon still answers on the same connection.
  SolveRequest good;
  good.problem = problem.spec;
  auto response = client.value().solve(std::move(good));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_TRUE(response.value().status.is_ok()) << response.value().status.to_string();
  daemon.server->stop();
}

TEST(Serve, SweepThenResweepChainsThroughProbes) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(22, 10, 1.8);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  ASSERT_TRUE(client.is_ok());

  SweepRequest sweep;
  sweep.problem = problem.spec;
  sweep.axis = WireAxis::kDeadline;
  sweep.lo = problem.spec.deadline * 0.5;
  sweep.hi = problem.spec.deadline;
  sweep.initial_points = 5;
  sweep.max_points = 11;
  auto first = client.value().sweep(sweep);
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  ASSERT_TRUE(first.value().status.is_ok()) << first.value().status.to_string();
  EXPECT_FALSE(first.value().points.empty());
  EXPECT_FALSE(first.value().probes.empty());

  // Resweep warm-started from the first response's probe trace: the
  // returned curve must be bit-identical, with the probes prefetched.
  SweepRequest again = sweep;
  again.request_id = 0;  // let the client assign a fresh id
  again.prev_probes = first.value().probes;
  auto second = client.value().sweep(std::move(again));
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  ASSERT_TRUE(second.value().status.is_ok());
  ASSERT_EQ(second.value().points.size(), first.value().points.size());
  for (std::size_t i = 0; i < first.value().points.size(); ++i) {
    EXPECT_EQ(second.value().points[i].constraint, first.value().points[i].constraint);
    EXPECT_EQ(second.value().points[i].energy, first.value().points[i].energy);
    EXPECT_EQ(second.value().points[i].solver, first.value().points[i].solver);
  }

  daemon.server->stop();
}

TEST(Serve, RemoteTriCritSolveMatchesLocalApi) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_tricrit_problem(31, 10, 2.0, 0.8);
  const auto local = api::solve(problem.local);
  ASSERT_TRUE(local.is_ok()) << local.status().to_string();
  ASSERT_EQ(local.value().problem, api::ProblemKind::kTriCrit);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  SolveRequest request;
  request.problem = problem.spec;
  auto response = client.value().solve(std::move(request));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  ASSERT_TRUE(response.value().status.is_ok()) << response.value().status.to_string();
  EXPECT_EQ(response.value().energy, local.value().energy);
  EXPECT_EQ(response.value().makespan, local.value().makespan);
  EXPECT_EQ(response.value().solver, local.value().solver);
  EXPECT_EQ(response.value().iterations, local.value().iterations);
  EXPECT_EQ(response.value().re_executed, local.value().re_executed);
  EXPECT_EQ(response.value().exact, local.value().exact);
  daemon.server->stop();
}

TEST(Serve, RemoteReliabilitySweepMatchesLocalEngine) {
  auto daemon = Daemon::start({}, {});
  const double rmin = 0.5;
  const double rmax = 0.9;
  // The daemon anchors a reliability sweep at frel = hi.
  const auto problem = make_tricrit_problem(32, 8, 2.2, rmax);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  SweepRequest sweep;
  sweep.problem = problem.spec;
  sweep.problem.frel = 0.7;  // overridden per probe: the axis sets frel
  sweep.axis = WireAxis::kReliability;
  sweep.lo = rmin;
  sweep.hi = rmax;
  sweep.initial_points = 5;
  sweep.max_points = 9;
  auto remote = client.value().sweep(sweep);
  ASSERT_TRUE(remote.is_ok()) << remote.status().to_string();
  ASSERT_TRUE(remote.value().status.is_ok()) << remote.value().status.to_string();
  EXPECT_EQ(remote.value().axis, WireAxis::kReliability);

  auto local_engine = engine::Engine::create({});
  ASSERT_TRUE(local_engine.is_ok());
  frontier::FrontierOptions fopt;
  fopt.initial_points = sweep.initial_points;
  fopt.max_points = sweep.max_points;
  const auto local = local_engine.value().sweep(
      engine::FrontierQuery::reliability(problem.local, rmin, rmax, fopt));
  ASSERT_TRUE(local.error.is_ok()) << local.error.to_string();
  ASSERT_FALSE(local.points.empty());
  ASSERT_EQ(remote.value().points.size(), local.points.size());
  for (std::size_t i = 0; i < local.points.size(); ++i) {
    EXPECT_EQ(remote.value().points[i].constraint, local.points[i].constraint);
    EXPECT_EQ(remote.value().points[i].energy, local.points[i].energy);
    EXPECT_EQ(remote.value().points[i].makespan, local.points[i].makespan);
    EXPECT_EQ(remote.value().points[i].solver, local.points[i].solver);
    EXPECT_EQ(remote.value().points[i].exact, local.points[i].exact);
  }
  EXPECT_EQ(remote.value().probes, local.probes);
  daemon.server->stop();
}

TEST(Serve, ReliabilitySweepOfBiCritSpecIsRejected) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(33, 8, 1.6);
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "tenant-a");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();
  SweepRequest sweep;
  sweep.problem = problem.spec;
  sweep.axis = WireAxis::kReliability;
  sweep.lo = 0.5;
  sweep.hi = 0.9;
  auto response = client.value().sweep(std::move(sweep));
  ASSERT_TRUE(response.is_ok()) << response.status().to_string();
  EXPECT_EQ(response.value().status.code(), common::StatusCode::kInvalidArgument)
      << response.value().status.to_string();
  EXPECT_TRUE(response.value().points.empty());
  daemon.server->stop();
}

TEST(Serve, OverloadBurstShedsTheExcessAndServesTheRest) {
  engine::EngineConfig econfig;
  econfig.threads = 1;
  econfig.max_queued_jobs = 4;
  ServerConfig sconfig;
  sconfig.tenant_quota = 8;
  auto daemon = Daemon::start(std::move(econfig), std::move(sconfig));
  GateHold hold;

  const auto problem = make_problem(34, 8, 1.6);
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "burst");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  // A burst of 16 distinct sweeps (each deadline perturbed, so none rides
  // the cache). The first parks the only worker at the gate, so the rest
  // all arrive while the daemon can queue at most four of them.
  constexpr int kBurst = 16;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kBurst; ++i) {
    SweepRequest request;
    request.request_id = client.value().next_request_id();
    request.problem = problem.spec;
    request.problem.deadline = problem.spec.deadline * (1.0 + 0.01 * i);
    request.axis = WireAxis::kDeadline;
    request.lo = request.problem.deadline * 0.5;
    request.hi = request.problem.deadline;
    request.initial_points = 5;
    request.max_points = 9;
    if (i == 0) request.solver = std::string(gate_solver().name());
    ASSERT_TRUE(client.value().send(request).is_ok());
    ids.push_back(request.request_id);
    if (i == 0) gate_solver().wait_entered();
  }
  while (daemon.server->stats().requests < static_cast<std::uint64_t>(kBurst)) {
    std::this_thread::yield();
  }
  hold.release();

  std::size_t shed = 0;
  std::size_t served = 0;
  for (const auto id : ids) {
    auto response = client.value().wait_sweep(id);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    const common::Status& status = response.value().status;
    if (status.code() == common::StatusCode::kOverloaded) {
      ++shed;
    } else {
      EXPECT_TRUE(status.is_ok()) << status.to_string();
      EXPECT_FALSE(response.value().points.empty());
      ++served;
    }
  }
  // The gated sweep and the four it queued are served; the sixth request
  // already met a full queue.
  EXPECT_GE(served, 5u);
  EXPECT_GE(shed, 1u);
  EXPECT_EQ(served + shed, static_cast<std::size_t>(kBurst));
  EXPECT_EQ(daemon.server->stats().shed, shed);
  daemon.server->stop();
}

TEST(Serve, TenantQuotaShedsWhileOtherTenantIsServed) {
  engine::EngineConfig econfig;
  econfig.threads = 1;  // one worker: the gated sweep holds it while solves pile up
  ServerConfig sconfig;
  sconfig.tenant_quota = 1;
  auto daemon = Daemon::start(std::move(econfig), std::move(sconfig));
  GateHold hold;

  const auto slow = make_problem(23, 16, 1.7);
  const auto quick = make_problem(24, 8, 1.6);

  auto hog = Client::connect("127.0.0.1", daemon.server->port(), "hog");
  auto polite = Client::connect("127.0.0.1", daemon.server->port(), "polite");
  ASSERT_TRUE(hog.is_ok());
  ASSERT_TRUE(polite.is_ok());

  // The hog's sweep (filling its quota of 1) parks at the gate on the
  // single worker; its four pipelined solves then all hit the quota while
  // the sweep is provably still in flight.
  SweepRequest sweep;
  sweep.request_id = hog.value().next_request_id();
  sweep.problem = slow.spec;
  sweep.axis = WireAxis::kDeadline;
  sweep.lo = slow.spec.deadline * 0.5;
  sweep.hi = slow.spec.deadline;
  sweep.initial_points = 9;
  sweep.max_points = 33;
  sweep.solver = std::string(gate_solver().name());
  ASSERT_TRUE(hog.value().send(sweep).is_ok());
  gate_solver().wait_entered();

  std::vector<std::uint64_t> shed_ids;
  for (int i = 0; i < 4; ++i) {
    SolveRequest request;
    request.request_id = hog.value().next_request_id();
    request.problem = quick.spec;
    ASSERT_TRUE(hog.value().send(request).is_ok());
    shed_ids.push_back(request.request_id);
  }
  std::size_t shed = 0;
  for (const auto id : shed_ids) {
    auto response = hog.value().wait_solve(id);
    ASSERT_TRUE(response.is_ok()) << response.status().to_string();
    if (response.value().status.code() == common::StatusCode::kOverloaded) ++shed;
  }
  EXPECT_EQ(shed, shed_ids.size());  // every over-quota request was shed

  // The other tenant's quota is its own: its solve is admitted (queued
  // behind the gated sweep on the single worker, never shed) and served
  // once the gate opens.
  SolveRequest polite_request;
  polite_request.request_id = polite.value().next_request_id();
  polite_request.problem = quick.spec;
  ASSERT_TRUE(polite.value().send(polite_request).is_ok());
  wait_queued(*daemon.engine, 1);
  hold.release();
  auto polite_response = polite.value().wait_solve(polite_request.request_id);
  ASSERT_TRUE(polite_response.is_ok()) << polite_response.status().to_string();
  EXPECT_TRUE(polite_response.value().status.is_ok())
      << polite_response.value().status.to_string();

  auto swept = hog.value().wait_sweep(sweep.request_id);
  ASSERT_TRUE(swept.is_ok()) << swept.status().to_string();
  EXPECT_TRUE(swept.value().status.is_ok()) << swept.value().status.to_string();

  auto stat = hog.value().stat();
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().tenant_shed, shed_ids.size());
  EXPECT_EQ(stat.value().tenant_accepted, 1u);

  // The daemon-wide view aggregates both tenants: the hog's four shed
  // requests, and accepted = hog sweep + polite solve (+ the stat itself).
  const ServerStats totals = daemon.server->stats();
  EXPECT_EQ(totals.shed, shed_ids.size());
  EXPECT_GE(totals.accepted, 2u);
  EXPECT_EQ(totals.deadline_exceeded, 0u);

  daemon.server->stop();
}

TEST(Serve, DeadlineExceededIsCountedPerTenant) {
  engine::EngineConfig econfig;
  econfig.threads = 1;  // one worker: the gated sweep holds it past the solve deadline
  auto daemon = Daemon::start(std::move(econfig), {});
  GateHold hold;

  const auto slow = make_problem(25, 16, 1.7);
  const auto quick = make_problem(26, 8, 1.6);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "deadliner");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  // A gated sweep occupies the single worker; a solve whose job deadline
  // is effectively already expired queues behind it. When the gate opens
  // and the worker picks the solve up, its deadline has passed, so it
  // completes without solving.
  SweepRequest sweep;
  sweep.request_id = client.value().next_request_id();
  sweep.problem = slow.spec;
  sweep.axis = WireAxis::kDeadline;
  sweep.lo = slow.spec.deadline * 0.5;
  sweep.hi = slow.spec.deadline;
  sweep.initial_points = 9;
  sweep.max_points = 33;
  sweep.solver = std::string(gate_solver().name());
  ASSERT_TRUE(client.value().send(sweep).is_ok());
  gate_solver().wait_entered();

  SolveRequest doomed;
  doomed.request_id = client.value().next_request_id();
  doomed.problem = quick.spec;
  doomed.job_deadline_ms = 1e-6;
  ASSERT_TRUE(client.value().send(doomed).is_ok());
  wait_queued(*daemon.engine, 1);
  hold.release();

  auto doomed_response = client.value().wait_solve(doomed.request_id);
  ASSERT_TRUE(doomed_response.is_ok()) << doomed_response.status().to_string();
  EXPECT_EQ(doomed_response.value().status.code(),
            common::StatusCode::kDeadlineExceeded);

  auto swept = client.value().wait_sweep(sweep.request_id);
  ASSERT_TRUE(swept.is_ok());
  EXPECT_TRUE(swept.value().status.is_ok()) << swept.value().status.to_string();

  // The expiry is attributed to this tenant in its stat view and to the
  // daemon's lifetime totals — distinctly from sheds (the job was
  // admitted; it expired, it was not rejected).
  auto stat = client.value().stat();
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().tenant_deadline_exceeded, 1u);
  EXPECT_EQ(stat.value().tenant_shed, 0u);
  EXPECT_EQ(stat.value().tenant_accepted, 2u);

  const ServerStats totals = daemon.server->stats();
  EXPECT_EQ(totals.deadline_exceeded, 1u);
  EXPECT_EQ(totals.shed, 0u);

  daemon.server->stop();
}

TEST(Serve, MetricsScrapeOverLoopback) {
  auto daemon = Daemon::start({}, {});
  const auto problem = make_problem(27, 8, 1.6);

  auto client = Client::connect("127.0.0.1", daemon.server->port(), "scraper");
  ASSERT_TRUE(client.is_ok()) << client.status().to_string();

  SolveRequest request;
  request.problem = problem.spec;
  ASSERT_TRUE(client.value().solve(std::move(request)).is_ok());

  // Text scrape: the per-tenant serve counters and the engine's job
  // metrics land in one exposition document. The scrape is itself a
  // request and is counted before serialization, so it sees itself:
  // requests = solve + this scrape.
  auto text = client.value().metrics(MetricsFormat::kText);
  ASSERT_TRUE(text.is_ok()) << text.status().to_string();
  EXPECT_EQ(text.value().format, MetricsFormat::kText);
  const std::string& body = text.value().body;
  EXPECT_NE(body.find("easched_serve_requests_total{tenant=\"scraper\"} 2"),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("easched_serve_accepted_total{tenant=\"scraper\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("easched_serve_latency_ms_count{tenant=\"scraper\"} 1"),
            std::string::npos);
  EXPECT_NE(body.find("easched_jobs_completed_total{kind=\"solve\",outcome=\"ok\"} 1"),
            std::string::npos);

  // JSON scrape of the same registry.
  auto json = client.value().metrics(MetricsFormat::kJson);
  ASSERT_TRUE(json.is_ok()) << json.status().to_string();
  EXPECT_EQ(json.value().format, MetricsFormat::kJson);
  EXPECT_EQ(json.value().body.rfind("{\"metrics\": [", 0), 0u);
  EXPECT_NE(json.value().body.find("\"name\": \"easched_serve_requests_total\""),
            std::string::npos);

  // Counters are monotone across scrapes: solve + text + json + this one.
  auto again = client.value().metrics(MetricsFormat::kText);
  ASSERT_TRUE(again.is_ok());
  EXPECT_NE(again.value().body.find("easched_serve_requests_total{tenant=\"scraper\"} 4"),
            std::string::npos)
      << again.value().body;

  daemon.server->stop();
}

TEST(Serve, MetricsScrapeOnDisabledDaemonIsUnsupported) {
  engine::EngineConfig econfig;
  econfig.metrics = false;
  auto daemon = Daemon::start(std::move(econfig), {});
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "scraper");
  ASSERT_TRUE(client.is_ok());
  // The refusal is a typed status on the response, surfaced through the
  // client's Result — the connection stays healthy for normal traffic.
  auto scrape = client.value().metrics();
  ASSERT_FALSE(scrape.is_ok());
  EXPECT_EQ(scrape.status().code(), common::StatusCode::kUnsupported);
  auto stat = client.value().stat();
  EXPECT_TRUE(stat.is_ok()) << stat.status().to_string();
  daemon.server->stop();
}

TEST(Serve, VersionMismatchIsRefusedInHandshake) {
  auto daemon = Daemon::start({}, {});
  const int fd = connect_raw(daemon.server->port());
  ASSERT_GE(fd, 0);

  Hello hello;
  hello.version = kProtocolVersion + 1;
  hello.tenant = "future";
  send_all(fd, encode_frame(MsgType::kHello, hello.encode()));

  FrameDecoder decoder;
  const Frame frame = read_frame(fd, decoder);
  ASSERT_EQ(frame.type, MsgType::kHelloAck);
  auto ack = HelloAck::decode(frame.payload);
  ASSERT_TRUE(ack.is_ok());
  EXPECT_EQ(ack.value().version, kProtocolVersion);  // what the daemon speaks
  EXPECT_EQ(ack.value().status.code(), common::StatusCode::kUnsupported);

  // The daemon closes after the refusal.
  char buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
  ::close(fd);
  daemon.server->stop();
}

TEST(Serve, CorruptFrameCostsOneErrorNotTheConnection) {
  auto daemon = Daemon::start({}, {});
  const int fd = connect_raw(daemon.server->port());
  ASSERT_GE(fd, 0);
  FrameDecoder decoder;
  handshake_raw(fd, decoder, "raw");

  StatRequest request;
  request.request_id = 6;
  std::string corrupt = encode_frame(MsgType::kStatRequest, request.encode());
  corrupt[corrupt.size() - 5] ^= 0x20;  // break the CRC
  send_all(fd, corrupt);
  send_all(fd, encode_frame(MsgType::kStatRequest, request.encode()));

  // One ErrorResponse for the corrupt frame (unattributable: id 0)...
  const Frame error_frame = read_frame(fd, decoder);
  ASSERT_EQ(error_frame.type, MsgType::kError);
  auto error = ErrorResponse::decode(error_frame.payload);
  ASSERT_TRUE(error.is_ok());
  EXPECT_EQ(error.value().request_id, 0u);
  EXPECT_FALSE(error.value().status.is_ok());

  // ...and the intact frame behind it is still served on the same
  // connection: the corrupt frame's declared length delimited it.
  const Frame stat_frame = read_frame(fd, decoder);
  ASSERT_EQ(stat_frame.type, MsgType::kStatResponse);
  auto stat = StatResponse::decode(stat_frame.payload);
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().request_id, 6u);

  ::close(fd);
  daemon.server->stop();
}

TEST(Serve, RequestBeforeHandshakeClosesConnection) {
  auto daemon = Daemon::start({}, {});
  const int fd = connect_raw(daemon.server->port());
  ASSERT_GE(fd, 0);

  StatRequest request;
  request.request_id = 1;
  send_all(fd, encode_frame(MsgType::kStatRequest, request.encode()));

  FrameDecoder decoder;
  const Frame frame = read_frame(fd, decoder);
  ASSERT_EQ(frame.type, MsgType::kError);
  char buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // daemon hung up
  ::close(fd);
  daemon.server->stop();
}

TEST(Serve, EmptyTenantIsRejectedClientSide) {
  auto daemon = Daemon::start({}, {});
  auto client = Client::connect("127.0.0.1", daemon.server->port(), "");
  EXPECT_FALSE(client.is_ok());
  daemon.server->stop();
}

}  // namespace
}  // namespace easched::serve
