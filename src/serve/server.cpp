#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/metrics.hpp"
#include "serve/problem.hpp"
#include "serve/protocol.hpp"

namespace easched::serve {
namespace {

/// The self-pipe's write end, shared with every completion callback. The
/// fd lives behind a mutex so a late callback (job completing after the
/// server stopped) can never write to a closed-and-reused descriptor.
struct Wake {
  common::Mutex mutex;
  int fd EASCHED_GUARDED_BY(mutex) = -1;
  /// The poll loop's own thread. A completion delivered on it (a cache
  /// hit answered inside submit) needs no wakeup: the loop adopts the
  /// connection's ready frames right after processing its input.
  std::thread::id loop_thread EASCHED_GUARDED_BY(mutex);

  void poke() EASCHED_EXCLUDES(mutex) {
    common::MutexLock lock(mutex);
    if (fd < 0 || std::this_thread::get_id() == loop_thread) return;
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup; the byte's loss is
    // harmless, so the result is deliberately ignored.
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }

  void close_fd() EASCHED_EXCLUDES(mutex) {
    common::MutexLock lock(mutex);
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
};

/// The half of a connection that worker-thread callbacks may touch:
/// encoded response frames ready to flush, and the closed latch that
/// makes late completions drop their response instead of queueing it.
struct ConnShared {
  common::Mutex mutex;
  std::vector<std::string> ready EASCHED_GUARDED_BY(mutex);
  bool closed EASCHED_GUARDED_BY(mutex) = false;
};

void deliver(const std::shared_ptr<ConnShared>& shared, const std::shared_ptr<Wake>& wake,
             std::string frame) {
  {
    common::MutexLock lock(shared->mutex);
    if (shared->closed) return;
    shared->ready.push_back(std::move(frame));
  }
  wake->poke();
}

/// Per-tenant admission state and counters. in_flight is the quota
/// population: incremented on admit (loop thread), decremented by the
/// job's completion callback (worker thread). The m_* handles mirror the
/// counters into the engine's metric registry (one scrape covers both
/// layers); all null when the engine runs with metrics off.
struct Tenant {
  std::atomic<std::uint64_t> in_flight{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  obs::Counter* m_requests = nullptr;           ///< easched_serve_requests_total{tenant}
  obs::Counter* m_accepted = nullptr;           ///< easched_serve_accepted_total{tenant}
  obs::Counter* m_shed = nullptr;               ///< easched_serve_shed_total{tenant}
  obs::Counter* m_completed = nullptr;          ///< easched_serve_completed_total{tenant}
  obs::Counter* m_deadline_exceeded = nullptr;  ///< ..._deadline_exceeded_total{tenant}
  obs::Histogram* m_latency_ms = nullptr;       ///< easched_serve_latency_ms{tenant}
};

/// Daemon-wide counters, shared (not owned) with completion callbacks so
/// a server torn down before its last job completes stays safe.
struct StatsBlock {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> deadline_exceeded{0};
  std::atomic<std::uint64_t> protocol_errors{0};
};

/// Arrival-to-response latency of one admitted request, in ms.
double request_ms(std::chrono::steady_clock::time_point arrival) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   arrival)
      .count();
}

struct Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::string outbox;  ///< bytes awaiting a writable socket (loop thread only)
  bool handshaken = false;
  bool close_after_flush = false;  ///< fatal condition: flush, then close
  std::string tenant_id;
  std::shared_ptr<Tenant> tenant;
  std::shared_ptr<ConnShared> shared = std::make_shared<ConnShared>();
};

common::Status errno_status(const std::string& what) {
  return common::Status::internal(what + ": " + std::strerror(errno));
}

common::Status set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return errno_status("fcntl(O_NONBLOCK)");
  }
  return common::Status::ok();
}

/// Responses are small and latency-bound: without TCP_NODELAY, Nagle
/// holds a response back until the peer acknowledges the previous one.
common::Status set_nodelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) < 0) {
    return errno_status("setsockopt(TCP_NODELAY)");
  }
  return common::Status::ok();
}

}  // namespace

struct Server::Impl {
  engine::Engine* engine = nullptr;
  ServerConfig config;
  int listen_fd = -1;
  int wake_read_fd = -1;
  std::shared_ptr<Wake> wake = std::make_shared<Wake>();
  std::shared_ptr<StatsBlock> stats = std::make_shared<StatsBlock>();
  std::atomic<bool> stopping{false};
  std::thread thread;
  common::Status loop_status = common::Status::ok();
  int bound_port = 0;
  std::vector<std::unique_ptr<Conn>> conns;  ///< loop thread only
  /// Tenant states outlive their connections (counters persist across
  /// reconnects); only the loop thread touches the map itself.
  std::map<std::string, std::shared_ptr<Tenant>> tenants;
  /// Built SolveRequest problems by exact spec bytes; loop thread only.
  std::unique_ptr<ProblemMemo> memo;

  ~Impl() { shutdown(); }

  std::shared_ptr<Tenant> tenant_for(const std::string& id) {
    auto& slot = tenants[id];
    if (!slot) {
      slot = std::make_shared<Tenant>();
      if (obs::Registry* reg = engine->metrics()) {
        const obs::LabelSet by_tenant{{"tenant", id}};
        slot->m_requests = reg->counter("easched_serve_requests_total", by_tenant);
        slot->m_accepted = reg->counter("easched_serve_accepted_total", by_tenant);
        slot->m_shed = reg->counter("easched_serve_shed_total", by_tenant);
        slot->m_completed = reg->counter("easched_serve_completed_total", by_tenant);
        slot->m_deadline_exceeded =
            reg->counter("easched_serve_deadline_exceeded_total", by_tenant);
        slot->m_latency_ms = reg->histogram("easched_serve_latency_ms", by_tenant);
      }
    }
    return slot;
  }

  /// One well-formed post-handshake request from `conn`'s tenant.
  void count_request(Conn& conn) {
    stats->requests.fetch_add(1, std::memory_order_relaxed);
    if (conn.tenant->m_requests != nullptr) conn.tenant->m_requests->inc();
  }

  void enqueue(Conn& conn, MsgType type, const std::string& payload) {
    conn.outbox += encode_frame(type, payload);
  }

  void close_conn(Conn& conn) {
    {
      common::MutexLock lock(conn.shared->mutex);
      conn.shared->closed = true;
      conn.shared->ready.clear();
    }
    if (conn.fd >= 0) ::close(conn.fd);
    conn.fd = -1;
  }

  void shutdown() {
    stopping.store(true, std::memory_order_relaxed);
    wake->poke();
    if (thread.joinable()) thread.join();
    for (auto& conn : conns) close_conn(*conn);
    conns.clear();
    if (listen_fd >= 0) ::close(listen_fd);
    listen_fd = -1;
    if (wake_read_fd >= 0) ::close(wake_read_fd);
    wake_read_fd = -1;
    wake->close_fd();
  }

  // ---- request handling (loop thread) -----------------------------------

  void handle_hello(Conn& conn, const std::string& payload) {
    auto decoded = Hello::decode(payload);
    if (!decoded.is_ok() || decoded.value().magic != kMagic) {
      // Not our protocol at all — no ack could be meaningful.
      stats->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      conn.close_after_flush = true;
      return;
    }
    const Hello& hello = decoded.value();
    HelloAck ack;
    if (hello.version != kProtocolVersion) {
      ack.status = common::Status::unsupported(
          "protocol version " + std::to_string(hello.version) + " not supported (daemon speaks " +
          std::to_string(kProtocolVersion) + ")");
      conn.close_after_flush = true;
    } else if (hello.tenant.empty()) {
      ack.status = common::Status::invalid("tenant id must be non-empty");
      conn.close_after_flush = true;
    } else {
      conn.handshaken = true;
      conn.tenant_id = hello.tenant;
      conn.tenant = tenant_for(hello.tenant);
      stats->connections.fetch_add(1, std::memory_order_relaxed);
    }
    enqueue(conn, MsgType::kHelloAck, ack.encode());
  }

  /// Quota gate shared by solve and sweep admission. True = admitted
  /// (in_flight already counted); false = a shed response was queued.
  bool admit(Conn& conn, std::uint64_t request_id, bool is_sweep) {
    const std::size_t quota = config.tenant_quota;
    if (quota > 0 &&
        conn.tenant->in_flight.load(std::memory_order_relaxed) >= quota) {
      conn.tenant->shed.fetch_add(1, std::memory_order_relaxed);
      stats->shed.fetch_add(1, std::memory_order_relaxed);
      if (conn.tenant->m_shed != nullptr) conn.tenant->m_shed->inc();
      const common::Status status = common::Status::overloaded(
          "tenant '" + conn.tenant_id + "' is at its in-flight quota (" +
          std::to_string(quota) + ")");
      if (is_sweep) {
        SweepResponse resp;
        resp.request_id = request_id;
        resp.status = status;
        enqueue(conn, MsgType::kSweepResponse, resp.encode());
      } else {
        SolveResponse resp;
        resp.request_id = request_id;
        resp.status = status;
        enqueue(conn, MsgType::kSolveResponse, resp.encode());
      }
      return false;
    }
    conn.tenant->in_flight.fetch_add(1, std::memory_order_relaxed);
    conn.tenant->accepted.fetch_add(1, std::memory_order_relaxed);
    stats->accepted.fetch_add(1, std::memory_order_relaxed);
    if (conn.tenant->m_accepted != nullptr) conn.tenant->m_accepted->inc();
    return true;
  }

  /// Shared completion accounting for solve and sweep callbacks: quota
  /// release, shed-vs-completed counters, the deadline-expiry counter and
  /// the per-tenant latency histogram. Runs on the completing worker.
  static void account_completion(const std::shared_ptr<Tenant>& tn,
                                 const std::shared_ptr<StatsBlock>& st,
                                 common::StatusCode code,
                                 std::chrono::steady_clock::time_point arrival) {
    tn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    if (code == common::StatusCode::kOverloaded) {
      // The engine's global queue cap shed it after tenant admission.
      tn->shed.fetch_add(1, std::memory_order_relaxed);
      st->shed.fetch_add(1, std::memory_order_relaxed);
      if (tn->m_shed != nullptr) tn->m_shed->inc();
      return;
    }
    tn->completed.fetch_add(1, std::memory_order_relaxed);
    st->completed.fetch_add(1, std::memory_order_relaxed);
    if (tn->m_completed != nullptr) tn->m_completed->inc();
    if (code == common::StatusCode::kDeadlineExceeded) {
      tn->deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      st->deadline_exceeded.fetch_add(1, std::memory_order_relaxed);
      if (tn->m_deadline_exceeded != nullptr) tn->m_deadline_exceeded->inc();
    }
    if (tn->m_latency_ms != nullptr) tn->m_latency_ms->observe(request_ms(arrival));
  }

  engine::SubmitOptions submit_options(double job_deadline_ms) const {
    engine::SubmitOptions opts;
    opts.deadline_ms =
        job_deadline_ms > 0.0 ? job_deadline_ms : config.default_job_deadline_ms;
    return opts;
  }

  void handle_solve(Conn& conn, const std::string& payload) {
    auto decoded = SolveRequest::decode(payload);
    if (!decoded.is_ok()) {
      protocol_error(conn, decoded.status());
      return;
    }
    const SolveRequest& msg = decoded.value();
    count_request(conn);
    auto built = memo->get(msg.problem);
    if (!built.is_ok()) {
      SolveResponse resp;
      resp.request_id = msg.request_id;
      resp.status = built.status();
      enqueue(conn, MsgType::kSolveResponse, resp.encode());
      return;
    }
    if (!admit(conn, msg.request_id, /*is_sweep=*/false)) return;
    // Arrival is read only when the latency series exists, so metrics-off
    // daemons skip even the clock call.
    const auto arrival = conn.tenant->m_latency_ms != nullptr
                             ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};

    api::SolveOptions options;
    options.cache_namespace = conn.tenant_id;
    auto handle = engine->submit(engine::SolveQuery(built.value(), msg.solver, options),
                                 submit_options(msg.job_deadline_ms));

    // The callback runs on the worker that completes the job, or inline
    // right here when the engine answered from its cache — then the
    // response is encoded and queued without leaving the loop thread. It
    // owns copies of every shared piece, so it outlives both this
    // connection and the Server.
    const auto shared = conn.shared;
    const auto wk = wake;
    const auto tn = conn.tenant;
    const auto st = stats;
    const std::uint64_t id = msg.request_id;
    handle.on_complete([shared, wk, tn, st, handle, id, arrival] {
      const common::Result<api::SolveReport>& result = handle.get();
      SolveResponse resp;
      resp.request_id = id;
      if (result.is_ok()) {
        const api::SolveReport& report = result.value();
        resp.energy = report.energy;
        resp.makespan = report.makespan;
        resp.wall_ms = report.wall_ms;
        resp.solver = report.solver;
        resp.exact = report.exact;
        resp.iterations = report.iterations;
        resp.re_executed = report.re_executed;
      } else {
        resp.status = result.status();
      }
      account_completion(tn, st,
                         result.is_ok() ? common::StatusCode::kOk
                                        : result.status().code(),
                         arrival);
      deliver(shared, wk, encode_frame(MsgType::kSolveResponse, resp.encode()));
    });
  }

  void handle_sweep(Conn& conn, const std::string& payload) {
    auto decoded = SweepRequest::decode(payload);
    if (!decoded.is_ok()) {
      protocol_error(conn, decoded.status());
      return;
    }
    const SweepRequest& msg = decoded.value();
    count_request(conn);

    auto reject = [&](common::Status status) {
      SweepResponse resp;
      resp.request_id = msg.request_id;
      resp.axis = msg.axis;
      resp.status = std::move(status);
      enqueue(conn, MsgType::kSweepResponse, resp.encode());
    };

    if (msg.initial_points < 1 || msg.max_points < msg.initial_points) {
      reject(common::Status::invalid(
          "SweepRequest: need 1 <= initial_points <= max_points"));
      return;
    }
    if (!(msg.lo > 0.0) || !(msg.lo <= msg.hi)) {
      reject(common::Status::invalid("SweepRequest: need 0 < lo <= hi"));
      return;
    }
    const bool reliability = msg.axis == WireAxis::kReliability;
    if (reliability && !msg.problem.tricrit) {
      reject(common::Status::invalid(
          "SweepRequest: reliability sweeps need a TRI-CRIT problem"));
      return;
    }
    // Deadline sweeps anchor the problem at the axis maximum; reliability
    // sweeps keep the spec's fixed deadline and push the axis maximum
    // into the reliability threshold — both mirror the CLI exactly.
    ProblemSpec spec = msg.problem;
    double anchor = spec.deadline;
    if (reliability) {
      spec.frel = msg.hi;
    } else {
      anchor = msg.hi;
    }
    auto built = build_problem(spec, anchor);
    if (!built.is_ok()) {
      reject(built.status());
      return;
    }
    if (!admit(conn, msg.request_id, /*is_sweep=*/true)) return;
    const auto arrival = conn.tenant->m_latency_ms != nullptr
                             ? std::chrono::steady_clock::now()
                             : std::chrono::steady_clock::time_point{};

    frontier::FrontierOptions fopt;
    fopt.initial_points = msg.initial_points;
    fopt.max_points = msg.max_points;
    fopt.solver = msg.solver;
    fopt.solve.cache_namespace = conn.tenant_id;

    engine::FrontierQuery query =
        reliability
            ? engine::FrontierQuery::reliability(built.value(), msg.lo, msg.hi, fopt)
            : engine::FrontierQuery::deadline(built.value(), msg.lo, msg.hi, fopt);

    engine::Engine::FrontierHandle handle;
    if (!msg.prev_probes.empty()) {
      engine::ResweepQuery resweep;
      resweep.prev.axis = reliability ? frontier::ConstraintAxis::kReliability
                                      : frontier::ConstraintAxis::kDeadline;
      resweep.prev.probes = msg.prev_probes;
      resweep.target = std::move(query);
      handle = engine->submit(std::move(resweep), submit_options(msg.job_deadline_ms));
    } else {
      handle = engine->submit(std::move(query), submit_options(msg.job_deadline_ms));
    }

    const auto shared = conn.shared;
    const auto wk = wake;
    const auto tn = conn.tenant;
    const auto st = stats;
    const std::uint64_t id = msg.request_id;
    handle.on_complete([shared, wk, tn, st, handle, id, arrival] {
      const frontier::FrontierResult& result = handle.get();
      SweepResponse resp;
      resp.request_id = id;
      resp.status = result.error;
      resp.axis = result.axis == frontier::ConstraintAxis::kReliability
                      ? WireAxis::kReliability
                      : WireAxis::kDeadline;
      resp.points.reserve(result.points.size());
      for (const auto& p : result.points) {
        resp.points.push_back(WirePoint{p.constraint, p.energy, p.makespan, p.solver,
                                        p.exact});
      }
      resp.probes = result.probes;
      resp.evaluated = result.evaluated;
      resp.infeasible = result.infeasible;
      resp.cache_hits = result.cache_hits;
      resp.prefetched = result.prefetched;
      resp.wall_ms = result.wall_ms;
      account_completion(tn, st, result.error.code(), arrival);
      deliver(shared, wk, encode_frame(MsgType::kSweepResponse, resp.encode()));
    });
  }

  void handle_stat(Conn& conn, const std::string& payload) {
    auto decoded = StatRequest::decode(payload);
    if (!decoded.is_ok()) {
      protocol_error(conn, decoded.status());
      return;
    }
    count_request(conn);
    StatResponse resp;
    resp.request_id = decoded.value().request_id;
    resp.threads = engine->threads();
    resp.queued_jobs = engine->queued_jobs();
    const auto cache = engine->cache_stats();
    resp.cache_entries = cache.entries;
    resp.cache_hits = cache.hits;
    resp.cache_misses = cache.misses;
    resp.store_hits = cache.store_hits;
    if (engine->store() != nullptr) {
      resp.has_store = true;
      const auto store_stats = engine->store()->stats();
      resp.store_entries = store_stats.entries;
      resp.store_blobs = store_stats.blobs;
      resp.store_bytes = store_stats.file_bytes;
    }
    resp.tenant_accepted = conn.tenant->accepted.load(std::memory_order_relaxed);
    resp.tenant_shed = conn.tenant->shed.load(std::memory_order_relaxed);
    resp.tenant_completed = conn.tenant->completed.load(std::memory_order_relaxed);
    resp.tenant_in_flight = conn.tenant->in_flight.load(std::memory_order_relaxed);
    resp.tenant_deadline_exceeded =
        conn.tenant->deadline_exceeded.load(std::memory_order_relaxed);
    enqueue(conn, MsgType::kStatResponse, resp.encode());
  }

  /// Scrapes the engine's whole registry synchronously on the loop
  /// thread — an export is gauge sampling plus serialization, far below
  /// a solve, and scrapes are rare (monitoring cadence).
  void handle_metrics(Conn& conn, const std::string& payload) {
    auto decoded = MetricsRequest::decode(payload);
    if (!decoded.is_ok()) {
      protocol_error(conn, decoded.status());
      return;
    }
    count_request(conn);
    MetricsResponse resp;
    resp.request_id = decoded.value().request_id;
    resp.format = decoded.value().format;
    if (engine->metrics() == nullptr) {
      resp.status = common::Status::unsupported("metrics are disabled on this daemon");
    } else {
      std::ostringstream body;
      if (resp.format == MetricsFormat::kJson) {
        engine->write_metrics_json(body);
      } else {
        engine->write_metrics_text(body);
      }
      resp.body = std::move(body).str();
    }
    enqueue(conn, MsgType::kMetricsResponse, resp.encode());
  }

  void protocol_error(Conn& conn, common::Status status) {
    stats->protocol_errors.fetch_add(1, std::memory_order_relaxed);
    ErrorResponse resp;
    resp.status = std::move(status);
    enqueue(conn, MsgType::kError, resp.encode());
  }

  void process_frame(Conn& conn, const Frame& frame) {
    if (!conn.handshaken) {
      if (frame.type != MsgType::kHello) {
        protocol_error(conn, common::Status::invalid(
                                 "connection must open with a Hello handshake"));
        conn.close_after_flush = true;
        return;
      }
      handle_hello(conn, frame.payload);
      return;
    }
    switch (frame.type) {
      case MsgType::kSolveRequest: handle_solve(conn, frame.payload); break;
      case MsgType::kSweepRequest: handle_sweep(conn, frame.payload); break;
      case MsgType::kStatRequest: handle_stat(conn, frame.payload); break;
      case MsgType::kMetricsRequest: handle_metrics(conn, frame.payload); break;
      default:
        protocol_error(
            conn, common::Status::unsupported(
                      "unexpected message type " +
                      std::to_string(static_cast<unsigned>(frame.type))));
        break;
    }
  }

  /// Reads and dispatches everything available. False = close the
  /// connection now (peer gone or stream unrecoverable).
  bool process_input(Conn& conn) {
    char buf[4096];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.decoder.feed(buf, static_cast<std::size_t>(n));
        Frame frame;
        for (;;) {
          const auto result = conn.decoder.next(frame);
          if (result == FrameDecoder::Result::kNeedMore) break;
          if (result == FrameDecoder::Result::kFrame) {
            process_frame(conn, frame);
          } else if (result == FrameDecoder::Result::kBadCrc) {
            // The frame was delimited, so the stream stays in sync: one
            // error response, connection lives on.
            protocol_error(conn,
                           common::Status::invalid("frame checksum mismatch"));
          } else {  // kOversized — the boundary itself is untrustworthy
            protocol_error(conn, common::Status::invalid(
                                     "frame exceeds the " +
                                     std::to_string(kMaxFrameBytes) +
                                     "-byte cap; closing"));
            conn.close_after_flush = true;
            return true;  // stop reading; flush the error, then close
          }
          if (conn.close_after_flush) return true;
        }
        continue;
      }
      if (n == 0) return false;  // orderly peer shutdown
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
  }

  /// Flushes as much of the outbox as the socket accepts. False = the
  /// connection is dead.
  bool flush_output(Conn& conn) {
    while (!conn.outbox.empty()) {
      const ssize_t n =
          ::send(conn.fd, conn.outbox.data(), conn.outbox.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.outbox.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    return true;
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        return;  // EAGAIN or transient accept failure — poll again later
      }
      if (!set_nonblocking(fd).is_ok()) {
        ::close(fd);
        continue;
      }
      if (!set_nodelay(fd).is_ok()) {
        // Served with Nagle on, every response would stall on the peer's
        // delayed ACK; refuse the connection instead.
        ::close(fd);
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conns.push_back(std::move(conn));
    }
  }

  /// Moves completed responses into the connection's outbox.
  static void adopt_ready(Conn& conn) {
    std::vector<std::string> ready;
    {
      common::MutexLock lock(conn.shared->mutex);
      ready.swap(conn.shared->ready);
    }
    for (auto& frame : ready) conn.outbox += frame;
  }

  common::Status loop() {
    {
      common::MutexLock lock(wake->mutex);
      wake->loop_thread = std::this_thread::get_id();
    }
    while (!stopping.load(std::memory_order_relaxed)) {
      // Adopt worker-completed responses into the per-connection outboxes.
      for (auto& conn : conns) adopt_ready(*conn);

      std::vector<pollfd> fds;
      fds.reserve(conns.size() + 2);
      fds.push_back(pollfd{listen_fd, POLLIN, 0});
      fds.push_back(pollfd{wake_read_fd, POLLIN, 0});
      for (auto& conn : conns) {
        short events = POLLIN;
        if (!conn->outbox.empty()) events |= POLLOUT;
        fds.push_back(pollfd{conn->fd, events, 0});
      }

      const int rc = ::poll(fds.data(), fds.size(), 500);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return errno_status("poll");
      }

      if ((fds[1].revents & POLLIN) != 0) {
        char drain[256];
        while (::read(wake_read_fd, drain, sizeof(drain)) > 0) {
        }
      }
      if ((fds[0].revents & POLLIN) != 0) accept_new();

      // Walk only the connections that were present when `fds` was built:
      // accept_new() above appends to `conns`, and those have no pollfd
      // this round (they get polled next iteration). `i` advances only on
      // survival so erases keep conns[i] aligned with fds[fd_idx].
      std::size_t i = 0;
      for (std::size_t fd_idx = 2; fd_idx < fds.size() && i < conns.size();
           ++fd_idx) {
        Conn& conn = *conns[i];
        const short revents = fds[fd_idx].revents;
        bool alive = true;
        if ((revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (revents & POLLIN) == 0) {
          alive = false;
        }
        if (alive && (revents & POLLIN) != 0) {
          alive = process_input(conn);
          adopt_ready(conn);  // cache hits answered inline, unpoked
        }
        if (alive) alive = flush_output(conn);
        if (alive && conn.close_after_flush && conn.outbox.empty()) alive = false;
        if (alive) {
          ++i;
        } else {
          close_conn(conn);
          conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
        }
      }
    }
    return common::Status::ok();
  }
};

Server::Server(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}

Server::Server(Server&&) noexcept = default;

Server& Server::operator=(Server&& other) noexcept {
  if (this != &other) {
    if (impl_) impl_->shutdown();  // stop the displaced server's loop first
    impl_ = std::move(other.impl_);
  }
  return *this;
}

Server::~Server() {
  if (impl_) impl_->shutdown();
}

common::Result<Server> Server::create(engine::Engine* engine, ServerConfig config) {
  EASCHED_CHECK_MSG(engine != nullptr, "Server::create needs an engine");
  auto impl = std::make_unique<Impl>();
  impl->engine = engine;
  impl->config = config;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* resolved = nullptr;
  const std::string port_str = std::to_string(config.port);
  if (::getaddrinfo(config.host.c_str(), port_str.c_str(), &hints, &resolved) != 0 ||
      resolved == nullptr) {
    return common::Status::invalid("cannot resolve listen address " + config.host);
  }
  const int fd = ::socket(resolved->ai_family, resolved->ai_socktype, 0);
  if (fd < 0) {
    ::freeaddrinfo(resolved);
    return errno_status("socket");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int bind_rc = ::bind(fd, resolved->ai_addr, resolved->ai_addrlen);
  ::freeaddrinfo(resolved);
  if (bind_rc < 0) {
    ::close(fd);
    return errno_status("bind " + config.host + ":" + port_str);
  }
  if (::listen(fd, config.backlog) < 0) {
    ::close(fd);
    return errno_status("listen");
  }
  if (auto status = set_nonblocking(fd); !status.is_ok()) {
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    ::close(fd);
    return errno_status("getsockname");
  }
  impl->listen_fd = fd;
  impl->bound_port = static_cast<int>(ntohs(bound.sin_port));
  impl->memo = std::make_unique<ProblemMemo>(engine->metrics());

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) < 0) return errno_status("pipe");
  if (auto status = set_nonblocking(pipe_fds[0]); !status.is_ok()) return status;
  if (auto status = set_nonblocking(pipe_fds[1]); !status.is_ok()) return status;
  impl->wake_read_fd = pipe_fds[0];
  {
    common::MutexLock lock(impl->wake->mutex);
    impl->wake->fd = pipe_fds[1];
  }
  return Server(std::move(impl));
}

int Server::port() const noexcept { return impl_->bound_port; }

common::Status Server::run() { return impl_->loop(); }

common::Status Server::start() {
  if (impl_->thread.joinable()) {
    return common::Status::invalid("Server::start(): already running");
  }
  Impl* impl = impl_.get();
  impl->thread = std::thread([impl] { impl->loop_status = impl->loop(); });
  return common::Status::ok();
}

void Server::stop() {
  if (impl_) impl_->shutdown();
}

void Server::request_stop() noexcept {
  if (impl_) impl_->stopping.store(true, std::memory_order_relaxed);
}

ServerStats Server::stats() const {
  ServerStats out;
  const StatsBlock& s = *impl_->stats;
  out.connections = s.connections.load(std::memory_order_relaxed);
  out.requests = s.requests.load(std::memory_order_relaxed);
  out.accepted = s.accepted.load(std::memory_order_relaxed);
  out.shed = s.shed.load(std::memory_order_relaxed);
  out.completed = s.completed.load(std::memory_order_relaxed);
  out.deadline_exceeded = s.deadline_exceeded.load(std::memory_order_relaxed);
  out.protocol_errors = s.protocol_errors.load(std::memory_order_relaxed);
  return out;
}

}  // namespace easched::serve
