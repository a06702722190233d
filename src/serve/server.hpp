#pragma once
// serve::Server — the multi-tenant scheduling daemon.
//
// One Server multiplexes any number of TCP connections onto one shared
// engine::Engine: a single poll(2) loop owns every socket, decodes
// protocol frames (serve/protocol.hpp), turns requests into Engine
// submits, and flushes responses as the engine's worker threads complete
// them. The loop itself never solves anything — a request costs it one
// decode + one submit — so a slow sweep for one client never stalls
// another client's traffic.
//
// Multi-tenancy: every connection handshakes with a tenant id, and the
// server folds that id into each request's cache namespace
// (api::SolveOptions::cache_namespace). Tenants therefore never share
// cache entries, store blobs or warm-start neighbours — isolation falls
// out of the digest identity, with no second key dimension anywhere.
//
// Admission control is layered:
//  * per-tenant quota (ServerConfig::tenant_quota): at most N requests of
//    one tenant in flight; requests beyond it are shed *synchronously*
//    with a kOverloaded response, before touching the engine;
//  * global queue cap (EngineConfig::max_queued_jobs, configured on the
//    engine the caller passes in): over-cap submits complete immediately
//    with kOverloaded, which flows back as a normal response;
//  * per-job deadlines (request job_deadline_ms, or the server default):
//    queued jobs expire with kDeadlineExceeded, running sweeps are
//    cancelled cooperatively mid-flight by the engine's deadline watch.
//
// Responses are completion-driven: a submit's JobHandle::on_complete
// callback encodes the response on the worker thread, appends it to the
// connection's ready queue and pokes the poll loop through a self-pipe.
// No thread ever blocks on a job, so hundreds of in-flight jobs need
// exactly one serving thread. A solve the engine answers from its cache
// completes inside submit, so the same callback runs inline on the loop
// thread, which flushes the response without a wakeup. Repeat solves
// also skip the problem rebuild: built problems are memoized by their
// exact spec bytes (serve/problem.hpp).
//
// The Server blocks in run() (the CLI's `easched_cli serve`) or runs on
// an owned background thread via start()/stop() (tests and the load
// bench). stop() is safe with jobs still in flight: late completions
// find their connection closed and are dropped.

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.hpp"
#include "engine/engine.hpp"

namespace easched::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  int port = 0;
  /// Fairness quota: max in-flight requests per tenant; over-quota
  /// requests are shed with kOverloaded. 0 = unbounded.
  std::size_t tenant_quota = 0;
  /// Job deadline applied to requests that carry none (0 = none).
  double default_job_deadline_ms = 0.0;
  /// listen(2) backlog.
  int backlog = 16;
};

/// Monotonic daemon counters (whole lifetime, all tenants).
struct ServerStats {
  std::uint64_t connections = 0;      ///< handshakes accepted
  std::uint64_t requests = 0;         ///< well-formed requests received
  std::uint64_t accepted = 0;         ///< admitted to the engine
  std::uint64_t shed = 0;             ///< rejected by quota or engine cap
  std::uint64_t completed = 0;        ///< responses sent for admitted jobs
  std::uint64_t deadline_exceeded = 0;  ///< completed with an expired job deadline
  std::uint64_t protocol_errors = 0;  ///< bad frames / undecodable payloads
};

class Server {
 public:
  /// Binds and listens (errors surface here, not in run()). `engine` is
  /// not owned and must outlive the Server; its worker pool, cache and
  /// store are the daemon's execution backend.
  static common::Result<Server> create(engine::Engine* engine, ServerConfig config);

  Server(Server&&) noexcept;
  Server& operator=(Server&&) noexcept;
  /// Stops the serving loop (if running) and closes every socket.
  ~Server();

  /// The bound port (the ephemeral one when config.port was 0).
  int port() const noexcept;

  /// Serves until stop() — the blocking entry point the CLI uses.
  common::Status run();

  /// Runs the serve loop on an owned background thread.
  common::Status start();

  /// Signals the loop to exit and joins the background thread (if any).
  /// Idempotent; in-flight engine jobs keep running to completion, their
  /// responses are discarded.
  void stop();

  /// Async-signal-safe stop request (one atomic store, no locks, no
  /// join): the serving loop notices within its poll interval and run()
  /// returns. The CLI's SIGINT/SIGTERM handler calls this; everything
  /// else should call stop().
  void request_stop() noexcept;

  ServerStats stats() const;

 private:
  struct Impl;
  explicit Server(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace easched::serve
