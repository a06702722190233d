#pragma once
// serve::Protocol — the length-prefixed binary protocol of the easched
// scheduling daemon.
//
// Framing reuses the store log's discipline (store/log.hpp): every frame
// is self-delimiting and self-checking,
//
//   [type u8][payload_len u64 LE][payload bytes][crc32 u32 LE]
//
// with the CRC (store::crc32, IEEE 802.3) covering type + length +
// payload. The consequences mirror the log's: a frame whose CRC fails is
// rejected *without* losing the stream position (the length already
// delimited it), so one corrupt frame costs one error response, not the
// connection; only a length that exceeds kMaxFrameBytes is unrecoverable
// — the decoder cannot trust the boundary — and closes the connection.
//
// A connection opens with a version handshake: the client sends kHello
// (magic + protocol version + tenant id), the server answers kHelloAck
// (its version + accept/reject status). After an accepted handshake the
// client pipelines requests freely; every request carries a client-chosen
// request_id that the matching response echoes, so responses may arrive
// in any order (jobs run concurrently on the daemon's engine).
//
// Problems travel as ProblemSpec: the DAG in the graph/io.hpp text
// format plus the platform scalars. The daemon rebuilds the mapping with
// the same critical-path list scheduler the CLI uses, so a remote solve
// answers exactly what a local `easched_cli <dag> --deadline D` would.
//
// Every message struct encodes to a payload string and decodes behind a
// Result — a malformed payload is an expected failure (kInvalidArgument),
// never UB or an exception (wire.hpp's Reader bounds-checks every read).

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "model/speed_model.hpp"

namespace easched::serve {

/// "EAS1" little-endian: identifies an easched serve connection byte 0.
constexpr std::uint32_t kMagic = 0x31534145u;
constexpr std::uint16_t kProtocolVersion = 1;
/// Hard cap on one frame's payload. A decoded length beyond it means the
/// stream is garbage (or hostile) — the connection closes, because the
/// claimed boundary cannot be trusted for resynchronisation.
constexpr std::uint64_t kMaxFrameBytes = 8ull << 20;
/// Upper bound on ProblemSpec::processors. Building a problem allocates
/// one order vector per processor and list-schedules every task over all
/// of them, so the daemon rejects larger values (kInvalidArgument) before
/// allocating anything.
constexpr std::int32_t kMaxProcessors = 1 << 16;

enum class MsgType : std::uint8_t {
  kHello = 1,          ///< client -> server: magic, version, tenant
  kHelloAck = 2,       ///< server -> client: version, accept/reject
  kSolveRequest = 3,   ///< one problem, one report
  kSweepRequest = 4,   ///< Pareto sweep (plain or resweep-warm-started)
  kStatRequest = 5,    ///< daemon / cache / store / tenant statistics
  kSolveResponse = 6,
  kSweepResponse = 7,
  kStatResponse = 8,
  kError = 9,          ///< protocol-level failure (bad frame, bad payload)
  kMetricsRequest = 10,   ///< scrape the daemon's metric registry
  kMetricsResponse = 11,  ///< text exposition or JSON document
};

// ---- framing ------------------------------------------------------------

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Encodes `payload` as a complete frame of `type` (header + CRC).
std::string encode_frame(MsgType type, const std::string& payload);

/// Incremental frame decoder over a TCP byte stream. feed() appends raw
/// bytes; next() extracts frames until kNeedMore. kBadCrc delivers no
/// frame but *consumes* the corrupt frame (its length field delimited
/// it), so the caller can report the error and keep decoding; kOversized
/// is terminal for the stream.
class FrameDecoder {
 public:
  enum class Result {
    kNeedMore,   ///< no complete frame buffered yet
    kFrame,      ///< `out` holds the next frame
    kBadCrc,     ///< a delimited frame failed its checksum (recoverable)
    kOversized,  ///< declared payload exceeds kMaxFrameBytes (fatal)
  };

  void feed(const char* data, std::size_t n);
  Result next(Frame& out);

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const noexcept { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
};

// ---- wire status --------------------------------------------------------

/// Statuses cross the wire as (code u8, message). Decoding validates the
/// code byte and maps anything out of range to kInternal rather than
/// trusting the peer.
void encode_status(std::string& out, const common::Status& status);

// ---- handshake ----------------------------------------------------------

struct Hello {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  std::string tenant;  ///< non-empty; the daemon's isolation unit

  std::string encode() const;
  static common::Result<Hello> decode(const std::string& payload);
};

struct HelloAck {
  std::uint16_t version = kProtocolVersion;
  common::Status status = common::Status::ok();  ///< non-OK: connection refused

  std::string encode() const;
  static common::Result<HelloAck> decode(const std::string& payload);
};

// ---- problems -----------------------------------------------------------

/// A self-contained problem instance: everything the daemon needs to
/// rebuild the BiCrit/TriCrit problem the client means. The mapping is
/// deliberately *not* wire data — the daemon recomputes it with the
/// critical-path list scheduler, matching the CLI's local behaviour.
struct ProblemSpec {
  std::string dag_text;  ///< graph/io.hpp text format
  std::int32_t processors = 2;  ///< 1..kMaxProcessors
  model::SpeedModelKind speed_kind = model::SpeedModelKind::kContinuous;
  double fmin = 0.2;
  double fmax = 1.0;
  double delta = 0.0;          ///< INCREMENTAL step
  std::vector<double> levels;  ///< DISCRETE / VDD-HOPPING level set
  double deadline = 0.0;
  bool tricrit = false;
  double lambda0 = 1e-5;  ///< TRI-CRIT reliability statics
  double dexp = 3.0;
  double frel = 0.0;

  void encode(std::string& out) const;
};

struct SolveRequest {
  std::uint64_t request_id = 0;
  ProblemSpec problem;
  std::string solver;           ///< registry name; empty = auto-select
  double job_deadline_ms = 0.0; ///< > 0: per-job wall-clock deadline

  std::string encode() const;
  static common::Result<SolveRequest> decode(const std::string& payload);
};

/// Sweep axis on the wire (mirrors frontier::ConstraintAxis).
enum class WireAxis : std::uint8_t { kDeadline = 0, kReliability = 1 };

struct SweepRequest {
  std::uint64_t request_id = 0;
  ProblemSpec problem;
  WireAxis axis = WireAxis::kDeadline;
  double lo = 0.0;  ///< dmin or rmin
  double hi = 0.0;  ///< dmax or rmax
  std::int32_t initial_points = 9;
  std::int32_t max_points = 33;
  std::string solver;
  double job_deadline_ms = 0.0;
  /// Non-empty: resweep, warm-started from a previous sweep's probe trace
  /// (SweepResponse::probes) — the incremental-update path over the wire.
  std::vector<double> prev_probes;

  std::string encode() const;
  static common::Result<SweepRequest> decode(const std::string& payload);
};

struct StatRequest {
  std::uint64_t request_id = 0;

  std::string encode() const;
  static common::Result<StatRequest> decode(const std::string& payload);
};

/// Exposition format of a metrics scrape.
enum class MetricsFormat : std::uint8_t { kText = 0, kJson = 1 };

/// Scrapes the daemon's whole metric registry (engine + cache + store +
/// per-tenant serve counters) in one round trip — the wire equivalent of
/// a Prometheus /metrics pull.
struct MetricsRequest {
  std::uint64_t request_id = 0;
  MetricsFormat format = MetricsFormat::kText;

  std::string encode() const;
  static common::Result<MetricsRequest> decode(const std::string& payload);
};

// ---- responses ----------------------------------------------------------

struct SolveResponse {
  std::uint64_t request_id = 0;
  common::Status status = common::Status::ok();  ///< kOverloaded = shed
  double energy = 0.0;
  double makespan = 0.0;
  double wall_ms = 0.0;
  std::string solver;
  bool exact = false;
  std::int64_t iterations = 0;
  std::int32_t re_executed = 0;

  std::string encode() const;
  static common::Result<SolveResponse> decode(const std::string& payload);
};

struct WirePoint {
  double constraint = 0.0;
  double energy = 0.0;
  double makespan = 0.0;
  std::string solver;
  bool exact = false;
};

struct SweepResponse {
  std::uint64_t request_id = 0;
  common::Status status = common::Status::ok();
  WireAxis axis = WireAxis::kDeadline;
  std::vector<WirePoint> points;       ///< the Pareto frontier, ascending
  std::vector<double> probes;          ///< feed a later resweep's prev_probes
  std::uint64_t evaluated = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t prefetched = 0;
  double wall_ms = 0.0;

  std::string encode() const;
  static common::Result<SweepResponse> decode(const std::string& payload);
};

struct StatResponse {
  std::uint64_t request_id = 0;
  std::uint64_t threads = 0;
  std::uint64_t queued_jobs = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t store_hits = 0;
  bool has_store = false;
  std::uint64_t store_entries = 0;
  std::uint64_t store_blobs = 0;
  std::uint64_t store_bytes = 0;
  /// The requesting tenant's counters on this daemon.
  std::uint64_t tenant_accepted = 0;
  std::uint64_t tenant_shed = 0;
  std::uint64_t tenant_completed = 0;
  std::uint64_t tenant_in_flight = 0;
  std::uint64_t tenant_deadline_exceeded = 0;

  std::string encode() const;
  static common::Result<StatResponse> decode(const std::string& payload);
};

/// The scrape body. `body` is the registry's text exposition or JSON
/// document, verbatim — the daemon serializes once, clients (and curl-
/// style tooling behind them) parse or print as-is.
struct MetricsResponse {
  std::uint64_t request_id = 0;
  common::Status status = common::Status::ok();
  MetricsFormat format = MetricsFormat::kText;
  std::string body;

  std::string encode() const;
  static common::Result<MetricsResponse> decode(const std::string& payload);
};

/// Protocol-level failure: an unknown message type, an undecodable
/// payload, or a CRC-failed frame. request_id is 0 when the failure
/// happened before an id could be read.
struct ErrorResponse {
  std::uint64_t request_id = 0;
  common::Status status = common::Status::ok();

  std::string encode() const;
  static common::Result<ErrorResponse> decode(const std::string& payload);
};

}  // namespace easched::serve
