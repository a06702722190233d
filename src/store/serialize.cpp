#include "store/serialize.hpp"

#include <cstring>

#include "core/problem.hpp"
#include "sched/schedule.hpp"

namespace easched::store {
namespace {

void put_u8(std::string& out, std::uint8_t v) { out.push_back(static_cast<char>(v)); }

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_string(std::string& out, const std::string& s) {
  put_u64(out, s.size());
  out += s;
}

/// Bounds-checked sequential decoder: any overrun flips `ok` and every
/// later read returns zero values, so decoders check once at the end.
struct Cursor {
  const std::string& buf;
  std::size_t at = 0;
  bool ok = true;

  bool has(std::size_t n) {
    if (!ok || buf.size() - at < n) ok = false;
    return ok;
  }
  std::uint8_t get_u8() {
    if (!has(1)) return 0;
    return static_cast<std::uint8_t>(buf[at++]);
  }
  std::uint64_t get_u64() {
    if (!has(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[at + i])) << (8 * i);
    }
    at += 8;
    return v;
  }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_double() {
    const std::uint64_t bits = get_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  /// Skips a length-prefixed string without copying it.
  void skip_string() {
    const std::uint64_t n = get_u64();
    if (has(static_cast<std::size_t>(n))) at += static_cast<std::size_t>(n);
  }
  std::string get_string() {
    const std::uint64_t n = get_u64();
    if (!has(static_cast<std::size_t>(n))) return {};
    std::string s(buf, at, static_cast<std::size_t>(n));
    at += static_cast<std::size_t>(n);
    return s;
  }
  bool done() const { return ok && at == buf.size(); }
};

// Counts kept sane even on corrupt input: a flipped length field must not
// turn into a multi-gigabyte allocation before the bounds check trips.
constexpr std::int64_t kMaxTasks = 1 << 24;
constexpr std::int64_t kMaxExecutions = 2;
constexpr std::int64_t kMaxProfile = 1 << 20;

void put_schedule(std::string& out, const sched::Schedule& schedule) {
  put_i64(out, schedule.num_tasks());
  for (int t = 0; t < schedule.num_tasks(); ++t) {
    const auto& decision = schedule.at(t);
    put_i64(out, static_cast<std::int64_t>(decision.executions.size()));
    for (const auto& exec : decision.executions) {
      put_double(out, exec.speed);
      put_i64(out, static_cast<std::int64_t>(exec.profile.size()));
      for (const auto& interval : exec.profile) {
        put_double(out, interval.speed);
        put_double(out, interval.time);
      }
    }
  }
}

bool get_schedule(Cursor& c, sched::Schedule& out) {
  const std::int64_t tasks = c.get_i64();
  if (!c.ok || tasks < 0 || tasks > kMaxTasks) return false;
  out = sched::Schedule(static_cast<int>(tasks));
  for (std::int64_t t = 0; t < tasks; ++t) {
    const std::int64_t execs = c.get_i64();
    if (!c.ok || execs < 0 || execs > kMaxExecutions) return false;
    auto& decision = out.at(static_cast<int>(t));
    decision.executions.resize(static_cast<std::size_t>(execs));
    for (auto& exec : decision.executions) {
      exec.speed = c.get_double();
      const std::int64_t profile = c.get_i64();
      if (!c.ok || profile < 0 || profile > kMaxProfile) return false;
      exec.profile.resize(static_cast<std::size_t>(profile));
      for (auto& interval : exec.profile) {
        interval.speed = c.get_double();
        interval.time = c.get_double();
      }
    }
  }
  return c.ok;
}

void put_result(std::string& out, const common::Result<api::SolveReport>& result) {
  put_u8(out, result.is_ok() ? 1 : 0);
  if (!result.is_ok()) {
    put_u8(out, static_cast<std::uint8_t>(result.status().code()));
    put_string(out, result.status().message());
    return;
  }
  const api::SolveReport& report = result.value();
  put_double(out, report.energy);
  put_double(out, report.makespan);
  put_string(out, report.solver);
  put_u8(out, static_cast<std::uint8_t>(report.problem));
  put_double(out, report.wall_ms);
  put_i64(out, report.iterations);
  put_i64(out, report.re_executed);
  put_u8(out, report.exact ? 1 : 0);
  put_double(out, report.gap_bound);
  put_schedule(out, report.schedule);
}

common::Result<common::Result<api::SolveReport>> get_result(Cursor& c) {
  const auto bad = [] {
    return common::Status::invalid("corrupt entry record payload");
  };
  const std::uint8_t is_ok = c.get_u8();
  if (!c.ok) return bad();
  if (is_ok == 0) {
    const auto code = static_cast<common::StatusCode>(c.get_u8());
    std::string message = c.get_string();
    if (!c.ok || code == common::StatusCode::kOk) return bad();
    return common::Result<api::SolveReport>(common::Status(code, std::move(message)));
  }
  api::SolveReport report;
  report.energy = c.get_double();
  report.makespan = c.get_double();
  report.solver = c.get_string();
  report.problem = c.get_u8() == 0 ? api::ProblemKind::kBiCrit : api::ProblemKind::kTriCrit;
  report.wall_ms = c.get_double();
  report.iterations = c.get_i64();
  report.re_executed = static_cast<int>(c.get_i64());
  report.exact = c.get_u8() != 0;
  report.gap_bound = c.get_double();
  if (!get_schedule(c, report.schedule)) return bad();
  return common::Result<api::SolveReport>(std::move(report));
}

}  // namespace

std::string encode_blob(const BlobRecord& blob) {
  std::string out;
  out.reserve(32 + blob.bytes.size());
  put_u64(out, blob.id);
  put_u64(out, blob.digest.hi);
  put_u64(out, blob.digest.lo);
  put_string(out, blob.bytes);
  return out;
}

common::Result<BlobRecord> decode_blob(const std::string& payload) {
  Cursor c{payload};
  BlobRecord blob;
  blob.id = c.get_u64();
  blob.digest.hi = c.get_u64();
  blob.digest.lo = c.get_u64();
  blob.bytes = c.get_string();
  if (!c.done() || blob.id == 0) {
    return common::Status::invalid("corrupt blob record payload");
  }
  return blob;
}

common::Result<BlobHead> decode_blob_head(const std::string& payload) {
  Cursor c{payload};
  BlobHead head;
  head.id = c.get_u64();
  head.digest.hi = c.get_u64();
  head.digest.lo = c.get_u64();
  c.skip_string();
  if (!c.done() || head.id == 0) {
    return common::Status::invalid("corrupt blob record payload");
  }
  return head;
}

std::string encode_entry(const EntryRecord& entry) {
  std::string out;
  out.reserve(128);
  put_u64(out, entry.blob_id);
  put_string(out, entry.solver);
  put_u8(out, entry.point.kind);
  put_u64(out, entry.point.deadline_bits);
  put_u64(out, entry.point.frel_bits);
  put_i64(out, entry.point.approx_K);
  put_u64(out, entry.point.gap_tolerance_bits);
  put_i64(out, entry.point.max_nodes);
  put_i64(out, entry.point.dp_buckets);
  put_i64(out, entry.point.fork_grid);
  put_i64(out, entry.point.polish);
  put_result(out, *entry.result);
  return out;
}

namespace {

/// The identity fields every entry record starts with.
void get_entry_identity(Cursor& c, std::uint64_t& blob_id, std::string& solver,
                        PointKey& point) {
  blob_id = c.get_u64();
  solver = c.get_string();
  point.kind = c.get_u8();
  point.deadline_bits = c.get_u64();
  point.frel_bits = c.get_u64();
  point.approx_K = c.get_i64();
  point.gap_tolerance_bits = c.get_u64();
  point.max_nodes = c.get_i64();
  point.dp_buckets = c.get_i64();
  point.fork_grid = c.get_i64();
  point.polish = c.get_i64();
}

}  // namespace

common::Result<EntryHead> decode_entry_head(const std::string& payload) {
  Cursor c{payload};
  EntryHead head;
  get_entry_identity(c, head.blob_id, head.solver, head.point);
  head.success = c.get_u8() != 0;  // put_result's leading is-ok flag
  if (!c.ok || head.blob_id == 0) {
    return common::Status::invalid("corrupt entry record payload");
  }
  return head;
}

common::Result<EntryRecord> decode_entry(const std::string& payload) {
  Cursor c{payload};
  EntryRecord entry;
  get_entry_identity(c, entry.blob_id, entry.solver, entry.point);
  auto result = get_result(c);
  if (!result.is_ok()) return result.status();
  if (!c.done() || entry.blob_id == 0) {
    return common::Status::invalid("corrupt entry record payload");
  }
  entry.result = std::make_shared<const common::Result<api::SolveReport>>(
      std::move(result).take());
  return entry;
}

std::size_t result_footprint_bytes(const common::Result<api::SolveReport>& result) {
  std::size_t bytes = sizeof(common::Result<api::SolveReport>);
  if (!result.is_ok()) return bytes + result.status().message().size();
  const api::SolveReport& report = result.value();
  bytes += report.solver.size();
  for (int t = 0; t < report.schedule.num_tasks(); ++t) {
    const auto& decision = report.schedule.at(t);
    bytes += sizeof(sched::TaskDecision);
    for (const auto& exec : decision.executions) {
      bytes += sizeof(sched::Execution) + exec.profile.size() * sizeof(model::SpeedInterval);
    }
  }
  return bytes;
}

}  // namespace easched::store
