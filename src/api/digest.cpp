#include "api/digest.hpp"

#include <cstring>

#include "core/problem.hpp"
#include "graph/dag.hpp"
#include "model/reliability.hpp"
#include "model/speed_model.hpp"
#include "sched/mapping.hpp"

namespace easched::api {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void append_i64(std::string& out, long long v) {
  append_u64(out, static_cast<std::uint64_t>(v));
}

void append_double(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  append_u64(out, bits);
}

void append_tag(std::string& out, char tag) { out.push_back(tag); }

void append_dag(std::string& out, const graph::Dag& dag) {
  append_tag(out, 'G');
  append_i64(out, dag.num_tasks());
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) append_double(out, dag.weight(t));
  append_tag(out, 'E');
  append_i64(out, dag.num_edges());
  for (graph::TaskId t = 0; t < dag.num_tasks(); ++t) {
    for (graph::TaskId s : dag.successors(t)) {
      append_i64(out, t);
      append_i64(out, s);
    }
  }
}

void append_mapping(std::string& out, const sched::Mapping& mapping) {
  append_tag(out, 'M');
  append_i64(out, mapping.num_processors());
  for (int p = 0; p < mapping.num_processors(); ++p) {
    const auto& order = mapping.order_on(p);
    append_i64(out, static_cast<long long>(order.size()));
    for (graph::TaskId t : order) append_i64(out, t);
  }
}

void append_speeds(std::string& out, const model::SpeedModel& speeds) {
  append_tag(out, 'S');
  append_i64(out, static_cast<long long>(speeds.kind()));
  append_double(out, speeds.fmin());
  append_double(out, speeds.fmax());
  append_double(out, speeds.delta());
  append_i64(out, speeds.num_levels());
  for (double level : speeds.levels()) append_double(out, level);
}

// Reliability statics only: frel is a per-point quantity (the reliability
// sweep varies it while everything else stays fixed), so it lives in the
// point suffix, not the instance bytes.
void append_reliability_statics(std::string& out, const model::ReliabilityModel& rel) {
  append_tag(out, 'R');
  append_double(out, rel.lambda0());
  append_double(out, rel.sensitivity());
  append_double(out, rel.fmin());
  append_double(out, rel.fmax());
}

void append_options(std::string& out, const SolveOptions& opt) {
  // deadline_slack is deliberately absent: it is already folded into the
  // effective deadline, so (D=10, slack=1) and (D=5, slack=2) share a key.
  // start_durations is absent too: it is a warm-start hint the barrier
  // converges through, not an input that changes what problem is solved.
  append_tag(out, 'O');
  append_i64(out, opt.approx_K);
  append_double(out, opt.gap_tolerance);
  append_i64(out, opt.max_nodes);
  append_i64(out, opt.dp_buckets);
  append_i64(out, opt.fork_grid);
  append_i64(out, opt.polish ? 1 : 0);
}

std::uint64_t rotl64(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

}  // namespace

std::string instance_bytes(const SolveRequest& request) {
  std::string out;
  out.reserve(256);
  // The namespace tag leads (when present) so tenants partition the byte
  // space before any structural field. An empty namespace appends nothing,
  // keeping the encoding byte-identical to pre-namespace stores; the 'T'
  // tag never collides with the 'P' every un-namespaced stream starts
  // with, so the two shapes stay prefix-free.
  if (!request.options.cache_namespace.empty()) {
    append_tag(out, 'T');
    append_i64(out, static_cast<long long>(request.options.cache_namespace.size()));
    out += request.options.cache_namespace;
  }
  append_tag(out, 'P');
  append_i64(out, static_cast<long long>(request.kind()));
  append_dag(out, request.dag());
  append_mapping(out, request.mapping());
  append_speeds(out, request.speeds());
  if (request.problem->reliability) {
    append_reliability_statics(out, *request.problem->reliability);
  }
  return out;
}

InstanceDigest digest_bytes(const std::string& bytes) {
  // Two independently-mixed 64-bit lanes over little-endian 8-byte words,
  // zero-padded tail, length folded into the finaliser. Not cryptographic
  // — the interner's exact byte comparison backstops collisions — but
  // well-mixed enough that accidental collisions are ~2^-128 events.
  std::uint64_t lo = 0x9e3779b97f4a7c15ULL;
  std::uint64_t hi = 0xc2b2ae3d27d4eb4fULL;
  // Words are assembled explicitly little-endian so the digest of a given
  // byte string is identical on every host, as the cross-process contract
  // in the header promises.
  const std::size_t n = bytes.size();
  auto load_word = [&](std::size_t at, std::size_t len) {
    std::uint64_t w = 0;
    for (std::size_t b = 0; b < len; ++b) {
      w |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[at + b]))
           << (8 * b);
    }
    return w;
  };
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t w = load_word(i, 8);
    lo = mix64(lo ^ w);
    hi = mix64(hi + rotl64(w, 31));
    i += 8;
  }
  if (i < n) {
    const std::uint64_t w = load_word(i, n - i);
    lo = mix64(lo ^ w);
    hi = mix64(hi + rotl64(w, 31));
  }
  lo = mix64(lo ^ static_cast<std::uint64_t>(n));
  hi = mix64(hi ^ rotl64(static_cast<std::uint64_t>(n), 17) ^ lo);
  return InstanceDigest{hi, lo};
}

InstanceDigest instance_digest(const SolveRequest& request) {
  return digest_bytes(instance_bytes(request));
}

void append_point_bytes(std::string& out, const SolveRequest& request) {
  append_tag(out, 'D');
  append_double(out, request.deadline());
  if (request.problem->reliability) {
    append_tag(out, 'F');
    append_double(out, request.problem->reliability->frel());
  }
  append_tag(out, 'N');
  append_i64(out, static_cast<long long>(request.solver.size()));
  out += request.solver;
  append_options(out, request.options);
}

}  // namespace easched::api
