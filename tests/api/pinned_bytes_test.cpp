// Byte pins for every identity a persistent store or cache keys on: the
// canonical instance bytes, their 128-bit digest, the per-point suffix,
// and the store's entry-record encoding of the point key. The constants
// are literal on purpose: a store written by any earlier build stays
// valid only while these bytes do not move, and comparing two digests
// computed by the same build cannot show that.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "api/digest.hpp"
#include "core/problem.hpp"
#include "frontier/cache.hpp"
#include "sched/list_scheduler.hpp"
#include "store/serialize.hpp"

namespace easched::api {
namespace {

std::string hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

graph::Dag fork_dag() {
  graph::Dag dag;
  const auto a = dag.add_task(2.0, "a");
  const auto b = dag.add_task(3.0, "b");
  const auto c = dag.add_task(1.5, "c");
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  return dag;
}

sched::Mapping fork_mapping(const graph::Dag& dag) {
  return sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
}

/// The store's encoding of the point key the cache files `request` under,
/// as the entry record's leading bytes (blob id 1, a fixed failure result).
std::string entry_bytes(const SolveRequest& request) {
  frontier::SolveCache cache;
  const frontier::CacheKey key =
      frontier::SolveCache::key_for(cache.context_for(request), request);
  store::EntryRecord entry;
  entry.blob_id = 1;
  entry.solver = request.solver;
  entry.point.kind = static_cast<std::uint8_t>(request.kind());
  entry.point.deadline_bits = key.deadline_bits;
  entry.point.frel_bits = key.frel_bits;
  entry.point.approx_K = key.approx_K;
  entry.point.gap_tolerance_bits = key.gap_tolerance_bits;
  entry.point.max_nodes = key.max_nodes;
  entry.point.dp_buckets = key.dp_buckets;
  entry.point.fork_grid = key.fork_grid;
  entry.point.polish = key.polish;
  entry.result = std::make_shared<const common::Result<SolveReport>>(
      common::Status::infeasible("pinned"));
  return store::encode_entry(entry);
}

struct Pins {
  const char* instance;
  const char* digest_hi;
  const char* digest_lo;
  const char* point;
  const char* entry;
};

void expect_pinned(const SolveRequest& request, const Pins& pins) {
  const std::string bytes = instance_bytes(request);
  const InstanceDigest digest = instance_digest(request);
  std::string point;
  append_point_bytes(point, request);
  EXPECT_EQ(hex(bytes), pins.instance);
  EXPECT_EQ(hex64(digest.hi), pins.digest_hi);
  EXPECT_EQ(hex64(digest.lo), pins.digest_lo);
  EXPECT_EQ(hex(point), pins.point);
  EXPECT_EQ(hex(entry_bytes(request)), pins.entry);
}

TEST(PinnedBytes, BiCritRequest) {
  const auto dag = fork_dag();
  const core::BiCritProblem problem(dag, fork_mapping(dag),
                                    model::SpeedModel::continuous(0.2, 1.0), 12.0);
  expect_pinned(SolveRequest(problem, "continuous-ipm"),
                Pins{"500000000000000000470300000000000000000000000000004000000000000008400000"
                     "00000000f83f450200000000000000000000000000000001000000000000000000000000"
                     "00000002000000000000004d020000000000000002000000000000000000000000000000"
                     "0100000000000000010000000000000002000000000000005300000000000000009a9999"
                     "999999c93f000000000000f03f00000000000000000000000000000000",
                     "381128d6a4578fff",
                     "bbb687599f8f6d2a",
                     "4400000000000028404e0e00000000000000636f6e74696e756f75732d69706d4f0a0000"
                     "000000000000000000000000000000000000000000204e00000000000000020000000000"
                     "000100000000000000",
                     "01000000000000000e00000000000000636f6e74696e756f75732d69706d000000000000"
                     "00284000000000000000000a000000000000000000000000000000000000000000000020"
                     "4e000000000000000200000000000001000000000000000001060000000000000070696e"
                     "6e6564"});
}

TEST(PinnedBytes, TriCritRequest) {
  const auto dag = fork_dag();
  const core::TriCritProblem problem(dag, fork_mapping(dag),
                                     model::SpeedModel::continuous(0.2, 1.0),
                                     model::ReliabilityModel(1e-5, 3.0, 0.2, 1.0, 0.8), 20.0);
  SolveOptions options;
  options.deadline_slack = 1.5;
  expect_pinned(SolveRequest(problem, "", options),
                Pins{"500100000000000000470300000000000000000000000000004000000000000008400000"
                     "00000000f83f450200000000000000000000000000000001000000000000000000000000"
                     "00000002000000000000004d020000000000000002000000000000000000000000000000"
                     "0100000000000000010000000000000002000000000000005300000000000000009a9999"
                     "999999c93f000000000000f03f0000000000000000000000000000000052f168e388b5f8"
                     "e43e00000000000008409a9999999999c93f000000000000f03f",
                     "81c06cb5ecc48e8a",
                     "459e3b2ba6def015",
                     "440000000000003e40469a9999999999e93f4e00000000000000004f0a00000000000000"
                     "00000000000000000000000000000000204e000000000000000200000000000001000000"
                     "00000000",
                     "01000000000000000000000000000000010000000000003e409a9999999999e93f0a0000"
                     "000000000000000000000000000000000000000000204e00000000000000020000000000"
                     "0001000000000000000001060000000000000070696e6e6564"});
}

TEST(PinnedBytes, NamespacedRequest) {
  const auto dag = fork_dag();
  const core::BiCritProblem problem(dag, fork_mapping(dag),
                                    model::SpeedModel::discrete({0.25, 0.5, 1.0}), 14.0);
  SolveOptions options;
  options.cache_namespace = "tenant-a";
  options.approx_K = 7;
  options.polish = false;
  expect_pinned(SolveRequest(problem, "discrete-bnb", options),
                Pins{"54080000000000000074656e616e742d6150000000000000000047030000000000000000"
                     "000000000000400000000000000840000000000000f83f45020000000000000000000000"
                     "000000000100000000000000000000000000000002000000000000004d02000000000000"
                     "000200000000000000000000000000000001000000000000000100000000000000020000"
                     "0000000000530100000000000000000000000000d03f000000000000f03f000000000000"
                     "00000300000000000000000000000000d03f000000000000e03f000000000000f03f",
                     "3f0ee2a7851beb43",
                     "55f7cb5c40ae3e31",
                     "440000000000002c404e0c0000000000000064697363726574652d626e624f0700000000"
                     "00000000000000000000000000000000000000204e000000000000000200000000000000"
                     "00000000000000",
                     "01000000000000000c0000000000000064697363726574652d626e62000000000000002c"
                     "400000000000000000070000000000000000000000000000000000000000000000204e00"
                     "0000000000000200000000000000000000000000000001060000000000000070696e6e65"
                     "64"});
}

}  // namespace
}  // namespace easched::api
