#pragma once
// Record payload schemas of the persistent solve-store.
//
// Two record kinds mirror the split the in-memory SolveCache keys on
// (api/digest.hpp): a *blob* record persists one interned instance — its
// 128-bit digest plus the exact canonical bytes — under a log-unique blob
// id, and an *entry* record persists one solved point: the blob id it
// belongs to (an exact reference, immune to digest collisions), the
// requested solver name, the per-point scalars (the same fields as
// frontier::CacheKey, as process-independent bit patterns) and the full
// solve outcome — a SolveReport with its schedule, or the non-OK Status a
// failed solve memoized. Doubles are stored as IEEE-754 bit patterns, so a
// reloaded schedule is bit-identical to the one that was solved.
//
// Encoding discipline matches api/digest.cpp: little-endian fixed-width
// fields, length-prefixed strings, no padding — the payload of a given
// record is byte-stable across processes and platforms.

#include <cstdint>
#include <memory>
#include <string>

#include "api/digest.hpp"
#include "api/solver.hpp"
#include "common/status.hpp"

namespace easched::store {

/// Process-independent per-point identity: the point part of a
/// frontier::CacheKey with the interned ids replaced by the blob id and
/// solver name carried alongside. Field-for-field, this is what
/// SolveCache::key_for folds into its POD key.
struct PointKey {
  std::uint8_t kind = 0;  ///< api::ProblemKind as stored
  std::uint64_t deadline_bits = 0;
  std::uint64_t frel_bits = 0;
  std::int64_t approx_K = 0;
  std::uint64_t gap_tolerance_bits = 0;
  std::int64_t max_nodes = 0;
  std::int64_t dp_buckets = 0;
  std::int64_t fork_grid = 0;
  std::int64_t polish = 0;

  friend bool operator==(const PointKey& a, const PointKey& b) noexcept {
    return a.kind == b.kind && a.deadline_bits == b.deadline_bits &&
           a.frel_bits == b.frel_bits && a.approx_K == b.approx_K &&
           a.gap_tolerance_bits == b.gap_tolerance_bits && a.max_nodes == b.max_nodes &&
           a.dp_buckets == b.dp_buckets && a.fork_grid == b.fork_grid &&
           a.polish == b.polish;
  }
};

/// One interner record: the instance a set of entries belongs to.
struct BlobRecord {
  std::uint64_t id = 0;  ///< log-unique, assigned by the writing store
  api::InstanceDigest digest;
  std::string bytes;  ///< api::instance_bytes, exact
};

/// One cache-entry record. `result` is shared because the store, the
/// in-memory cache and every caller hand out the same immutable pointee.
struct EntryRecord {
  std::uint64_t blob_id = 0;
  std::string solver;  ///< requested solver name ("" = auto-selected)
  PointKey point;
  std::shared_ptr<const common::Result<api::SolveReport>> result;
};

std::string encode_blob(const BlobRecord& blob);
common::Result<BlobRecord> decode_blob(const std::string& payload);

std::string encode_entry(const EntryRecord& entry);
common::Result<EntryRecord> decode_entry(const std::string& payload);

/// What indexing a record needs, decoded without its bulk: a blob's id
/// and digest (not its bytes), an entry's identity and whether it holds a
/// success (not the result). A payload these accept may still fail the
/// full decode; the store counts that when it reads the record back.
struct BlobHead {
  std::uint64_t id = 0;
  api::InstanceDigest digest;
};
struct EntryHead {
  std::uint64_t blob_id = 0;
  std::string solver;
  PointKey point;
  bool success = false;
};
common::Result<BlobHead> decode_blob_head(const std::string& payload);
common::Result<EntryHead> decode_entry_head(const std::string& payload);

/// Approximate resident footprint of a stored result, used by the cache's
/// byte-sized LRU accounting (schedules dominate: they scale with task
/// count and VDD profile length, everything else is near-constant).
std::size_t result_footprint_bytes(const common::Result<api::SolveReport>& result);

}  // namespace easched::store
