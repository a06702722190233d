#pragma once
// SolveStore — the persistent half of the solve cache.
//
// A SolveStore owns one RecordLog and indexes it without keeping any of
// it decoded. The index is open-addressing tables of 16-byte slots, a
// 64-bit key hash and a log offset each: entry-key hash -> the live
// entry record; instance-digest hash -> the blob record; and, in a store
// opened for warm starts, blob-id hash -> its successful BI-CRIT entries.
// That is a few dozen bytes per answer served, however large its
// schedule. Lookups read the record back (one pread pair per candidate),
// check its CRC, compare the exact key or instance bytes and decode it,
// so every store hit costs file I/O — usually the page cache's. A hash
// collision costs an extra read, never a wrong answer; a record that
// fails its read-back (bytes changed on disk after open) is a miss,
// counted in StoreStats::read_corrupt. Opening and refreshing decode
// record keys only. The SolveCache above the store keeps the decoded
// answers and bounds them. It attaches one store and drives it through
// the policies picked in StoreOptions:
//
//  * write_through — every freshly solved entry is appended immediately,
//    so the log is as warm as the process that just exited;
//  * load_on_open  — SolveCache::attach_store pre-populates its shards
//    from the store, so a restarted process replays previous traffic at
//    cache speed with zero solver calls;
//  * spill_on_evict — LRU-evicted entries that were never persisted are
//    appended instead of dropped (only meaningful with write_through off);
//  * warm_start    — on a miss with no stored entry, the nearest stored
//    schedule of the *same instance* (different deadline) seeds the
//    continuous solver's barrier via SolveOptions::start_durations.
//
// Identity is exact end to end: entries reference their instance by blob
// id (not digest), and blob resolution compares the canonical bytes, so a
// digest collision can never alias two instances — the same guarantee the
// in-memory interner gives. Lookups keyed by (digest, bytes) rather than
// process-local interner ids are what makes entries portable across
// processes.
//
// The offline maintenance entry points (stat / verify / compact) operate
// on a path; `easched_cli store` wraps them. Compaction rewrites the log
// keeping only the latest record per entry key and only blobs still
// referenced by a surviving entry, then atomically renames it into place
// (readers detect the inode swap on their next refresh and rebuild).

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/digest.hpp"
#include "api/solver.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"
#include "store/log.hpp"
#include "store/serialize.hpp"

namespace easched::store {

struct StoreOptions {
  std::string path;
  bool read_only = false;     ///< reader mode: never locks, never appends
  bool write_through = true;  ///< append every fresh solve as it happens
  bool load_on_open = true;   ///< pre-populate an attaching SolveCache
  bool spill_on_evict = true; ///< persist unpersisted entries on LRU eviction
  bool warm_start = false;    ///< nearest-neighbour barrier seeding (opt-in:
                              ///< hints change low-order result bits, see
                              ///< api::SolveOptions::start_durations); only
                              ///< such a store indexes nearest_schedule
};

struct StoreStats {
  std::size_t blobs = 0;        ///< interned instances
  std::size_t entries = 0;      ///< live entries (latest record per key; an
                                ///< entry whose blob is missing still counts
                                ///< here, but is never served)
  std::size_t superseded = 0;   ///< records replaced by a later same-key record
  std::uint64_t file_bytes = 0; ///< log size on disk
  std::uint64_t torn_bytes = 0; ///< bytes dropped as torn/corrupt tail
  std::size_t appended = 0;     ///< records appended by this handle
  std::size_t served = 0;       ///< lookups answered by this handle
  std::size_t read_corrupt = 0; ///< indexed records that failed read-back
};

struct CompactionReport {
  std::size_t blobs_in = 0, blobs_out = 0;
  std::size_t entries_in = 0, entries_out = 0;
  std::uint64_t bytes_in = 0, bytes_out = 0;
};

class SolveStore {
 public:
  using StoredResult = std::shared_ptr<const common::Result<api::SolveReport>>;

  /// Opens the log at options.path (creating it unless read_only) and
  /// loads every intact record into the in-memory index. A torn tail is
  /// truncated (writer) or ignored (reader), never fatal.
  static common::Result<SolveStore> open(StoreOptions options);

  SolveStore(SolveStore&&) = default;
  SolveStore& operator=(SolveStore&&) = default;

  const StoreOptions& options() const noexcept { return options_; }

  /// Persists one solved point. The blob is appended once per distinct
  /// instance; re-putting an identical key is a no-op (solves are
  /// deterministic, the stored record already says it all). Thread-safe.
  common::Status put(const api::InstanceDigest& digest, const std::string& instance_bytes,
                     const std::string& solver, const PointKey& point,
                     const StoredResult& result);

  /// Exact lookup; null on miss. Thread-safe.
  StoredResult find(const api::InstanceDigest& digest, const std::string& instance_bytes,
                    const std::string& solver, const PointKey& point);

  /// The stored *successful* BI-CRIT solve of the same instance whose
  /// effective deadline is closest to `deadline`; null when the instance
  /// has no such neighbour, or the store was not opened with warm_start
  /// (it keeps the index this reads only then). Feeds warm starts.
  /// Thread-safe.
  StoredResult nearest_schedule(const api::InstanceDigest& digest,
                                const std::string& instance_bytes, double deadline,
                                double* neighbor_deadline = nullptr);

  /// Picks up records appended (or the whole log rewritten) by another
  /// process since open/the last refresh. Writer handles are their own
  /// source of truth and return immediately. Thread-safe.
  common::Status refresh();

  /// Every live entry with its instance resolved, for cache pre-loading,
  /// in log order. A run of entries of one instance shares one
  /// `instance_bytes` object, and the next run's object is made before
  /// the previous one is released, so consecutive calls with the same
  /// address are the same instance. Records are read back one by one
  /// with the lock released around `fn` — `fn` may call back into
  /// anything, including a SolveCache that spills to this store. Entries
  /// that fail their read-back or whose blob is missing are skipped (the
  /// former counted in read_corrupt).
  void for_each(const std::function<void(
                    const api::InstanceDigest& digest, const std::string& instance_bytes,
                    const std::string& solver, const PointKey& point,
                    const StoredResult& result)>& fn);

  StoreStats stats() const;

  /// Forces appended records to stable storage.
  common::Status sync();

  // ---- offline maintenance (easched_cli store) ----

  /// *Raw* record/byte counts of the log at `path` without decoding
  /// payloads — `entries` here counts entry *records*, superseded ones
  /// included (telling them apart requires decoding; use verify()).
  static common::Result<StoreStats> stat(const std::string& path);

  /// Full scan: every record's CRC *and* payload must decode, and every
  /// entry must reference a blob that precedes it. Counts live entries
  /// and superseded records separately (same semantics as open()).
  /// Returns the counts on success, the first inconsistency as a Status
  /// otherwise (a torn tail is reported in torn_bytes, not as an error —
  /// it is recoverable).
  static common::Result<StoreStats> verify(const std::string& path);

  /// Rewrites the log dropping superseded entry records and orphaned
  /// blobs, then atomically renames the rewrite into place. Requires the
  /// writer lock (fails fast when a live writer holds the log).
  static common::Result<CompactionReport> compact(const std::string& path);

 private:
  explicit SolveStore(StoreOptions options, RecordLog log)
      : options_(std::move(options)), log_(std::move(log)) {}

  /// Open-addressing multimap from a 64-bit key hash to record offsets:
  /// one 16-byte slot per record, no node, no key copy. Callers tell a
  /// collision from a match by reading the record back.
  class OffsetIndex {
   public:
    void insert(std::uint64_t hash, std::uint64_t offset);
    /// Marks a slot whose record no longer reads back: skipped by every
    /// later visit, never read again. Records start past the log header,
    /// so no record has this offset.
    static constexpr std::uint64_t kDropped = 1;

    /// Calls fn(offset&) for each offset stored under `hash` — fn may
    /// update it in place, or set it to kDropped — until fn returns true;
    /// returns whether it did.
    template <class Fn>
    bool visit(std::uint64_t hash, Fn&& fn);
    std::vector<std::uint64_t> offsets() const;
    std::size_t size() const noexcept { return size_; }
    void clear();

   private:
    struct Slot {
      std::uint64_t hash = 0;
      std::uint64_t offset = 0;  ///< 0 = empty: records start past the header
    };
    std::vector<Slot> slots_;
    std::size_t size_ = 0;  ///< live slots
    std::size_t used_ = 0;  ///< live and dropped slots
  };

  static std::uint64_t entry_hash(std::uint64_t blob_id, const std::string& solver,
                                  const PointKey& point) noexcept;
  static std::uint64_t digest_hash(const api::InstanceDigest& digest) noexcept;
  static std::uint64_t blob_hash(std::uint64_t blob_id) noexcept;

  /// Indexes one record from poll() or append() (lock held). Same-hash
  /// candidates are read back to tell a re-recorded key from a collision.
  void index_blob(const BlobHead& head, std::uint64_t offset) EASCHED_REQUIRES(*mutex_);
  void index_entry(const EntryHead& head, std::uint64_t offset) EASCHED_REQUIRES(*mutex_);
  /// Blob id for (digest, bytes), or 0 when the pair is not interned.
  std::uint64_t find_blob_id(const api::InstanceDigest& digest, const std::string& bytes)
      EASCHED_REQUIRES(*mutex_);
  /// Whether the exact key has a live entry record.
  bool has_entry(std::uint64_t blob_id, const std::string& solver, const PointKey& point)
      EASCHED_REQUIRES(*mutex_);
  /// Reads a record back; nullopt, counted in read_corrupt_, when it
  /// fails its framing or CRC check. The typed readers also count a
  /// payload that does not decode. Each takes the index slot it read
  /// through, when there is one, and drops it on failure, so a corrupt
  /// record is counted once per index and never read again.
  std::optional<std::string> read(RecordType type, std::uint64_t& slot)
      EASCHED_REQUIRES(*mutex_);
  std::optional<EntryRecord> read_entry(std::uint64_t& slot) EASCHED_REQUIRES(*mutex_);
  std::optional<EntryHead> read_entry_head(std::uint64_t& slot) EASCHED_REQUIRES(*mutex_);
  std::optional<BlobRecord> read_blob(std::uint64_t& slot) EASCHED_REQUIRES(*mutex_);
  template <class T>
  std::optional<T> read_decoded(RecordType type, std::uint64_t& slot,
                                common::Result<T> (*decode)(const std::string&))
      EASCHED_REQUIRES(*mutex_);
  void clear_index() EASCHED_REQUIRES(*mutex_);

  StoreOptions options_;  ///< immutable after open(); read lock-free

  /// Heap-allocated so SolveStore stays movable (a Mutex is not); every
  /// index below plus the log is guarded by it. Lock order: a SolveCache
  /// shard mutex may be held around put()/find() only via the documented
  /// shard -> store direction (see common/mutex.hpp).
  mutable std::unique_ptr<common::Mutex> mutex_ = std::make_unique<common::Mutex>();
  RecordLog log_ EASCHED_GUARDED_BY(*mutex_);
  OffsetIndex blobs_ EASCHED_GUARDED_BY(*mutex_);    ///< digest hash -> blob record
  OffsetIndex entries_ EASCHED_GUARDED_BY(*mutex_);  ///< key hash -> live entry record
  /// Blob-id hash -> its successful BI-CRIT entry records, for
  /// nearest_schedule; kept only with options_.warm_start.
  OffsetIndex schedules_ EASCHED_GUARDED_BY(*mutex_);
  std::uint64_t next_blob_id_ EASCHED_GUARDED_BY(*mutex_) = 1;
  std::size_t superseded_ EASCHED_GUARDED_BY(*mutex_) = 0;
  std::size_t appended_ EASCHED_GUARDED_BY(*mutex_) = 0;
  std::size_t served_ EASCHED_GUARDED_BY(*mutex_) = 0;
  std::size_t read_corrupt_ EASCHED_GUARDED_BY(*mutex_) = 0;
};

}  // namespace easched::store
