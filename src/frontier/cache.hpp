#pragma once
// SolveCache — thread-safe memoization of api::solve.
//
// Frontier sweeps, benches and repeat traffic issue many *identical*
// requests: the same instance, speed model, solver and constraint point.
// Within one sweep only a couple of scalars (the effective deadline, or
// the reliability threshold frel) change between hundreds of probes, so
// the cache key is split to match:
//
//  * the *instance* part (kind, graph, mapping, speeds, reliability
//    statics) is serialised once into exact canonical bytes
//    (api::instance_bytes), condensed into a 128-bit api::InstanceDigest
//    and *interned*: the InstanceInterner resolves digest -> small id by
//    exact byte comparison, so two instances that collide on the digest
//    still receive distinct ids and a hit can never alias requests a
//    solver could tell apart;
//  * the *point* part is a POD CacheKey: the interned instance id, the
//    interned solver-name id, the IEEE bit patterns of the effective
//    deadline and frel, and every SolveOptions knob a solver may read.
//
// A sweep interns once (context_for) and then probes with O(1) keys —
// warm-path lookup cost is independent of the instance size. The key's
// hash is computed once at construction and reused for both shard
// selection and the per-shard map lookup, so a probe hashes exactly once.
//
// Storage is sharded; each shard holds its own mutex so parallel sweep
// workers rarely contend, and solver runs always happen outside any lock.
// Shards keep their entries on an intrusive LRU list: with a non-zero
// `max_entries` (or `max_bytes`) capacity the least-recently-used entry
// is evicted on insert (evictions are counted in CacheStats); the default
// capacity 0 means unbounded, preserving the grow-forever behaviour
// earlier releases had. Eviction releases the entry's reference on its
// interned instance blob, so an instance's bytes are reclaimed once its
// last entry leaves the cache (`interned_blobs` in CacheStats tracks the
// live count). Failures (infeasible point, unsupported instance) are
// cached too — they are as deterministic as successes and sweeps probe
// many of them.
//
// Persistence: attach_store() connects a store::SolveStore. Depending on
// the store's options the cache then (a) pre-populates its shards from
// the log (`load_on_open`) so a restarted process replays previous
// traffic with zero solver calls, (b) appends every fresh solve
// (`write_through`), (c) persists LRU victims that were never written
// (`spill_on_evict`), and (d) on a full miss seeds the continuous
// solver's barrier from the nearest stored schedule of the same instance
// (`warm_start`, via api::SolveOptions::start_durations). Store-served
// misses count as `store_hits` and report cache_hit = true to callers.
//
// Caveat: the key includes the solver *name*, so the cache assumes the
// registry binding of a name never changes. Call clear() if you replace
// registry contents mid-process (the built-in registry never does).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/digest.hpp"
#include "api/registry.hpp"
#include "api/solver.hpp"
#include "common/mutex.hpp"
#include "common/status.hpp"
#include "common/thread_annotations.hpp"

namespace easched::store {
class SolveStore;
struct PointKey;
}  // namespace easched::store

namespace easched::frontier {

/// Monotonic counters of cache effectiveness (entries/bytes/interned_blobs
/// are snapshots).
struct CacheStats {
  std::size_t hits = 0;        ///< served from an in-memory shard
  std::size_t misses = 0;      ///< solver actually ran
  std::size_t store_hits = 0;  ///< in-memory miss served by the attached store
  std::size_t entries = 0;
  std::size_t bytes = 0;          ///< approximate resident entry bytes
  std::size_t evictions = 0;      ///< LRU entries dropped by the size caps
  std::size_t spills = 0;         ///< evicted entries persisted to the store
  std::size_t warm_seeds = 0;     ///< solves seeded from a stored neighbour
  std::size_t interned_blobs = 0; ///< live instance blobs in the interner

  double hit_rate() const noexcept {
    const std::size_t total = hits + store_hits + misses;
    return total == 0
               ? 0.0
               : static_cast<double>(hits + store_hits) / static_cast<double>(total);
  }
};

/// Per-shard slice of CacheStats (shard_stats()): hot-shard skew is
/// invisible in the aggregate, so the observability layer exports these
/// under a shard label.
struct ShardCacheStats {
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t evictions = 0;
  std::size_t spills = 0;
};

/// Exact canonical serialisation of everything `api::solve(request)`
/// depends on (api::instance_bytes + the per-point suffix). Two requests
/// share a fingerprint iff a solver cannot tell them apart. Kept for
/// exact-byte consumers (persistent spill, tests); the in-memory hot path
/// uses the interned CacheKey instead and never builds this per probe.
std::string canonical_fingerprint(const api::SolveRequest& request);

/// Resolves (digest, exact bytes) pairs to small dense ids. Two calls
/// return the same id iff the bytes are identical: digest collisions are
/// broken by comparing the stored byte strings, so ids are an *exact*
/// identity for instances. Blobs are reference-counted by cache entries
/// (add_ref/release): when the last entry of an instance is evicted its
/// bytes are reclaimed, and a context still holding the stale id simply
/// misses — never aliases. That non-aliasing guarantee is *structural*:
/// every id carries the interner's epoch in its top kEpochBits
/// (id = epoch << kSeqBits | per-epoch sequence). clear() starts a new
/// epoch and resets the sequence, so an id minted before a clear can
/// never be re-minted after it even though the counter restarts, and a
/// reclaimed-then-reinterned instance always reappears under a fresh
/// sequence number within the epoch. A long-lived sweep handle therefore
/// cannot alias a reused id no matter how the interner was recycled
/// underneath it. Thread-safe.
class InstanceInterner {
 public:
  /// Epoch / sequence split of an id. 24 epoch bits allow 16M clear()
  /// generations; 40 sequence bits allow 1T interns per generation.
  static constexpr unsigned kEpochBits = 24;
  static constexpr unsigned kSeqBits = 64 - kEpochBits;
  static constexpr std::uint64_t id_epoch(std::uint64_t id) noexcept {
    return id >> kSeqBits;
  }
  static constexpr std::uint64_t id_sequence(std::uint64_t id) noexcept {
    return id & ((std::uint64_t{1} << kSeqBits) - 1);
  }

  std::uint64_t intern(const api::InstanceDigest& digest, std::string bytes);
  /// The id intern() would return for these bytes if they are already
  /// interned, 0 otherwise. Mints nothing, so a lookup that misses leaves
  /// no blob behind.
  std::uint64_t find_id(const api::InstanceDigest& digest, const std::string& bytes) const;
  std::size_t size() const;  ///< live (non-reclaimed) blobs
  std::uint64_t epoch() const;  ///< current generation (starts at 0)
  /// True while `id` resolves to a live blob: from the current epoch and
  /// not reclaimed. A stale context can revalidate cheaply instead of
  /// paying a miss per probe.
  bool live(std::uint64_t id) const;

  /// Digest and bytes of a live id; nullopt once the blob was reclaimed.
  struct BlobRef {
    api::InstanceDigest digest;
    std::shared_ptr<const std::string> bytes;
  };
  std::optional<BlobRef> find(std::uint64_t id) const;

  /// Entry bookkeeping: one add_ref per cache entry holding `id`, one
  /// release when that entry is evicted or erased. release() of the last
  /// reference reclaims the blob. Both tolerate already-reclaimed ids.
  void add_ref(std::uint64_t id);
  void release(std::uint64_t id);

  /// Drops every interned blob and starts a new epoch: future ids carry
  /// the bumped generation tag, so ids held by stale contexts can never
  /// collide with freshly interned ones even though the per-epoch
  /// sequence counter restarts.
  void clear();

 private:
  struct Blob {
    api::InstanceDigest digest;
    std::shared_ptr<const std::string> bytes;
    std::size_t refs = 0;
  };

  /// find_id's lookup, with the mutex already held.
  std::uint64_t find_locked(const api::InstanceDigest& digest,
                            const std::string& bytes) const EASCHED_REQUIRES(mutex_);

  mutable common::Mutex mutex_;
  std::unordered_map<std::uint64_t, Blob> by_id_ EASCHED_GUARDED_BY(mutex_);
  /// digest.lo -> candidate ids; the full digest and bytes disambiguate.
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> by_digest_
      EASCHED_GUARDED_BY(mutex_);
  std::uint64_t epoch_ EASCHED_GUARDED_BY(mutex_) = 0;
  /// Per-epoch; id 0 stays invalid.
  std::uint64_t next_seq_ EASCHED_GUARDED_BY(mutex_) = 1;
};

/// POD per-point cache key. `instance` and `solver` are interner ids
/// (exact identities), the rest are bit patterns of the point scalars, so
/// operator== is exact and collision-free by construction; `hash` is
/// precomputed so a probe hashes once for both shard and map.
struct CacheKey {
  std::uint64_t instance = 0;
  std::uint64_t solver = 0;
  std::uint64_t deadline_bits = 0;
  std::uint64_t frel_bits = 0;  ///< 0 for BI-CRIT (kind is in the instance)
  std::int64_t approx_K = 0;
  std::uint64_t gap_tolerance_bits = 0;
  std::int64_t max_nodes = 0;
  std::int64_t dp_buckets = 0;
  std::int64_t fork_grid = 0;
  std::int64_t polish = 0;
  std::uint64_t hash = 0;

  friend bool operator==(const CacheKey& a, const CacheKey& b) noexcept {
    return a.instance == b.instance && a.solver == b.solver &&
           a.deadline_bits == b.deadline_bits && a.frel_bits == b.frel_bits &&
           a.approx_K == b.approx_K && a.gap_tolerance_bits == b.gap_tolerance_bits &&
           a.max_nodes == b.max_nodes && a.dp_buckets == b.dp_buckets &&
           a.fork_grid == b.fork_grid && a.polish == b.polish;
  }
};

class SolveCache {
 public:
  /// Everything a sweep interns once and reuses per probe.
  struct InstanceContext {
    std::uint64_t instance = 0;
    std::uint64_t solver = 0;
  };

  /// `shards` is rounded up to a power of two (default suits up to the
  /// default WorkerPool size cap). `max_entries` > 0 caps the entry count
  /// with per-shard LRU eviction: the cap is floor-split across shards
  /// (at least 1 per shard), and a cap smaller than the requested shard
  /// count shrinks the shard count to the largest power of two the cap
  /// covers, so the resident total never exceeds `max_entries`.
  /// `max_bytes` > 0 additionally caps the approximate resident bytes
  /// (schedules scale with task count, so an entry cap alone does not
  /// bound memory); it is floor-split the same way and a shard always
  /// retains at least its most recent entry. 0 keeps the respective cap
  /// unbounded.
  explicit SolveCache(std::size_t shards = 16, std::size_t max_entries = 0,
                      std::size_t max_bytes = 0);

  SolveCache(const SolveCache&) = delete;
  SolveCache& operator=(const SolveCache&) = delete;

  /// Stored entries are immutable and shared: a hit hands back the stored
  /// result without copying the schedule, which keeps the warm path O(1)
  /// in the instance size (a SolveReport copy is O(tasks)).
  using CachedResult = std::shared_ptr<const common::Result<api::SolveReport>>;

  /// Connects a persistent store (not owned; must outlive this cache or
  /// be detached with attach_store(nullptr)). With load_on_open set the
  /// store's live entries are interned and inserted immediately — after
  /// that, repeat traffic previously paid for by another process is
  /// served without a single solver call. The store's other policies
  /// (write_through / spill_on_evict / warm_start) apply to subsequent
  /// solve_shared traffic; see store/store.hpp.
  common::Status attach_store(store::SolveStore* store);
  store::SolveStore* store() const noexcept {
    return store_.load(std::memory_order_acquire);
  }

  /// An instance serialised (api::instance_bytes) and digested once, so
  /// a submitter can probe the cache with it (find_key) and hand the same
  /// bytes to the job that interns them on a miss (context_for).
  struct PreparedInstance {
    std::string bytes;
    api::InstanceDigest digest;
  };
  static PreparedInstance prepare(const api::SolveRequest& request);

  /// Interns the instance bytes and the solver name of `request` —
  /// O(instance size), once per sweep, never per probe.
  InstanceContext context_for(const api::SolveRequest& request);
  /// Same, with the instance already prepared from `request`.
  InstanceContext context_for(PreparedInstance prepared, const api::SolveRequest& request);

  /// Lookup-only keying: the key context_for + key_for would give
  /// `request`, provided its instance and solver name are both interned
  /// already; nullopt otherwise (then no entry can exist for it). Mints
  /// no interner ids, so probing with a request that is later shed,
  /// cancelled or expired leaves no unreferenced blob behind.
  std::optional<CacheKey> find_key(const PreparedInstance& prepared,
                                   const api::SolveRequest& request) const;

  /// Builds the POD key for one probe from an interned context — O(1) in
  /// the instance size. The hash is computed here, once.
  static CacheKey key_for(const InstanceContext& context,
                          const api::SolveRequest& request);

  /// Same key without materialising a request: callers that derive the
  /// point scalars directly (e.g. a reliability sweep, whose swept
  /// problem would otherwise be deep-copied per probe just to be keyed)
  /// pass them explicitly. `frel` is ignored for BI-CRIT.
  static CacheKey key_for(const InstanceContext& context, api::ProblemKind kind,
                          double effective_deadline, double frel,
                          const api::SolveOptions& options);

  /// Lookup-only probe: returns the stored result (counting a hit and
  /// touching the LRU order) or null without any accounting — the caller
  /// is expected to follow up with solve_shared, which records the miss.
  /// Never consults the store (the miss path of solve_shared does).
  CachedResult try_get(const CacheKey& key, bool* cache_hit = nullptr);

  /// api::solve through the cache, keyed by a precomputed `key` (which
  /// must have been built via key_for from this cache's context for this
  /// request). On an in-memory miss the attached store (if any) is
  /// consulted first — a store hit is inserted and served without running
  /// a solver. On a full miss the solver runs outside any lock (seeded
  /// from the nearest stored neighbour when the store enables warm
  /// starts) and the result is stored first-write-wins (concurrent misses
  /// of the same key both solve; the stored entry is whichever landed
  /// first, and all callers return the stored entry). `cache_hit`, when
  /// non-null, reports whether this call was served without running a
  /// solver. Never null. The pointee outlives eviction and clear() —
  /// holders keep it alive.
  CachedResult solve_shared(const api::SolveRequest& request, const CacheKey& key,
                            bool* cache_hit = nullptr);

  /// By-value convenience over solve_shared (copies the stored report).
  common::Result<api::SolveReport> solve(const api::SolveRequest& request,
                                         const CacheKey& key,
                                         bool* cache_hit = nullptr);

  /// Convenience overload: interns and keys internally (O(instance size)
  /// per call — fine for one-off traffic; sweeps use context_for +
  /// key_for to stay O(1) per probe).
  common::Result<api::SolveReport> solve(const api::SolveRequest& request,
                                         bool* cache_hit = nullptr);

  CacheStats stats() const;
  /// One entry per shard, in shard order. The hits/misses/evictions/
  /// spills counters partition the aggregate ones exactly (stats() sums
  /// these); entries/bytes are point-in-time snapshots.
  std::vector<ShardCacheStats> shard_stats() const;
  std::size_t shard_count() const noexcept { return mask_ + 1; }
  std::size_t size() const;
  /// Total entry cap (0 = unbounded) and the byte cap (0 = unbounded).
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t capacity_bytes() const noexcept { return capacity_bytes_; }
  void clear();

 private:
  struct Entry {
    CacheKey key;
    CachedResult result;
    std::size_t bytes = 0;       ///< approximate resident footprint
    std::uint8_t kind = 0;       ///< api::ProblemKind, for store spills
    bool persisted = false;      ///< already in the store; never re-spilled
    Entry(const CacheKey& k, CachedResult r) : key(k), result(std::move(r)) {}
  };

  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return static_cast<std::size_t>(k.hash);
    }
  };

  struct Shard {
    mutable common::Mutex mutex;
    /// Front = most recently used; eviction pops the back.
    std::list<Entry> lru EASCHED_GUARDED_BY(mutex);
    std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> index
        EASCHED_GUARDED_BY(mutex);
    std::size_t bytes EASCHED_GUARDED_BY(mutex) = 0;  ///< sum of entry footprints
    /// Per-shard effectiveness counters (summed by stats(), exported per
    /// shard by shard_stats()). Atomics, not guarded: the hit path bumps
    /// them under the shard mutex anyway, but keeping them lock-free lets
    /// shard_stats() read without serialising against live probes.
    std::atomic<std::size_t> hits{0};
    std::atomic<std::size_t> misses{0};
    std::atomic<std::size_t> evictions{0};
    std::atomic<std::size_t> spills{0};
  };

  /// An evicted entry waiting to be persisted. Everything the append
  /// needs is captured at eviction time (the shared_ptr keeps the blob
  /// bytes alive past their interner reclamation), so the file write can
  /// happen with no shard lock held.
  struct Spill {
    CacheKey key;
    std::uint8_t kind = 0;
    CachedResult result;
    api::InstanceDigest digest;
    std::shared_ptr<const std::string> bytes;
  };

  /// Inserts under the shard lock (caller must hold it), charging bytes,
  /// taking the blob reference and running the eviction loop. Returns the
  /// stored result (the racer's, if one beat us to the key). Victims the
  /// store should keep are appended to `spills` — the caller writes them
  /// via spill_now() *after* releasing the shard lock, so eviction never
  /// stalls concurrent lookups on file I/O.
  CachedResult insert_locked(Shard& shard, const CacheKey& key, std::uint8_t kind,
                             CachedResult result, bool persisted,
                             std::vector<Spill>& spills)
      EASCHED_REQUIRES(shard.mutex);
  /// Evicts LRU entries while either cap is exceeded, collecting
  /// never-persisted victims into `spills` when the store asks for that.
  void evict_locked(Shard& shard, std::vector<Spill>& spills)
      EASCHED_REQUIRES(shard.mutex);
  /// Appends collected victims of `shard` to the store. Takes no cache
  /// locks; call with none held.
  void spill_now(Shard& shard, const std::vector<Spill>& spills);
  /// Reverse of the solver-name interning (empty string for unknown ids).
  std::string solver_name_for(std::uint64_t id) const;
  /// The solver name's id, minted on first sight.
  std::uint64_t intern_solver(const std::string& name);

  std::size_t mask_ = 0;  ///< shard count - 1 (power of two)
  std::size_t capacity_ = 0;
  std::size_t shard_capacity_ = 0;  ///< 0 = unbounded
  std::size_t capacity_bytes_ = 0;
  std::size_t shard_capacity_bytes_ = 0;  ///< 0 = unbounded
  std::unique_ptr<Shard[]> shards_;
  InstanceInterner instances_;
  /// Atomic, not mutex-guarded: attach_store may legitimately race live
  /// solve traffic (a serving tier warming its store late), and readers
  /// snapshot the pointer once per operation. The store itself is
  /// internally synchronised; release/acquire orders its construction.
  std::atomic<store::SolveStore*> store_{nullptr};
  mutable common::Mutex solver_mutex_;
  std::unordered_map<std::string, std::uint64_t> solver_ids_
      EASCHED_GUARDED_BY(solver_mutex_);
  /// id - 1 -> name.
  std::vector<std::string> solver_names_ EASCHED_GUARDED_BY(solver_mutex_);
  /// Store-path counters stay global (the store is not sharded); the
  /// in-memory hit/miss/eviction/spill counters live per shard.
  std::atomic<std::size_t> store_hits_{0};
  std::atomic<std::size_t> warm_seeds_{0};
};

}  // namespace easched::frontier
