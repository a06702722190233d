#include "frontier/cache.hpp"

#include <cstring>

#include "core/problem.hpp"
#include "store/serialize.hpp"
#include "store/store.hpp"

namespace easched::frontier {
namespace {

using api::mix64;

std::uint64_t double_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Computes the one hash shard selection and map lookup share.
void hash_key(CacheKey& key) {
  std::uint64_t h = 0x2545f4914f6cdd1dULL;
  h = mix64(h ^ key.instance);
  h = mix64(h ^ key.solver);
  h = mix64(h ^ key.deadline_bits);
  h = mix64(h ^ key.frel_bits);
  h = mix64(h ^ static_cast<std::uint64_t>(key.approx_K));
  h = mix64(h ^ key.gap_tolerance_bits);
  h = mix64(h ^ static_cast<std::uint64_t>(key.max_nodes));
  h = mix64(h ^ static_cast<std::uint64_t>(key.dp_buckets));
  h = mix64(h ^ static_cast<std::uint64_t>(key.fork_grid));
  h = mix64(h ^ static_cast<std::uint64_t>(key.polish));
  key.hash = h;
}

/// The process-independent point identity of a key (what the store files
/// entries under). Field-for-field the same scalars; only the interner
/// ids are replaced by digest/bytes and solver name at the call sites.
store::PointKey point_key_from(const CacheKey& key, std::uint8_t kind) {
  store::PointKey point;
  point.kind = kind;
  point.deadline_bits = key.deadline_bits;
  point.frel_bits = key.frel_bits;
  point.approx_K = key.approx_K;
  point.gap_tolerance_bits = key.gap_tolerance_bits;
  point.max_nodes = key.max_nodes;
  point.dp_buckets = key.dp_buckets;
  point.fork_grid = key.fork_grid;
  point.polish = key.polish;
  return point;
}

/// Inverse of point_key_from, for store entries entering the cache.
CacheKey key_from_point(std::uint64_t instance, std::uint64_t solver,
                        const store::PointKey& point) {
  CacheKey key;
  key.instance = instance;
  key.solver = solver;
  key.deadline_bits = point.deadline_bits;
  key.frel_bits = point.frel_bits;
  key.approx_K = point.approx_K;
  key.gap_tolerance_bits = point.gap_tolerance_bits;
  key.max_nodes = point.max_nodes;
  key.dp_buckets = point.dp_buckets;
  key.fork_grid = point.fork_grid;
  key.polish = point.polish;
  hash_key(key);
  return key;
}

}  // namespace

std::string canonical_fingerprint(const api::SolveRequest& request) {
  std::string out = api::instance_bytes(request);
  api::append_point_bytes(out, request);
  return out;
}

std::uint64_t InstanceInterner::find_locked(const api::InstanceDigest& digest,
                                            const std::string& bytes) const {
  auto bucket = by_digest_.find(digest.lo);
  if (bucket == by_digest_.end()) return 0;
  for (std::uint64_t id : bucket->second) {
    // Exact-equality fallback: the digest narrows the candidates, the
    // byte comparison decides. A digest collision between different
    // instances lands two blobs in one bucket with distinct ids.
    auto it = by_id_.find(id);
    if (it != by_id_.end() && it->second.digest == digest && *it->second.bytes == bytes) {
      return id;
    }
  }
  return 0;
}

std::uint64_t InstanceInterner::intern(const api::InstanceDigest& digest,
                                       std::string bytes) {
  common::MutexLock lock(mutex_);
  if (const std::uint64_t id = find_locked(digest, bytes); id != 0) return id;
  // Mint the id with the current epoch in the top bits: epoch + sequence
  // together are unique across the interner's whole life, which is what
  // makes stale contexts miss instead of alias (see the class comment).
  const std::uint64_t id = (epoch_ << kSeqBits) | next_seq_++;
  by_id_.emplace(id, Blob{digest, std::make_shared<const std::string>(std::move(bytes)),
                          /*refs=*/0});
  by_digest_[digest.lo].push_back(id);
  return id;
}

std::uint64_t InstanceInterner::find_id(const api::InstanceDigest& digest,
                                        const std::string& bytes) const {
  common::MutexLock lock(mutex_);
  return find_locked(digest, bytes);
}

std::size_t InstanceInterner::size() const {
  common::MutexLock lock(mutex_);
  return by_id_.size();
}

std::uint64_t InstanceInterner::epoch() const {
  common::MutexLock lock(mutex_);
  return epoch_;
}

bool InstanceInterner::live(std::uint64_t id) const {
  common::MutexLock lock(mutex_);
  return id_epoch(id) == epoch_ && by_id_.find(id) != by_id_.end();
}

std::optional<InstanceInterner::BlobRef> InstanceInterner::find(std::uint64_t id) const {
  common::MutexLock lock(mutex_);
  auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  return BlobRef{it->second.digest, it->second.bytes};
}

void InstanceInterner::add_ref(std::uint64_t id) {
  common::MutexLock lock(mutex_);
  auto it = by_id_.find(id);
  if (it != by_id_.end()) ++it->second.refs;
}

void InstanceInterner::release(std::uint64_t id) {
  common::MutexLock lock(mutex_);
  auto it = by_id_.find(id);
  if (it == by_id_.end() || it->second.refs == 0) return;
  if (--it->second.refs > 0) return;
  // Last entry gone: reclaim the bytes. A context still holding this id
  // will miss and re-intern under a fresh id — ids are never reused, so
  // reclamation can never alias two instances.
  auto bucket = by_digest_.find(it->second.digest.lo);
  if (bucket != by_digest_.end()) {
    auto& ids = bucket->second;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) {
        ids[i] = ids.back();
        ids.pop_back();
        break;
      }
    }
    if (ids.empty()) by_digest_.erase(bucket);
  }
  by_id_.erase(it);
}

void InstanceInterner::clear() {
  common::MutexLock lock(mutex_);
  by_id_.clear();
  by_digest_.clear();
  // New epoch, fresh sequence: a context interned before this clear keeps
  // an id whose epoch tag no future intern can carry, so its keys simply
  // miss — structurally, not by relying on a counter staying monotonic.
  ++epoch_;
  next_seq_ = 1;
}

SolveCache::SolveCache(std::size_t shards, std::size_t max_entries,
                       std::size_t max_bytes) {
  std::size_t n = 1;
  while (n < shards) n <<= 1;
  // A cap below the shard count would overshoot: the floor split keeps at
  // least one entry per shard, so shrink to the largest power of two not
  // exceeding the cap (callers used to hand-roll exactly this clamp).
  if (max_entries > 0) {
    while (n > 1 && n > max_entries) n >>= 1;
  }
  mask_ = n - 1;
  capacity_ = max_entries;
  if (max_entries > 0) {
    // Floor split: with max_entries >= shards the resident total never
    // exceeds the cap (it may undershoot by < shards). Caps smaller than
    // the shard count degrade to one entry per shard.
    shard_capacity_ = max_entries / n;
    if (shard_capacity_ == 0) shard_capacity_ = 1;
  }
  capacity_bytes_ = max_bytes;
  if (max_bytes > 0) {
    shard_capacity_bytes_ = max_bytes / n;
    if (shard_capacity_bytes_ == 0) shard_capacity_bytes_ = 1;
  }
  shards_ = std::make_unique<Shard[]>(n);
}

common::Status SolveCache::attach_store(store::SolveStore* store) {
  store_.store(store, std::memory_order_release);
  if (store == nullptr || !store->options().load_on_open) return common::Status::ok();
  // Pre-populate: every live store entry becomes a resident cache entry
  // (marked persisted, so it can never be spilled back). Entries beyond
  // the LRU caps are evicted as usual — a capped cache loads the most
  // recently replayed subset rather than overflowing. Interning is
  // memoized per instance (for_each hands the entries of one instance
  // over in a row, sharing one bytes object, and consecutive instances
  // never share an address), keeping the load O(bytes + entries) instead
  // of one full byte-compare per entry.
  const std::string* memo_bytes = nullptr;
  std::uint64_t memo_instance = 0;
  std::unordered_map<std::string, std::uint64_t> solver_memo;
  store->for_each([&](const api::InstanceDigest& digest, const std::string& bytes,
                      const std::string& solver, const store::PointKey& point,
                      const store::SolveStore::StoredResult& result) {
    if (&bytes != memo_bytes) {
      memo_bytes = &bytes;
      memo_instance = instances_.intern(digest, bytes);
    }
    const std::uint64_t instance = memo_instance;
    auto [solver_it, fresh_solver] = solver_memo.emplace(solver, 0);
    if (fresh_solver) solver_it->second = intern_solver(solver);
    const std::uint64_t solver_id = solver_it->second;
    const CacheKey key = key_from_point(instance, solver_id, point);
    Shard& shard = shards_[key.hash & mask_];
    std::vector<Spill> spills;
    {
      common::MutexLock lock(shard.mutex);
      if (shard.index.find(key) != shard.index.end()) return;
      insert_locked(shard, key, point.kind, result, /*persisted=*/true, spills);
    }
    spill_now(shard, spills);  // loaded entries are persisted, so this is empty
  });
  return common::Status::ok();
}

SolveCache::PreparedInstance SolveCache::prepare(const api::SolveRequest& request) {
  PreparedInstance prepared;
  prepared.bytes = api::instance_bytes(request);
  prepared.digest = api::digest_bytes(prepared.bytes);
  return prepared;
}

SolveCache::InstanceContext SolveCache::context_for(const api::SolveRequest& request) {
  return context_for(prepare(request), request);
}

SolveCache::InstanceContext SolveCache::context_for(PreparedInstance prepared,
                                                    const api::SolveRequest& request) {
  InstanceContext context;
  context.instance = instances_.intern(prepared.digest, std::move(prepared.bytes));
  context.solver = intern_solver(request.solver);
  return context;
}

std::optional<CacheKey> SolveCache::find_key(const PreparedInstance& prepared,
                                             const api::SolveRequest& request) const {
  InstanceContext context;
  context.instance = instances_.find_id(prepared.digest, prepared.bytes);
  if (context.instance == 0) return std::nullopt;
  {
    common::MutexLock lock(solver_mutex_);
    auto it = solver_ids_.find(request.solver);
    if (it == solver_ids_.end()) return std::nullopt;
    context.solver = it->second;
  }
  return key_for(context, request);
}

std::uint64_t SolveCache::intern_solver(const std::string& name) {
  common::MutexLock lock(solver_mutex_);
  auto [it, inserted] = solver_ids_.emplace(name, solver_ids_.size() + 1);
  if (inserted) solver_names_.push_back(name);
  return it->second;
}

std::string SolveCache::solver_name_for(std::uint64_t id) const {
  common::MutexLock lock(solver_mutex_);
  if (id == 0 || id > solver_names_.size()) return {};
  return solver_names_[id - 1];
}

CacheKey SolveCache::key_for(const InstanceContext& context,
                             const api::SolveRequest& request) {
  const auto& reliability = request.problem->reliability;
  return key_for(context, request.kind(), request.deadline(),
                 reliability ? reliability->frel() : 0.0, request.options);
}

CacheKey SolveCache::key_for(const InstanceContext& context, api::ProblemKind kind,
                             double effective_deadline, double frel,
                             const api::SolveOptions& opt) {
  CacheKey key;
  key.instance = context.instance;
  key.solver = context.solver;
  key.deadline_bits = double_bits(effective_deadline);
  key.frel_bits = kind == api::ProblemKind::kTriCrit ? double_bits(frel) : 0;
  key.approx_K = opt.approx_K;
  key.gap_tolerance_bits = double_bits(opt.gap_tolerance);
  key.max_nodes = opt.max_nodes;
  key.dp_buckets = opt.dp_buckets;
  key.fork_grid = opt.fork_grid;
  key.polish = opt.polish ? 1 : 0;
  // Hash once here; shard selection and the map lookup both reuse it.
  // start_durations is deliberately absent: it is a performance hint the
  // barrier converges through, not an input a solver could distinguish
  // results by (api/digest.cpp excludes it from fingerprints the same way).
  hash_key(key);
  return key;
}

SolveCache::CachedResult SolveCache::try_get(const CacheKey& key, bool* cache_hit) {
  Shard& shard = shards_[key.hash & mask_];
  common::MutexLock lock(shard.mutex);
  auto it = shard.index.find(key);
  if (it == shard.index.end()) {
    // No miss accounting here: the caller follows up with solve_shared,
    // which records it (and may itself hit if a racer stored meanwhile).
    if (cache_hit != nullptr) *cache_hit = false;
    return nullptr;
  }
  shard.hits.fetch_add(1, std::memory_order_relaxed);
  if (cache_hit != nullptr) *cache_hit = true;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->result;
}

SolveCache::CachedResult SolveCache::insert_locked(Shard& shard, const CacheKey& key,
                                                   std::uint8_t kind,
                                                   CachedResult result, bool persisted,
                                                   std::vector<Spill>& spills) {
  shard.lru.emplace_front(key, std::move(result));
  Entry& entry = shard.lru.front();
  entry.bytes = sizeof(Entry) + store::result_footprint_bytes(*entry.result);
  entry.kind = kind;
  entry.persisted = persisted;
  shard.index.emplace(key, shard.lru.begin());
  shard.bytes += entry.bytes;
  instances_.add_ref(key.instance);
  CachedResult out = entry.result;
  evict_locked(shard, spills);
  return out;
}

void SolveCache::evict_locked(Shard& shard, std::vector<Spill>& spills) {
  store::SolveStore* const store = store_.load(std::memory_order_acquire);
  // The byte cap never evicts a shard's last entry: a single oversized
  // schedule still stays cached (mirrors the >=1-entry floor above).
  // Written as a plain loop condition (not a lambda) so the thread-safety
  // analysis sees the guarded reads inside this REQUIRES(shard.mutex) body.
  while ((shard_capacity_ > 0 && shard.lru.size() > shard_capacity_) ||
         (shard_capacity_bytes_ > 0 && shard.bytes > shard_capacity_bytes_ &&
          shard.lru.size() > 1)) {
    Entry& victim = shard.lru.back();
    if (!victim.persisted && store != nullptr && !store->options().read_only &&
        store->options().spill_on_evict) {
      // Spill instead of drop: the work was paid for, keep it on disk.
      // Only *capture* here — the blob bytes are snapshotted before the
      // release below can reclaim them, and the file write happens in
      // spill_now() after the caller drops the shard lock, so eviction
      // never blocks concurrent lookups on I/O.
      if (auto blob = instances_.find(victim.key.instance)) {
        spills.push_back(Spill{victim.key, victim.kind, victim.result, blob->digest,
                               std::move(blob->bytes)});
      }
    }
    shard.bytes -= victim.bytes;
    instances_.release(victim.key.instance);
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void SolveCache::spill_now(Shard& shard, const std::vector<Spill>& spills) {
  store::SolveStore* const store = store_.load(std::memory_order_acquire);
  if (store == nullptr) return;
  for (const Spill& spill : spills) {
    if (store
            ->put(spill.digest, *spill.bytes, solver_name_for(spill.key.solver),
                  point_key_from(spill.key, spill.kind), spill.result)
            .is_ok()) {
      shard.spills.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

SolveCache::CachedResult SolveCache::solve_shared(const api::SolveRequest& request,
                                                  const CacheKey& key, bool* cache_hit) {
  // The key's single precomputed hash selects the shard and indexes the
  // shard map — a probe never hashes twice.
  Shard& shard = shards_[key.hash & mask_];
  {
    common::MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      if (cache_hit != nullptr) *cache_hit = true;
      // Touch: a hit moves the entry to the front of the LRU order.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->result;
    }
  }
  const auto kind = static_cast<std::uint8_t>(request.kind());
  // One snapshot of the attached store for the whole miss path: a
  // concurrent attach_store must not hand half of this call one store
  // and half another.
  store::SolveStore* const store = store_.load(std::memory_order_acquire);

  // In-memory miss: another process may already have paid for this point.
  // The store speaks (digest, exact bytes); normally both come straight
  // from the interner, but if LRU pressure reclaimed the blob while this
  // context still held its id, recompute them from the request — O(n),
  // on a path that is about to run a solver anyway, and far better than
  // silently losing store lookups and write-through for the rest of the
  // context's life.
  api::InstanceDigest digest;
  std::shared_ptr<const std::string> instance_bytes;
  if (store != nullptr) {
    if (auto blob = instances_.find(key.instance)) {
      digest = blob->digest;
      instance_bytes = std::move(blob->bytes);
    } else {
      auto recomputed =
          std::make_shared<const std::string>(api::instance_bytes(request));
      digest = api::digest_bytes(*recomputed);
      instance_bytes = std::move(recomputed);
    }
    if (CachedResult stored = store->find(digest, *instance_bytes, request.solver,
                                          point_key_from(key, kind))) {
      store_hits_.fetch_add(1, std::memory_order_relaxed);
      if (cache_hit != nullptr) *cache_hit = true;
      std::vector<Spill> spills;
      CachedResult out;
      {
        common::MutexLock lock(shard.mutex);
        auto it = shard.index.find(key);
        if (it != shard.index.end()) {
          out = it->second->result;
        } else {
          out = insert_locked(shard, key, kind, std::move(stored), /*persisted=*/true,
                              spills);
        }
      }
      spill_now(shard, spills);
      return out;
    }
  }

  // Full miss: run the solver with no lock held, then store
  // first-write-wins. With warm starts enabled, seed the barrier from the
  // nearest stored schedule of the same instance — purely a performance
  // hint (the optimum is the same to solver tolerance), which is why it
  // is opt-in: seeded solves may differ from cold ones in low-order bits.
  shard.misses.fetch_add(1, std::memory_order_relaxed);
  if (cache_hit != nullptr) *cache_hit = false;
  CachedResult result;
  if (store != nullptr && store->options().warm_start &&
      request.kind() == api::ProblemKind::kBiCrit &&
      request.options.start_durations.empty()) {
    api::SolveRequest seeded = request;
    if (CachedResult neighbor =
            store->nearest_schedule(digest, *instance_bytes, request.deadline())) {
      if (neighbor->is_ok() &&
          neighbor->value().schedule.num_tasks() == request.dag().num_tasks()) {
        seeded.options.start_durations =
            neighbor->value().schedule.durations(request.dag());
        warm_seeds_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    result = std::make_shared<const common::Result<api::SolveReport>>(api::solve(seeded));
  } else {
    result =
        std::make_shared<const common::Result<api::SolveReport>>(api::solve(request));
  }

  bool persisted = false;
  if (store != nullptr && !store->options().read_only &&
      store->options().write_through) {
    persisted = store
                    ->put(digest, *instance_bytes, request.solver,
                          point_key_from(key, kind), result)
                    .is_ok();
  }

  std::vector<Spill> spills;
  CachedResult out;
  {
    common::MutexLock lock(shard.mutex);
    auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      // A racing miss stored first; return that entry (bit-identical to
      // ours — solvers are deterministic — but first-write-wins keeps the
      // stored report unique).
      out = it->second->result;
    } else {
      out = insert_locked(shard, key, kind, std::move(result), persisted, spills);
    }
  }
  spill_now(shard, spills);
  return out;
}

common::Result<api::SolveReport> SolveCache::solve(const api::SolveRequest& request,
                                                   const CacheKey& key,
                                                   bool* cache_hit) {
  return *solve_shared(request, key, cache_hit);
}

common::Result<api::SolveReport> SolveCache::solve(const api::SolveRequest& request,
                                                   bool* cache_hit) {
  return solve(request, key_for(context_for(request), request), cache_hit);
}

CacheStats SolveCache::stats() const {
  CacheStats s;
  s.store_hits = store_hits_.load(std::memory_order_relaxed);
  s.warm_seeds = warm_seeds_.load(std::memory_order_relaxed);
  s.interned_blobs = instances_.size();
  for (std::size_t i = 0; i <= mask_; ++i) {
    Shard& shard = shards_[i];
    s.hits += shard.hits.load(std::memory_order_relaxed);
    s.misses += shard.misses.load(std::memory_order_relaxed);
    s.evictions += shard.evictions.load(std::memory_order_relaxed);
    s.spills += shard.spills.load(std::memory_order_relaxed);
    common::MutexLock lock(shard.mutex);
    s.entries += shard.index.size();
    s.bytes += shard.bytes;
  }
  return s;
}

std::vector<ShardCacheStats> SolveCache::shard_stats() const {
  std::vector<ShardCacheStats> out(mask_ + 1);
  for (std::size_t i = 0; i <= mask_; ++i) {
    Shard& shard = shards_[i];
    ShardCacheStats& s = out[i];
    s.hits = shard.hits.load(std::memory_order_relaxed);
    s.misses = shard.misses.load(std::memory_order_relaxed);
    s.evictions = shard.evictions.load(std::memory_order_relaxed);
    s.spills = shard.spills.load(std::memory_order_relaxed);
    common::MutexLock lock(shard.mutex);
    s.entries = shard.index.size();
    s.bytes = shard.bytes;
  }
  return out;
}

std::size_t SolveCache::size() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i <= mask_; ++i) {
    common::MutexLock lock(shards_[i].mutex);
    total += shards_[i].index.size();
  }
  return total;
}

void SolveCache::clear() {
  for (std::size_t i = 0; i <= mask_; ++i) {
    Shard& shard = shards_[i];
    {
      common::MutexLock lock(shard.mutex);
      shard.index.clear();
      shard.lru.clear();
      shard.bytes = 0;
    }
    shard.hits.store(0, std::memory_order_relaxed);
    shard.misses.store(0, std::memory_order_relaxed);
    shard.evictions.store(0, std::memory_order_relaxed);
    shard.spills.store(0, std::memory_order_relaxed);
  }
  instances_.clear();
  store_hits_.store(0, std::memory_order_relaxed);
  warm_seeds_.store(0, std::memory_order_relaxed);
}

}  // namespace easched::frontier
