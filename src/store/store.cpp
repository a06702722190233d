#include "store/store.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>
#include <utility>

namespace easched::store {
namespace {

std::uint64_t mix_hash(std::uint64_t h, std::uint64_t v) { return api::mix64(h ^ v); }

double bits_to_double(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

void SolveStore::OffsetIndex::insert(std::uint64_t hash, std::uint64_t offset) {
  // Grow (and shed dropped slots) at 80% occupancy, so every probe meets
  // an empty slot; linear probing from the hash's low bits.
  if ((used_ + 1) * 5 > slots_.size() * 4) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 64 : old.size() * 2, Slot{});
    size_ = used_ = 0;
    for (const Slot& slot : old) {
      if (slot.offset != 0 && slot.offset != kDropped) insert(slot.hash, slot.offset);
    }
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = static_cast<std::size_t>(hash) & mask;
  while (slots_[i].offset != 0) i = (i + 1) & mask;
  slots_[i] = Slot{hash, offset};
  ++size_;
  ++used_;
}

template <class Fn>
bool SolveStore::OffsetIndex::visit(std::uint64_t hash, Fn&& fn) {
  if (slots_.empty()) return false;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = static_cast<std::size_t>(hash) & mask; slots_[i].offset != 0;
       i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.hash != hash || slot.offset == kDropped) continue;
    const bool stop = fn(slot.offset);
    if (slot.offset == kDropped) --size_;
    if (stop) return true;
  }
  return false;
}

std::vector<std::uint64_t> SolveStore::OffsetIndex::offsets() const {
  std::vector<std::uint64_t> out;
  out.reserve(size_);
  for (const Slot& slot : slots_) {
    if (slot.offset != 0 && slot.offset != kDropped) out.push_back(slot.offset);
  }
  return out;
}

void SolveStore::OffsetIndex::clear() {
  slots_.clear();
  slots_.shrink_to_fit();
  size_ = used_ = 0;
}

std::uint64_t SolveStore::entry_hash(std::uint64_t blob_id, const std::string& solver,
                                     const PointKey& point) noexcept {
  std::uint64_t h = 0x51afd6ed558ccd6dULL;
  h = mix_hash(h, blob_id);
  h = mix_hash(h, std::hash<std::string>{}(solver));
  h = mix_hash(h, point.kind);
  h = mix_hash(h, point.deadline_bits);
  h = mix_hash(h, point.frel_bits);
  h = mix_hash(h, static_cast<std::uint64_t>(point.approx_K));
  h = mix_hash(h, point.gap_tolerance_bits);
  h = mix_hash(h, static_cast<std::uint64_t>(point.max_nodes));
  h = mix_hash(h, static_cast<std::uint64_t>(point.dp_buckets));
  h = mix_hash(h, static_cast<std::uint64_t>(point.fork_grid));
  h = mix_hash(h, static_cast<std::uint64_t>(point.polish));
  return h;
}

std::uint64_t SolveStore::digest_hash(const api::InstanceDigest& digest) noexcept {
  return mix_hash(api::mix64(digest.hi), digest.lo);
}

std::uint64_t SolveStore::blob_hash(std::uint64_t blob_id) noexcept {
  return api::mix64(blob_id ^ 0x9e3779b97f4a7c15ULL);
}

common::Result<SolveStore> SolveStore::open(StoreOptions options) {
  common::Result<RecordLog> log = RecordLog::open(options.path, options.read_only);
  if (!log.is_ok()) return log.status();
  SolveStore st(std::move(options), std::move(log).take());
  // Index every intact record by its key. Decode failures are tolerated
  // record by record (a record that passed its CRC but does not decode
  // was written by a future format and is skipped); torn tails were
  // already handled by the log layer. The handle is not published yet,
  // but the load takes the lock anyway: indexing requires it, and an
  // uncontended acquire costs nothing.
  common::Result<PollReport> polled = [&st] {
    common::MutexLock lock(*st.mutex_);
    return st.log_.poll([&st](RecordType type, const std::string& payload,
                              std::uint64_t offset) EASCHED_NO_THREAD_SAFETY_ANALYSIS {
      if (type == RecordType::kBlob) {
        common::Result<BlobHead> blob = decode_blob_head(payload);
        if (blob.is_ok()) st.index_blob(blob.value(), offset);
      } else {
        common::Result<EntryHead> entry = decode_entry_head(payload);
        if (entry.is_ok()) st.index_entry(entry.value(), offset);
      }
    });
  }();
  if (!polled.is_ok()) return polled.status();
  return st;
}

void SolveStore::index_blob(const BlobHead& head, std::uint64_t offset) {
  if (head.id >= next_blob_id_) next_blob_id_ = head.id + 1;
  const std::uint64_t h = digest_hash(head.digest);
  const bool known = blobs_.visit(h, [&](std::uint64_t& at) {
    const std::optional<BlobHead> other =
        read_decoded(RecordType::kBlob, at, &decode_blob_head);
    return other && other->id == head.id;  // the same blob re-recorded
  });
  if (!known) blobs_.insert(h, offset);
}

void SolveStore::index_entry(const EntryHead& head, std::uint64_t offset) {
  std::uint64_t replaced = 0;
  const bool superseded = entries_.visit(
      entry_hash(head.blob_id, head.solver, head.point), [&](std::uint64_t& at) {
        // Same hash: the same key re-recorded, or a collision. Only the
        // record itself can tell.
        const std::optional<EntryHead> other = read_entry_head(at);
        if (!other || other->blob_id != head.blob_id || other->solver != head.solver ||
            !(other->point == head.point)) {
          return false;
        }
        replaced = at;
        at = offset;  // later record wins: the log is a last-write-wins map
        return true;
      });
  if (superseded) {
    ++superseded_;
  } else {
    entries_.insert(entry_hash(head.blob_id, head.solver, head.point), offset);
  }
  if (!options_.warm_start || !head.success ||
      head.point.kind != static_cast<std::uint8_t>(api::ProblemKind::kBiCrit)) {
    return;
  }
  const std::uint64_t h = blob_hash(head.blob_id);
  const bool moved = replaced != 0 && schedules_.visit(h, [&](std::uint64_t& at) {
    if (at != replaced) return false;
    at = offset;
    return true;
  });
  if (!moved) schedules_.insert(h, offset);
}

std::optional<std::string> SolveStore::read(RecordType type, std::uint64_t& slot) {
  common::Result<std::string> payload = log_.read_at(slot, type);
  if (!payload.is_ok()) {
    ++read_corrupt_;
    slot = OffsetIndex::kDropped;
    return std::nullopt;
  }
  return std::move(payload).take();
}

template <class T>
std::optional<T> SolveStore::read_decoded(RecordType type, std::uint64_t& slot,
                                          common::Result<T> (*decode)(const std::string&)) {
  const std::optional<std::string> payload = read(type, slot);
  if (!payload) return std::nullopt;
  common::Result<T> value = decode(*payload);
  if (!value.is_ok()) {
    ++read_corrupt_;
    slot = OffsetIndex::kDropped;
    return std::nullopt;
  }
  return std::move(value).take();
}

std::optional<EntryRecord> SolveStore::read_entry(std::uint64_t& slot) {
  return read_decoded(RecordType::kEntry, slot, &decode_entry);
}

std::optional<EntryHead> SolveStore::read_entry_head(std::uint64_t& slot) {
  return read_decoded(RecordType::kEntry, slot, &decode_entry_head);
}

std::optional<BlobRecord> SolveStore::read_blob(std::uint64_t& slot) {
  return read_decoded(RecordType::kBlob, slot, &decode_blob);
}

std::uint64_t SolveStore::find_blob_id(const api::InstanceDigest& digest,
                                       const std::string& bytes) {
  std::uint64_t id = 0;
  blobs_.visit(digest_hash(digest), [&](std::uint64_t& at) {
    const std::optional<BlobRecord> blob = read_blob(at);
    // Digest narrows, exact bytes decide — collisions can never alias.
    if (!blob || !(blob->digest == digest) || blob->bytes != bytes) return false;
    id = blob->id;
    return true;
  });
  return id;
}

bool SolveStore::has_entry(std::uint64_t blob_id, const std::string& solver,
                           const PointKey& point) {
  return entries_.visit(entry_hash(blob_id, solver, point), [&](std::uint64_t& at) {
    const std::optional<EntryHead> head = read_entry_head(at);
    return head && head->blob_id == blob_id && head->solver == solver &&
           head->point == point;
  });
}

void SolveStore::clear_index() {
  blobs_.clear();
  entries_.clear();
  schedules_.clear();
  next_blob_id_ = 1;
  superseded_ = 0;
}

common::Status SolveStore::put(const api::InstanceDigest& digest,
                               const std::string& instance_bytes,
                               const std::string& solver, const PointKey& point,
                               const StoredResult& result) {
  if (options_.read_only) {
    return common::Status::unsupported("solve-store '" + options_.path +
                                       "' is open read-only");
  }
  common::MutexLock lock(*mutex_);
  std::uint64_t blob_id = find_blob_id(digest, instance_bytes);
  if (blob_id == 0) {
    blob_id = next_blob_id_;
    common::Result<std::uint64_t> at = log_.append(
        RecordType::kBlob, encode_blob(BlobRecord{blob_id, digest, instance_bytes}));
    if (!at.is_ok()) return at.status();
    ++appended_;
    index_blob(BlobHead{blob_id, digest}, at.value());
  }
  if (has_entry(blob_id, solver, point)) return common::Status::ok();  // already persisted
  common::Result<std::uint64_t> at = log_.append(
      RecordType::kEntry, encode_entry(EntryRecord{blob_id, solver, point, result}));
  if (!at.is_ok()) return at.status();
  ++appended_;
  index_entry(EntryHead{blob_id, solver, point, result->is_ok()}, at.value());
  return common::Status::ok();
}

SolveStore::StoredResult SolveStore::find(const api::InstanceDigest& digest,
                                          const std::string& instance_bytes,
                                          const std::string& solver,
                                          const PointKey& point) {
  common::MutexLock lock(*mutex_);
  const std::uint64_t blob_id = find_blob_id(digest, instance_bytes);
  if (blob_id == 0) return nullptr;
  StoredResult result;
  entries_.visit(entry_hash(blob_id, solver, point), [&](std::uint64_t& at) {
    std::optional<EntryRecord> entry = read_entry(at);
    if (!entry || entry->blob_id != blob_id || entry->solver != solver ||
        !(entry->point == point)) {
      return false;
    }
    result = std::move(entry->result);
    return true;
  });
  if (result != nullptr) ++served_;
  return result;
}

SolveStore::StoredResult SolveStore::nearest_schedule(const api::InstanceDigest& digest,
                                                      const std::string& instance_bytes,
                                                      double deadline,
                                                      double* neighbor_deadline) {
  common::MutexLock lock(*mutex_);
  const std::uint64_t blob_id = find_blob_id(digest, instance_bytes);
  if (blob_id == 0) return nullptr;
  // Closest deadline wins; a tie goes to the later deadline, and one
  // deadline recorded twice to the later record.
  std::uint64_t* best = nullptr;  // a slot: no insert happens before its use
  double best_deadline = 0.0;
  schedules_.visit(blob_hash(blob_id), [&](std::uint64_t& at) {
    const std::optional<EntryHead> head = read_entry_head(at);
    if (!head || head->blob_id != blob_id) return false;
    const double d = bits_to_double(head->point.deadline_bits);
    const double dist = std::fabs(d - deadline);
    const double best_dist = std::fabs(best_deadline - deadline);
    if (best == nullptr || dist < best_dist ||
        (dist == best_dist && (d > best_deadline || (d == best_deadline && at > *best)))) {
      best = &at;
      best_deadline = d;
    }
    return false;
  });
  if (best == nullptr) return nullptr;
  std::optional<EntryRecord> entry = read_entry(*best);
  if (!entry) return nullptr;
  if (neighbor_deadline != nullptr) *neighbor_deadline = best_deadline;
  return entry->result;
}

common::Status SolveStore::refresh() {
  common::MutexLock lock(*mutex_);
  if (!options_.read_only) return common::Status::ok();  // writers are current
  // Buffer before indexing: when poll() detects the file was replaced
  // (compaction) it re-delivers the *whole* new log, which must land in
  // a cleared index — and a poll that fails must leave the current index
  // untouched, not half-cleared. Only record keys are kept.
  std::vector<std::pair<BlobHead, std::uint64_t>> blobs;
  std::vector<std::pair<EntryHead, std::uint64_t>> entries;
  std::vector<bool> is_blob;  // record order across the two lists
  common::Result<PollReport> polled =
      log_.poll([&](RecordType type, const std::string& payload, std::uint64_t offset) {
        if (type == RecordType::kBlob) {
          common::Result<BlobHead> blob = decode_blob_head(payload);
          if (!blob.is_ok()) return;
          blobs.emplace_back(blob.value(), offset);
          is_blob.push_back(true);
        } else {
          common::Result<EntryHead> entry = decode_entry_head(payload);
          if (!entry.is_ok()) return;
          entries.emplace_back(std::move(entry).take(), offset);
          is_blob.push_back(false);
        }
      });
  if (!polled.is_ok()) return polled.status();
  // The blob-id space may have been re-packed by the rewrite; rebuild
  // the index from scratch out of the buffered records.
  if (polled.value().replaced) clear_index();
  std::size_t b = 0, e = 0;
  for (const bool blob : is_blob) {
    if (blob) {
      index_blob(blobs[b].first, blobs[b].second);
      ++b;
    } else {
      index_entry(entries[e].first, entries[e].second);
      ++e;
    }
  }
  return common::Status::ok();
}

void SolveStore::for_each(
    const std::function<void(const api::InstanceDigest&, const std::string&,
                             const std::string&, const PointKey&, const StoredResult&)>&
        fn) {
  std::vector<std::uint64_t> entry_offsets;
  std::unordered_map<std::uint64_t, std::uint64_t> blob_at;  // blob id -> offset
  {
    common::MutexLock lock(*mutex_);
    entry_offsets = entries_.offsets();
    for (std::uint64_t at : blobs_.offsets()) {
      const std::optional<BlobHead> head =
          read_decoded(RecordType::kBlob, at, &decode_blob_head);
      if (head) blob_at.emplace(head->id, at);
    }
  }
  std::sort(entry_offsets.begin(), entry_offsets.end());
  // Unlocked around fn on purpose: fn may insert into a SolveCache whose
  // eviction spills back into this store (shard lock -> store lock, never
  // the reverse while a lock is held here).
  std::uint64_t blob_id = 0;
  api::InstanceDigest digest;
  std::shared_ptr<const std::string> bytes;
  for (std::uint64_t at : entry_offsets) {
    std::optional<EntryRecord> entry;
    {
      common::MutexLock lock(*mutex_);
      entry = read_entry(at);
      if (!entry) continue;
      if (entry->blob_id != blob_id) {
        auto blob_offset = blob_at.find(entry->blob_id);
        if (blob_offset == blob_at.end()) continue;  // orphan: never served
        std::optional<BlobRecord> blob = read_blob(blob_offset->second);
        if (!blob) continue;
        blob_id = blob->id;
        digest = blob->digest;
        // Made before the previous run's bytes are released, so
        // consecutive runs never share an address.
        auto next = std::make_shared<const std::string>(std::move(blob->bytes));
        bytes = std::move(next);
      }
    }
    fn(digest, *bytes, entry->solver, entry->point, entry->result);
  }
}

StoreStats SolveStore::stats() const {
  common::MutexLock lock(*mutex_);
  StoreStats s;
  s.blobs = blobs_.size();
  s.entries = entries_.size();
  s.superseded = superseded_;
  s.file_bytes = log_.size_bytes();
  s.torn_bytes = log_.truncated_bytes();
  s.appended = appended_;
  s.served = served_;
  s.read_corrupt = read_corrupt_;
  return s;
}

common::Status SolveStore::sync() {
  common::MutexLock lock(*mutex_);
  return log_.sync();
}

common::Result<StoreStats> SolveStore::stat(const std::string& path) {
  common::Result<RecordLog> log = RecordLog::open(path, /*read_only=*/true);
  if (!log.is_ok()) return log.status();
  StoreStats s;
  common::Result<PollReport> polled =
      log.value().poll([&s](RecordType type, const std::string&, std::uint64_t) {
        if (type == RecordType::kBlob) {
          ++s.blobs;
        } else {
          ++s.entries;
        }
      });
  if (!polled.is_ok()) return polled.status();
  s.file_bytes = log.value().size_bytes();
  s.torn_bytes = polled.value().torn_bytes;
  return s;
}

common::Result<StoreStats> SolveStore::verify(const std::string& path) {
  common::Result<RecordLog> log = RecordLog::open(path, /*read_only=*/true);
  if (!log.is_ok()) return log.status();
  StoreStats s;
  common::Status bad = common::Status::ok();
  std::unordered_map<std::uint64_t, bool> blob_seen;
  // Exact keys seen, by hash: (blob id, solver, point).
  std::unordered_multimap<std::uint64_t, EntryHead> key_seen;
  std::size_t record = 0;
  common::Result<PollReport> polled =
      log.value().poll([&](RecordType type, const std::string& payload, std::uint64_t) {
        ++record;
        if (!bad.is_ok()) return;
        if (type == RecordType::kBlob) {
          common::Result<BlobRecord> blob = decode_blob(payload);
          if (!blob.is_ok()) {
            bad = common::Status::invalid("record " + std::to_string(record) + ": " +
                                          blob.status().message());
            return;
          }
          blob_seen[blob.value().id] = true;
          ++s.blobs;
        } else {
          common::Result<EntryRecord> entry = decode_entry(payload);
          if (!entry.is_ok()) {
            bad = common::Status::invalid("record " + std::to_string(record) + ": " +
                                          entry.status().message());
            return;
          }
          if (!blob_seen.count(entry.value().blob_id)) {
            bad = common::Status::invalid(
                "record " + std::to_string(record) + ": entry references blob " +
                std::to_string(entry.value().blob_id) + " that no prior record defines");
            return;
          }
          // Live-entry semantics, like open(): a re-recorded key counts
          // as superseded, not as a second entry.
          const EntryRecord& e = entry.value();
          const std::uint64_t h = entry_hash(e.blob_id, e.solver, e.point);
          auto [first, last] = key_seen.equal_range(h);
          const bool seen = std::any_of(first, last, [&e](const auto& kv) {
            return kv.second.blob_id == e.blob_id && kv.second.solver == e.solver &&
                   kv.second.point == e.point;
          });
          if (seen) {
            ++s.superseded;
          } else {
            key_seen.emplace(h, EntryHead{e.blob_id, e.solver, e.point, e.result->is_ok()});
            ++s.entries;
          }
        }
      });
  if (!polled.is_ok()) return polled.status();
  if (!bad.is_ok()) return bad;
  s.file_bytes = log.value().size_bytes();
  s.torn_bytes = polled.value().torn_bytes;
  return s;
}

common::Result<CompactionReport> SolveStore::compact(const std::string& path) {
  // Open as the (sole) writer: loads the live state, truncates any torn
  // tail, and holds the flock so no other writer can race the rewrite.
  StoreOptions options;
  options.path = path;
  common::Result<SolveStore> loaded = SolveStore::open(std::move(options));
  if (!loaded.is_ok()) return loaded.status();
  SolveStore& st = loaded.value();
  // Sole owner of a just-opened handle, but the guarded indexes are read
  // below — hold the (uncontended) lock for the rewrite.
  common::MutexLock lock(*st.mutex_);

  CompactionReport report;
  report.bytes_in = st.log_.size_bytes();
  report.blobs_in = st.blobs_.size();
  report.entries_in = st.entries_.size() + st.superseded_;

  const std::string tmp_path = path + ".compact.tmp";
  std::remove(tmp_path.c_str());
  common::Result<RecordLog> tmp = RecordLog::open(tmp_path, /*read_only=*/false);
  if (!tmp.is_ok()) return tmp.status();

  // Each surviving blob record precedes its entries, in blob-id order;
  // blobs no entry references are dropped (orphans), and so are entries
  // whose blob is missing. Records are copied verbatim after their
  // read-back check, so a record that no longer reads back fails the
  // compaction instead of silently vanishing.
  std::map<std::uint64_t, std::uint64_t> blob_at;  // blob id -> offset
  for (std::uint64_t at : st.blobs_.offsets()) {
    common::Result<std::string> payload = st.log_.read_at(at, RecordType::kBlob);
    if (!payload.is_ok()) return payload.status();
    common::Result<BlobHead> head = decode_blob_head(payload.value());
    if (!head.is_ok()) return head.status();
    blob_at.emplace(head.value().id, at);
  }
  std::map<std::uint64_t, std::vector<std::string>> by_blob;  // id -> entry payloads
  std::vector<std::uint64_t> entry_offsets = st.entries_.offsets();
  std::sort(entry_offsets.begin(), entry_offsets.end());
  for (std::uint64_t at : entry_offsets) {
    common::Result<std::string> payload = st.log_.read_at(at, RecordType::kEntry);
    if (!payload.is_ok()) return payload.status();
    common::Result<EntryHead> head = decode_entry_head(payload.value());
    if (!head.is_ok()) return head.status();
    by_blob[head.value().blob_id].push_back(std::move(payload).take());
  }
  for (const auto& [blob_id, entry_payloads] : by_blob) {
    auto blob = blob_at.find(blob_id);
    if (blob == blob_at.end()) continue;
    common::Result<std::string> payload = st.log_.read_at(blob->second, RecordType::kBlob);
    if (!payload.is_ok()) return payload.status();
    common::Result<std::uint64_t> appended =
        tmp.value().append(RecordType::kBlob, payload.value());
    if (!appended.is_ok()) return appended.status();
    ++report.blobs_out;
    for (const std::string& entry : entry_payloads) {
      appended = tmp.value().append(RecordType::kEntry, entry);
      if (!appended.is_ok()) return appended.status();
      ++report.entries_out;
    }
  }
  common::Status synced = tmp.value().sync();
  if (!synced.is_ok()) return synced;
  report.bytes_out = tmp.value().size_bytes();
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return common::Status::internal("cannot rename '" + tmp_path + "' over '" + path +
                                    "'");
  }
  // `st` still flocks the old inode until it goes out of scope; readers
  // notice the inode change on their next refresh and rebuild.
  return report;
}

}  // namespace easched::store
