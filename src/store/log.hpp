#pragma once
// RecordLog — the append-only binary file under the persistent solve-store.
//
// Layout: a 16-byte versioned header (magic, format version, flags)
// followed by self-delimiting records
//
//   [type u8][payload_len u64 LE][payload bytes][crc32 u32 LE]
//
// where the CRC covers type + length + payload. The framing makes the log
// recoverable by construction: a reader scans records until the first one
// that is truncated or fails its CRC and simply stops there, so a torn
// tail (a crash mid-append, or a writer racing a reader) costs at most the
// last record and is never fatal. A writer additionally truncates the file
// back to the last intact record on open, so the log re-enters the
// all-records-valid state before anything new is appended.
//
// Concurrency contract: single writer, many readers, no reader locks.
// Writers take a non-blocking flock(LOCK_EX) on the log fd for their whole
// lifetime — a second writer fails fast at open. Readers do not lock at
// all: they only ever observe a prefix of the writer's appends (appends
// are sequential), and the CRC framing turns a half-written tail into a
// clean end-of-log. poll() picks up records appended since the last scan;
// it also detects the file being replaced under the same path (compaction
// renames a rewritten log into place) via inode change and reports it so
// the owner can rebuild its state from scratch.
//
// Records never move once written (the log is append-only; only an
// offline compaction rewrites it, into a new file), so the offset append()
// returns and poll() reports names a record for the life of the file, and
// read_at() fetches it back — CRC-checked again, so bytes changed on disk
// after the scan read as an error, never as a different record.
//
// Everything here is bytes-in/bytes-out; record payload schemas live in
// store/serialize.hpp.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/status.hpp"

namespace easched::store {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of `n` bytes, chainable via
/// `seed` (pass a previous return value to continue a running checksum).
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

/// Record kinds of the solve-store log (serialize.hpp defines payloads).
enum class RecordType : std::uint8_t {
  kBlob = 1,   ///< interner record: (blob id, digest, instance bytes)
  kEntry = 2,  ///< cache entry: (blob id, solver, point, solve result)
};

/// What poll() reports about the scan it just did.
struct PollReport {
  std::size_t records = 0;      ///< intact records delivered to the callback
  bool replaced = false;        ///< file was swapped under the path (compaction)
  std::uint64_t torn_bytes = 0; ///< trailing bytes ignored as torn/corrupt
};

class RecordLog {
 public:
  /// Opens (creating if absent, unless read-only) the log at `path`.
  /// Writer mode parses nothing by itself but validates the header, takes
  /// the single-writer flock and truncates a torn tail; read-only mode
  /// never locks and never modifies the file. Use poll() to scan records.
  static common::Result<RecordLog> open(const std::string& path, bool read_only);

  RecordLog(RecordLog&& other) noexcept;
  RecordLog& operator=(RecordLog&& other) noexcept;
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;
  ~RecordLog();

  /// Appends one record (writer mode only) and advances the scan offset
  /// past it, so a writer does not re-deliver its own appends on poll().
  /// Returns the file offset the record starts at.
  common::Result<std::uint64_t> append(RecordType type, const std::string& payload);

  /// Called by poll() per intact record with its type, payload and the
  /// file offset it starts at.
  using RecordFn = std::function<void(RecordType, const std::string&, std::uint64_t)>;

  /// Scans records between the last scanned offset and the current end of
  /// file, invoking `fn` for each intact record in order. Stops silently
  /// at the first torn or corrupt record (the offset stays before it, so
  /// a record completed by the writer later is delivered by a later
  /// poll). When the file was atomically replaced (compaction), reopens
  /// it, resets the offset past the header and sets `replaced` — the
  /// caller must clear derived state and re-consume everything.
  common::Result<PollReport> poll(const RecordFn& fn);

  /// The payload of the `type` record at `offset` (as append/poll
  /// reported it). kInvalidArgument when the bytes there are not such a
  /// record any more: torn, another type, an insane length or a CRC
  /// mismatch.
  common::Result<std::string> read_at(std::uint64_t offset, RecordType type) const;

  const std::string& path() const noexcept { return path_; }
  bool read_only() const noexcept { return read_only_; }
  /// Bytes dropped by the writer's open-time tail truncation.
  std::uint64_t truncated_bytes() const noexcept { return truncated_bytes_; }
  /// Current on-disk size as of the last append/poll.
  std::uint64_t size_bytes() const noexcept { return end_offset_; }

  /// Flushes appended records to stable storage (fsync).
  common::Status sync();

 private:
  RecordLog() = default;

  common::Status validate_or_write_header();

  std::string path_;
  int fd_ = -1;
  bool read_only_ = true;
  std::uint64_t offset_ = 0;      ///< next byte poll() will look at
  std::uint64_t end_offset_ = 0;  ///< file size as last observed
  std::uint64_t truncated_bytes_ = 0;
};

}  // namespace easched::store
