#include "store/log.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <utility>

namespace easched::store {
namespace {

// Header: 8-byte magic + u32 format version + u32 flags, 16 bytes total.
constexpr char kMagic[8] = {'E', 'A', 'S', 'S', 'T', 'O', 'R', 'E'};
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint64_t kHeaderBytes = 16;
// type(1) + payload_len(8) before the payload, crc(4) after it.
constexpr std::uint64_t kFramePrefix = 9;
constexpr std::uint64_t kFrameSuffix = 4;
// Payloads beyond this are treated as corruption, not data: the largest
// legitimate record (an interned instance blob) is linear in the task
// count, nowhere near 1 GiB.
constexpr std::uint64_t kMaxPayload = 1ull << 30;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t load_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::uint64_t load_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

std::string header_bytes() {
  std::string out(kMagic, sizeof(kMagic));
  put_u32(out, kFormatVersion);
  put_u32(out, 0);  // flags, reserved
  return out;
}

common::Status errno_status(const std::string& what, const std::string& path) {
  return common::Status::internal(what + " '" + path + "': " + std::strerror(errno));
}

/// Reads exactly [offset, offset+n) into `out` (resized); short reads past
/// EOF shrink `out` to what was available.
common::Status read_range(int fd, std::uint64_t offset, std::uint64_t n,
                          std::string& out, const std::string& path) {
  out.resize(static_cast<std::size_t>(n));
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, &out[got], static_cast<std::size_t>(n - got),
                              static_cast<off_t>(offset + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      return errno_status("cannot read store log", path);
    }
    if (r == 0) break;  // EOF: the writer appended less than we hoped
    got += static_cast<std::size_t>(r);
  }
  out.resize(got);
  return common::Status::ok();
}

common::Status write_all(int fd, std::uint64_t offset, const std::string& bytes,
                         const std::string& path) {
  std::size_t put = 0;
  while (put < bytes.size()) {
    const ssize_t w = ::pwrite(fd, bytes.data() + put, bytes.size() - put,
                               static_cast<off_t>(offset + put));
    if (w < 0) {
      if (errno == EINTR) continue;
      return errno_status("cannot write store log", path);
    }
    put += static_cast<std::size_t>(w);
  }
  return common::Status::ok();
}

/// Scans the frames inside `buf` (which starts at file offset `base`),
/// invoking `fn` per intact record; returns the buffer offset of the first
/// byte that is not part of an intact record (== buf.size() when clean).
std::size_t scan_frames(const std::string& buf, std::uint64_t base,
                        const RecordLog::RecordFn* fn) {
  std::size_t at = 0;
  std::string payload;
  while (buf.size() - at >= kFramePrefix + kFrameSuffix) {
    const std::uint8_t type = static_cast<std::uint8_t>(buf[at]);
    const std::uint64_t len = load_u64(buf.data() + at + 1);
    if (len > kMaxPayload) break;  // insane length: treat as corruption
    const std::uint64_t frame = kFramePrefix + len + kFrameSuffix;
    if (buf.size() - at < frame) break;  // torn tail: record not fully on disk
    const std::uint32_t want = load_u32(buf.data() + at + kFramePrefix + len);
    const std::uint32_t got = crc32(buf.data() + at, kFramePrefix + len);
    if (want != got) break;  // corrupt record: stop at the last intact one
    if (type != static_cast<std::uint8_t>(RecordType::kBlob) &&
        type != static_cast<std::uint8_t>(RecordType::kEntry)) {
      break;  // unknown type in a v1 log: written by nothing we know
    }
    if (fn != nullptr) {
      payload.assign(buf, at + kFramePrefix, static_cast<std::size_t>(len));
      (*fn)(static_cast<RecordType>(type), payload, base + at);
    }
    at += static_cast<std::size_t>(frame);
  }
  return at;
}

/// Scans the records in [from, to) of the file a window at a time,
/// invoking `fn` (when non-null) per intact record; returns the offset of
/// the first byte not part of an intact record (== to when clean). It
/// holds one window — 1 MiB, or one record when that is larger — never
/// the whole range, so opening a long log costs no memory in its size.
common::Result<std::uint64_t> scan_file(int fd, std::uint64_t from, std::uint64_t to,
                                        const RecordLog::RecordFn* fn,
                                        const std::string& path) {
  constexpr std::uint64_t kWindow = 1 << 20;
  std::string buf;
  std::uint64_t at = from;
  std::uint64_t want = kWindow;
  while (at < to) {
    common::Status read = read_range(fd, at, std::min(want, to - at), buf, path);
    if (!read.is_ok()) return read;
    const std::size_t good = scan_frames(buf, at, fn);
    at += good;
    const std::size_t rest = buf.size() - good;
    if (at + rest >= to) break;  // the range ends inside this record: torn
    // The window ends inside a record: read on from its start, whole.
    want = kWindow;
    if (rest >= kFramePrefix) {
      const std::uint64_t len = load_u64(buf.data() + good + 1);
      const std::uint64_t frame = kFramePrefix + len + kFrameSuffix;
      if (len > kMaxPayload || frame <= rest) break;  // all there, and bad
      want = std::max(kWindow, frame);
    }
  }
  return at;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  // Slicing-by-8: table k maps a byte to its CRC contribution k bytes
  // further on, so eight bytes fold in per step instead of one. Opening
  // a store CRCs the whole log, which made the bytewise loop its cost.
  static const std::array<std::array<std::uint32_t, 256>, 8> tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
    return t;
  }();
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = crc ^ (static_cast<std::uint32_t>(p[0]) |
                                    static_cast<std::uint32_t>(p[1]) << 8 |
                                    static_cast<std::uint32_t>(p[2]) << 16 |
                                    static_cast<std::uint32_t>(p[3]) << 24);
    crc = tables[7][lo & 0xff] ^ tables[6][(lo >> 8) & 0xff] ^
          tables[5][(lo >> 16) & 0xff] ^ tables[4][lo >> 24] ^ tables[3][p[4]] ^
          tables[2][p[5]] ^ tables[1][p[6]] ^ tables[0][p[7]];
  }
  for (; n > 0; --n, ++p) crc = tables[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  return ~crc;
}

common::Result<RecordLog> RecordLog::open(const std::string& path, bool read_only) {
  RecordLog log;
  log.path_ = path;
  log.read_only_ = read_only;
  log.fd_ = read_only ? ::open(path.c_str(), O_RDONLY)
                      : ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (log.fd_ < 0) {
    if (read_only && errno == ENOENT) {
      return common::Status::not_found("store log '" + path + "' does not exist");
    }
    return errno_status("cannot open store log", path);
  }
  if (!read_only && ::flock(log.fd_, LOCK_EX | LOCK_NB) != 0) {
    return common::Status::unsupported(
        "store log '" + path +
        "' is held by another writer (single-writer/multi-reader)");
  }
  common::Status header = log.validate_or_write_header();
  if (!header.is_ok()) return header;

  struct stat st {};
  if (::fstat(log.fd_, &st) != 0) return errno_status("cannot stat store log", path);
  log.end_offset_ = static_cast<std::uint64_t>(st.st_size);
  log.offset_ = kHeaderBytes;

  if (!read_only && log.end_offset_ > kHeaderBytes) {
    // Re-enter the all-records-valid state: find the end of the intact
    // prefix and drop everything after it before appending anything new.
    common::Result<std::uint64_t> scanned =
        scan_file(log.fd_, kHeaderBytes, log.end_offset_, nullptr, path);
    if (!scanned.is_ok()) return scanned.status();
    const std::uint64_t good = scanned.value();
    if (good < log.end_offset_) {
      if (::ftruncate(log.fd_, static_cast<off_t>(good)) != 0) {
        return errno_status("cannot truncate torn store log", path);
      }
      log.truncated_bytes_ = log.end_offset_ - good;
      log.end_offset_ = good;
    }
  }
  return log;
}

common::Status RecordLog::validate_or_write_header() {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) return errno_status("cannot stat store log", path_);
  const auto size = static_cast<std::uint64_t>(st.st_size);
  if (size < kHeaderBytes) {
    // Empty (fresh create) or torn mid-header-write: no record can exist
    // yet, so a writer may safely start the file over.
    if (read_only_) {
      return common::Status::invalid("store log '" + path_ +
                                     "' is shorter than its header");
    }
    if (::ftruncate(fd_, 0) != 0) return errno_status("cannot reset store log", path_);
    return write_all(fd_, 0, header_bytes(), path_);
  }
  std::string have;
  common::Status read = read_range(fd_, 0, kHeaderBytes, have, path_);
  if (!read.is_ok()) return read;
  if (have.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return common::Status::invalid("'" + path_ + "' is not a solve-store log");
  }
  const std::uint32_t version = load_u32(have.data() + sizeof(kMagic));
  if (version != kFormatVersion) {
    return common::Status::unsupported("store log '" + path_ + "' has format version " +
                                       std::to_string(version) + ", expected " +
                                       std::to_string(kFormatVersion));
  }
  return common::Status::ok();
}

RecordLog::RecordLog(RecordLog&& other) noexcept { *this = std::move(other); }

RecordLog& RecordLog::operator=(RecordLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    read_only_ = other.read_only_;
    offset_ = other.offset_;
    end_offset_ = other.end_offset_;
    truncated_bytes_ = other.truncated_bytes_;
  }
  return *this;
}

RecordLog::~RecordLog() {
  if (fd_ >= 0) ::close(fd_);  // also releases the writer flock
}

common::Result<std::uint64_t> RecordLog::append(RecordType type,
                                                const std::string& payload) {
  if (fd_ < 0) return common::Status::internal("append on a moved-from RecordLog");
  if (read_only_) {
    return common::Status::unsupported("store log '" + path_ + "' is open read-only");
  }
  std::string frame;
  frame.reserve(kFramePrefix + payload.size() + kFrameSuffix);
  frame.push_back(static_cast<char>(type));
  put_u64(frame, payload.size());
  frame += payload;
  put_u32(frame, crc32(frame.data(), frame.size()));
  const std::uint64_t at = end_offset_;
  common::Status written = write_all(fd_, at, frame, path_);
  if (!written.is_ok()) return written;
  end_offset_ += frame.size();
  // A writer is its own source of truth for what it appended; skip
  // re-delivering it through poll().
  if (offset_ == at) offset_ = end_offset_;
  return at;
}

common::Result<PollReport> RecordLog::poll(const RecordFn& fn) {
  if (fd_ < 0) return common::Status::internal("poll on a moved-from RecordLog");
  PollReport report;

  // Compaction replaces the file under the path; a reader still holding
  // the old inode would otherwise be frozen in time. Detect and reopen.
  struct stat by_path {};
  struct stat by_fd {};
  if (::stat(path_.c_str(), &by_path) == 0 && ::fstat(fd_, &by_fd) == 0 &&
      (by_path.st_ino != by_fd.st_ino || by_path.st_dev != by_fd.st_dev)) {
    common::Result<RecordLog> reopened = RecordLog::open(path_, read_only_);
    if (!reopened.is_ok()) return reopened.status();
    *this = std::move(reopened).take();
    report.replaced = true;
  }

  struct stat st {};
  if (::fstat(fd_, &st) != 0) return errno_status("cannot stat store log", path_);
  end_offset_ = static_cast<std::uint64_t>(st.st_size);
  if (end_offset_ <= offset_) return report;

  std::size_t delivered_records = 0;
  const RecordFn counting = [&](RecordType type, const std::string& payload,
                                std::uint64_t at) {
    ++delivered_records;
    if (fn) fn(type, payload, at);
  };
  common::Result<std::uint64_t> good =
      scan_file(fd_, offset_, end_offset_, &counting, path_);
  if (!good.is_ok()) return good.status();
  offset_ = good.value();
  report.records = delivered_records;
  report.torn_bytes = end_offset_ - offset_;
  return report;
}

common::Result<std::string> RecordLog::read_at(std::uint64_t offset,
                                               RecordType type) const {
  if (fd_ < 0) return common::Status::internal("read on a moved-from RecordLog");
  const auto bad = [offset] {
    return common::Status::invalid("store record at offset " + std::to_string(offset) +
                                   " fails its read-back check");
  };
  std::string prefix;
  common::Status read = read_range(fd_, offset, kFramePrefix, prefix, path_);
  if (!read.is_ok()) return read;
  if (prefix.size() != kFramePrefix ||
      static_cast<std::uint8_t>(prefix[0]) != static_cast<std::uint8_t>(type)) {
    return bad();
  }
  const std::uint64_t len = load_u64(prefix.data() + 1);
  if (len > kMaxPayload) return bad();
  std::string rest;  // payload + crc
  read = read_range(fd_, offset + kFramePrefix, len + kFrameSuffix, rest, path_);
  if (!read.is_ok()) return read;
  if (rest.size() != len + kFrameSuffix ||
      load_u32(rest.data() + len) !=
          crc32(rest.data(), len, crc32(prefix.data(), kFramePrefix))) {
    return bad();
  }
  rest.resize(static_cast<std::size_t>(len));
  return rest;
}

common::Status RecordLog::sync() {
  if (fd_ < 0) return common::Status::internal("sync on a moved-from RecordLog");
  if (read_only_) return common::Status::ok();
  if (::fsync(fd_) != 0) return errno_status("cannot fsync store log", path_);
  return common::Status::ok();
}

}  // namespace easched::store
