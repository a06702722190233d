// Persistent solve-store acceptance: write -> reopen serves bit-identical
// schedules with zero solver calls, a torn or corrupt tail costs at most
// the records it touched, compaction preserves every live entry, a reader
// and a writer share one log, and the cache-side policies (byte cap, blob
// refcounting, spill-on-evict, warm starts) behave as documented.

#include "store/store.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <thread>

#include "core/problem.hpp"
#include "frontier/cache.hpp"
#include "frontier/frontier.hpp"
#include "sched/list_scheduler.hpp"
#include "store/log.hpp"
#include "store/serialize.hpp"

namespace easched::store {
namespace {

std::string temp_log_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "easched_store_" + name + ".log";
  std::remove(path.c_str());
  return path;
}

graph::Dag diamond_dag() {
  graph::Dag dag;
  const auto a = dag.add_task(2.0, "a");
  const auto b = dag.add_task(3.0, "b");
  const auto c = dag.add_task(5.0, "c");
  const auto d = dag.add_task(1.5, "d");
  dag.add_edge(a, b);
  dag.add_edge(a, c);
  dag.add_edge(b, d);
  dag.add_edge(c, d);
  return dag;
}

core::Problem diamond_problem(double deadline, double base_weight = 2.0) {
  auto dag = diamond_dag();
  dag.set_weight(0, base_weight);
  const auto mapping =
      sched::list_schedule(dag, 2, sched::PriorityPolicy::kCriticalPath);
  return core::Problem(std::move(dag), mapping,
                       model::SpeedModel::continuous(0.2, 1.0), deadline);
}

SolveStore open_or_die(StoreOptions options) {
  auto opened = SolveStore::open(std::move(options));
  EXPECT_TRUE(opened.is_ok()) << opened.status().to_string();
  return std::move(opened).take();
}

StoreOptions options_for(const std::string& path) {
  StoreOptions opt;
  opt.path = path;
  return opt;
}

/// A synthetic successful result at `deadline` (identifiable by energy).
SolveStore::StoredResult fake_result(double energy, int tasks = 3) {
  api::SolveReport report;
  report.energy = energy;
  report.makespan = energy / 2.0;
  report.solver = "fake";
  report.exact = true;
  report.schedule = sched::Schedule(tasks);
  for (int t = 0; t < tasks; ++t) {
    report.schedule.at(t) = sched::TaskDecision::single(0.25 + 0.1 * t);
  }
  return std::make_shared<const common::Result<api::SolveReport>>(std::move(report));
}

PointKey bicrit_point(double deadline) {
  PointKey point;
  point.kind = static_cast<std::uint8_t>(api::ProblemKind::kBiCrit);
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(deadline), "");
  std::memcpy(&bits, &deadline, sizeof(bits));
  point.deadline_bits = bits;
  // The remaining knobs take SolveOptions defaults in these tests.
  api::SolveOptions defaults;
  point.approx_K = defaults.approx_K;
  point.dp_buckets = defaults.dp_buckets;
  point.fork_grid = defaults.fork_grid;
  point.polish = defaults.polish ? 1 : 0;
  return point;
}

bool identical_curves(const frontier::FrontierResult& a,
                      const frontier::FrontierResult& b) {
  if (a.points.size() != b.points.size()) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i) {
    if (a.points[i].constraint != b.points[i].constraint ||
        a.points[i].energy != b.points[i].energy ||
        a.points[i].makespan != b.points[i].makespan ||
        a.points[i].solver != b.points[i].solver) {
      return false;
    }
  }
  return true;
}

TEST(RecordLog, AppendPollRoundTrip) {
  const std::string path = temp_log_path("roundtrip");
  auto writer = RecordLog::open(path, /*read_only=*/false);
  ASSERT_TRUE(writer.is_ok()) << writer.status().to_string();
  ASSERT_TRUE(writer.value().append(RecordType::kBlob, "alpha").is_ok());
  ASSERT_TRUE(writer.value().append(RecordType::kEntry, "beta").is_ok());

  auto reader = RecordLog::open(path, /*read_only=*/true);
  ASSERT_TRUE(reader.is_ok()) << reader.status().to_string();
  std::vector<std::pair<RecordType, std::string>> seen;
  auto polled = reader.value().poll(
      [&](RecordType type, const std::string& payload, std::uint64_t) {
        seen.emplace_back(type, payload);
      });
  ASSERT_TRUE(polled.is_ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, RecordType::kBlob);
  EXPECT_EQ(seen[0].second, "alpha");
  EXPECT_EQ(seen[1].first, RecordType::kEntry);
  EXPECT_EQ(seen[1].second, "beta");
  EXPECT_EQ(polled.value().torn_bytes, 0u);
}

TEST(RecordLog, SecondWriterIsRejected) {
  const std::string path = temp_log_path("second_writer");
  auto first = RecordLog::open(path, false);
  ASSERT_TRUE(first.is_ok());
  auto second = RecordLog::open(path, false);
  ASSERT_FALSE(second.is_ok());
  EXPECT_EQ(second.status().code(), common::StatusCode::kUnsupported);
  // Readers are never locked out.
  auto reader = RecordLog::open(path, true);
  EXPECT_TRUE(reader.is_ok());
}

TEST(RecordLog, RejectsForeignFiles) {
  const std::string path = temp_log_path("foreign");
  std::ofstream(path) << "definitely not a solve-store log, but long enough";
  auto opened = RecordLog::open(path, true);
  ASSERT_FALSE(opened.is_ok());
  EXPECT_EQ(opened.status().code(), common::StatusCode::kInvalidArgument);
}

TEST(SerializeRoundTrip, EntryWithFailureStatus) {
  EntryRecord entry;
  entry.blob_id = 7;
  entry.solver = "continuous-ipm";
  entry.point = bicrit_point(12.0);
  entry.result = std::make_shared<const common::Result<api::SolveReport>>(
      common::Status::infeasible("even all-fmax misses the deadline"));
  auto decoded = decode_entry(encode_entry(entry));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().blob_id, 7u);
  EXPECT_EQ(decoded.value().solver, "continuous-ipm");
  EXPECT_TRUE(decoded.value().point == entry.point);
  ASSERT_FALSE(decoded.value().result->is_ok());
  EXPECT_EQ(decoded.value().result->status().code(), common::StatusCode::kInfeasible);
  EXPECT_EQ(decoded.value().result->status().message(),
            "even all-fmax misses the deadline");
}

TEST(SerializeRoundTrip, ScheduleBitsSurvive) {
  auto original = fake_result(3.25, 5);
  EntryRecord entry{1, "", bicrit_point(10.0), original};
  auto decoded = decode_entry(encode_entry(entry));
  ASSERT_TRUE(decoded.is_ok());
  const auto& report = decoded.value().result->value();
  EXPECT_EQ(report.energy, original->value().energy);
  ASSERT_EQ(report.schedule.num_tasks(), 5);
  for (int t = 0; t < 5; ++t) {
    ASSERT_EQ(report.schedule.at(t).executions.size(),
              original->value().schedule.at(t).executions.size());
    EXPECT_EQ(report.schedule.at(t).executions[0].speed,
              original->value().schedule.at(t).executions[0].speed);
  }
}

TEST(SolveStore, PutFindAcrossReopen) {
  const std::string path = temp_log_path("put_find");
  const api::InstanceDigest digest{42, 43};
  const std::string bytes = "instance-bytes";
  {
    auto st = open_or_die(options_for(path));
    ASSERT_TRUE(st.put(digest, bytes, "", bicrit_point(10.0), fake_result(1.5)).is_ok());
    ASSERT_TRUE(st.put(digest, bytes, "", bicrit_point(20.0), fake_result(0.5)).is_ok());
    // Re-putting an existing key is a no-op, not a duplicate record.
    ASSERT_TRUE(st.put(digest, bytes, "", bicrit_point(10.0), fake_result(9.9)).is_ok());
    EXPECT_EQ(st.stats().entries, 2u);
    EXPECT_EQ(st.stats().blobs, 1u);
  }
  auto st = open_or_die(options_for(path));
  EXPECT_EQ(st.stats().entries, 2u);
  auto hit = st.find(digest, bytes, "", bicrit_point(10.0));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value().energy, 1.5);  // first write won, as documented
  EXPECT_EQ(st.find(digest, bytes, "", bicrit_point(30.0)), nullptr);
  // Same digest, different bytes: exact identity, never aliased.
  EXPECT_EQ(st.find(digest, "other-bytes", "", bicrit_point(10.0)), nullptr);
}

TEST(SolveStore, NearestSchedulePicksClosestDeadline) {
  const std::string path = temp_log_path("nearest");
  StoreOptions opt = options_for(path);
  opt.warm_start = true;  // the only stores that index neighbours
  auto st = open_or_die(std::move(opt));
  const api::InstanceDigest digest{1, 2};
  ASSERT_TRUE(st.put(digest, "i", "", bicrit_point(10.0), fake_result(10.0)).is_ok());
  ASSERT_TRUE(st.put(digest, "i", "", bicrit_point(20.0), fake_result(20.0)).is_ok());
  double neighbor = 0.0;
  auto near = st.nearest_schedule(digest, "i", 13.0, &neighbor);
  ASSERT_NE(near, nullptr);
  EXPECT_EQ(neighbor, 10.0);
  near = st.nearest_schedule(digest, "i", 17.0, &neighbor);
  ASSERT_NE(near, nullptr);
  EXPECT_EQ(neighbor, 20.0);
  EXPECT_EQ(st.nearest_schedule(digest, "other", 15.0), nullptr);
}

// The ISSUE acceptance bar: a restarted process with a store replays a
// previously swept frontier bit-identically with zero solver calls.
TEST(SolveStoreIntegration, RestartReplaysSweepBitIdenticalWithZeroSolves) {
  const std::string path = temp_log_path("restart_replay");
  const auto problem = diamond_problem(30.0);
  common::WorkerPool pool(2);
  frontier::FrontierResult cold;
  {
    auto st = open_or_die(options_for(path));
    frontier::SolveCache cache;
    ASSERT_TRUE(cache.attach_store(&st).is_ok());
    frontier::FrontierEngine engine(pool, &cache);
    cold = engine.deadline_sweep(problem, 8.0, 30.0, {});
    ASSERT_TRUE(cold.error.is_ok()) << cold.error.to_string();
    EXPECT_GT(cache.stats().misses, 0u);
  }
  // "Restart": fresh cache, reopened store, same traffic.
  auto st = open_or_die(options_for(path));
  frontier::SolveCache cache;
  ASSERT_TRUE(cache.attach_store(&st).is_ok());
  frontier::FrontierEngine engine(pool, &cache);
  const auto warm = engine.deadline_sweep(problem, 8.0, 30.0, {});
  ASSERT_TRUE(warm.error.is_ok());
  EXPECT_EQ(cache.stats().misses, 0u);  // zero solver calls after restart
  EXPECT_TRUE(identical_curves(cold, warm));
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(SolveStoreIntegration, StoreHitsServeWithoutLoadOnOpen) {
  const std::string path = temp_log_path("store_hit");
  const auto problem = diamond_problem(20.0);
  const api::SolveRequest request(problem);
  {
    auto st = open_or_die(options_for(path));
    frontier::SolveCache cache;
    ASSERT_TRUE(cache.attach_store(&st).is_ok());
    ASSERT_TRUE(cache.solve(request).is_ok());
    EXPECT_EQ(cache.stats().misses, 1u);
  }
  frontier::SolveCache cache;
  StoreOptions opt = options_for(path);
  opt.load_on_open = false;  // lazy: entries come in on demand
  auto st = open_or_die(std::move(opt));
  ASSERT_TRUE(cache.attach_store(&st).is_ok());
  EXPECT_EQ(cache.size(), 0u);
  bool cache_hit = false;
  ASSERT_TRUE(cache.solve(request, &cache_hit).is_ok());
  EXPECT_TRUE(cache_hit);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(cache.size(), 1u);  // promoted into the shard
}

TEST(SolveStoreIntegration, TornTailDropsOnlyTheTornRecord) {
  const std::string path = temp_log_path("torn_tail");
  const api::InstanceDigest digest{5, 6};
  {
    auto st = open_or_die(options_for(path));
    for (int i = 1; i <= 8; ++i) {
      ASSERT_TRUE(st.put(digest, "inst", "", bicrit_point(10.0 * i),
                         fake_result(static_cast<double>(i)))
                      .is_ok());
    }
  }
  // A crash mid-append leaves half a record behind.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x02half-a-record-without-framing", 30);
  }
  auto stat = SolveStore::stat(path);
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().entries, 8u);
  EXPECT_GT(stat.value().torn_bytes, 0u);

  // A writer reopening the log truncates the torn tail for good.
  auto st = open_or_die(options_for(path));
  EXPECT_EQ(st.stats().entries, 8u);
  EXPECT_EQ(st.stats().torn_bytes, 30u);
  ASSERT_NE(st.find(digest, "inst", "", bicrit_point(80.0)), nullptr);
  auto restat = SolveStore::stat(path);
  ASSERT_TRUE(restat.is_ok());
  EXPECT_EQ(restat.value().torn_bytes, 0u);  // tail gone from disk
  EXPECT_EQ(restat.value().entries, 8u);
}

TEST(SolveStoreIntegration, CorruptMidFileKeepsIntactPrefix) {
  const std::string path = temp_log_path("corrupt_mid");
  const api::InstanceDigest digest{7, 8};
  std::uint64_t file_size = 0;
  {
    auto st = open_or_die(options_for(path));
    ASSERT_TRUE(st.put(digest, "inst", "", bicrit_point(10.0), fake_result(1.0)).is_ok());
    file_size = st.stats().file_bytes;
    ASSERT_TRUE(st.put(digest, "inst", "", bicrit_point(20.0), fake_result(2.0)).is_ok());
  }
  {
    // Flip one byte inside the *second* entry record.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(file_size) + 20);
    f.put('\xff');
  }
  auto st = open_or_die(options_for(path));
  EXPECT_EQ(st.stats().entries, 1u);  // prefix intact, corrupt record dropped
  EXPECT_NE(st.find(digest, "inst", "", bicrit_point(10.0)), nullptr);
  EXPECT_EQ(st.find(digest, "inst", "", bicrit_point(20.0)), nullptr);
}

/// The encoded bytes of a result: equal bytes mean bit-identical answers.
std::string result_bytes(const SolveStore::StoredResult& result) {
  return encode_entry(EntryRecord{1, "", PointKey{}, result});
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(RecordLog, Crc32MatchesTheStandardCheckValue) {
  // CRC-32/IEEE of "123456789"; the log format depends on these exact bits.
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
  // Chaining two halves equals one pass, across the 8-byte stride.
  const std::string text = "the quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(text.data() + 13, text.size() - 13, crc32(text.data(), 13)),
            crc32(text.data(), text.size()));
}

// A crash can stop an append at any byte. Cut a copy of the log at every
// offset of its last blob+entry append: a reader keeps exactly the intact
// prefix and reads every survivor back bit-identically; a writer cuts the
// tail off and appends after it.
TEST(SolveStoreIntegration, TornAppendAtEveryOffsetKeepsTheIntactPrefix) {
  const std::string path = temp_log_path("torn_every_offset");
  const std::string cut_path = temp_log_path("torn_every_offset_cut");
  struct Stored {
    api::InstanceDigest digest;
    std::string bytes;
    PointKey point;
    SolveStore::StoredResult result;
  };
  std::vector<Stored> stored;
  for (int i = 0; i < 4; ++i) {
    stored.push_back(Stored{{100u + static_cast<std::uint64_t>(i), 7},
                            "instance-" + std::to_string(i) + std::string(120, 'x'),
                            bicrit_point(10.0 + i), fake_result(1.0 + i, 6)});
  }
  std::uint64_t before_last = 0;
  std::uint64_t blob_end = 0;
  {
    auto st = open_or_die(options_for(path));
    for (const Stored& s : stored) {
      before_last = st.stats().file_bytes;
      ASSERT_TRUE(st.put(s.digest, s.bytes, "", s.point, s.result).is_ok());
    }
    blob_end = before_last + 9 +
               encode_blob(BlobRecord{4, stored.back().digest, stored.back().bytes}).size() +
               4;
  }
  const std::string full = read_file(path);
  ASSERT_GE(full.size() - before_last, 200u);
  for (std::uint64_t cut = before_last; cut < full.size(); ++cut) {
    write_file(cut_path, full.substr(0, static_cast<std::size_t>(cut)));
    {
      StoreOptions reader_opt = options_for(cut_path);
      reader_opt.read_only = true;
      auto reader = open_or_die(std::move(reader_opt));
      EXPECT_EQ(reader.stats().entries, stored.size() - 1) << "cut " << cut;
      EXPECT_EQ(reader.stats().blobs, stored.size() - (cut < blob_end ? 1 : 0))
          << "cut " << cut;
      for (std::size_t i = 0; i + 1 < stored.size(); ++i) {
        const Stored& s = stored[i];
        auto hit = reader.find(s.digest, s.bytes, "", s.point);
        ASSERT_NE(hit, nullptr) << "cut " << cut << " entry " << i;
        EXPECT_EQ(result_bytes(hit), result_bytes(s.result)) << "cut " << cut;
      }
      const Stored& lost = stored.back();
      EXPECT_EQ(reader.find(lost.digest, lost.bytes, "", lost.point), nullptr);
      EXPECT_EQ(reader.stats().read_corrupt, 0u);
    }
    {
      auto writer = open_or_die(options_for(cut_path));
      const std::uint64_t intact = cut < blob_end ? before_last : blob_end;
      EXPECT_EQ(writer.stats().torn_bytes, cut - intact) << "cut " << cut;
      EXPECT_EQ(writer.stats().file_bytes, intact) << "cut " << cut;
      const Stored& lost = stored.back();
      ASSERT_TRUE(writer.put(lost.digest, lost.bytes, "", lost.point, lost.result).is_ok());
    }
    auto reopened = open_or_die(options_for(cut_path));
    const Stored& lost = stored.back();
    auto hit = reopened.find(lost.digest, lost.bytes, "", lost.point);
    ASSERT_NE(hit, nullptr) << "cut " << cut;
    EXPECT_EQ(result_bytes(hit), result_bytes(lost.result));
    EXPECT_EQ(reopened.stats().entries, stored.size());
  }
  std::remove(cut_path.c_str());
}

// Open scans the log a window (1 MiB) at a time: records straddling a
// window edge, and one larger than a window, must come back whole, and a
// torn tail must still be cut at the right byte.
TEST(SolveStoreIntegration, LogsLongerThanTheScanWindowReopenWhole) {
  const std::string path = temp_log_path("long_log");
  const api::InstanceDigest big{41, 42};
  const std::string big_bytes(3 << 19, 'b');  // 1.5 MiB: one record > a window
  const api::InstanceDigest small{43, 44};
  constexpr int kEntries = 6000;  // ~1.5 MiB of entries across window edges
  {
    auto st = open_or_die(options_for(path));
    ASSERT_TRUE(st.put(big, big_bytes, "", bicrit_point(1.0), fake_result(1.0)).is_ok());
    for (int i = 0; i < kEntries; ++i) {
      ASSERT_TRUE(st.put(small, "small", "", bicrit_point(10.0 + i),
                         fake_result(10.0 + i, 6))
                      .is_ok());
    }
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x02torn", 5);
  }
  StoreOptions reader_opt = options_for(path);
  reader_opt.read_only = true;
  {
    auto reader = open_or_die(std::move(reader_opt));
    EXPECT_EQ(reader.stats().entries, static_cast<std::size_t>(kEntries) + 1);
    EXPECT_EQ(reader.stats().blobs, 2u);
    ASSERT_NE(reader.find(big, big_bytes, "", bicrit_point(1.0)), nullptr);
    for (int i : {0, 1777, 4321, kEntries - 1}) {
      auto hit = reader.find(small, "small", "", bicrit_point(10.0 + i));
      ASSERT_NE(hit, nullptr) << i;
      EXPECT_EQ(result_bytes(hit), result_bytes(fake_result(10.0 + i, 6)));
    }
  }
  auto stat = SolveStore::stat(path);
  ASSERT_TRUE(stat.is_ok());
  EXPECT_EQ(stat.value().torn_bytes, 5u);
  auto writer = open_or_die(options_for(path));
  EXPECT_EQ(writer.stats().torn_bytes, 5u);
  EXPECT_EQ(writer.stats().entries, static_cast<std::size_t>(kEntries) + 1);
}

// Bytes that change on disk after open must never become an answer: the
// read-back check turns them into a counted miss.
TEST(SolveStoreIntegration, ReadBackCorruptionIsACountedMiss) {
  const std::string path = temp_log_path("read_back_corrupt");
  const api::InstanceDigest digest{31, 32};
  std::uint64_t end = 0;
  {
    auto st = open_or_die(options_for(path));
    ASSERT_TRUE(st.put(digest, "inst", "", bicrit_point(10.0), fake_result(1.0)).is_ok());
    ASSERT_TRUE(st.put(digest, "inst", "", bicrit_point(20.0), fake_result(2.0)).is_ok());
    end = st.stats().file_bytes;
  }
  auto st = open_or_die(options_for(path));
  {
    // Flip one byte of a schedule speed in the second (last) entry: the
    // payload still decodes, so only its CRC can tell.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(end) - 14);
    f.put('\x5a');
  }
  EXPECT_EQ(st.find(digest, "inst", "", bicrit_point(20.0)), nullptr);
  EXPECT_EQ(st.stats().read_corrupt, 1u);
  // Dropped from the index: asking again reads nothing and counts nothing.
  EXPECT_EQ(st.find(digest, "inst", "", bicrit_point(20.0)), nullptr);
  EXPECT_EQ(st.stats().read_corrupt, 1u);
  ASSERT_NE(st.find(digest, "inst", "", bicrit_point(10.0)), nullptr);
  EXPECT_EQ(st.stats().served, 1u);
  // The key can be stored again, and is then found.
  ASSERT_TRUE(st.put(digest, "inst", "", bicrit_point(20.0), fake_result(2.0)).is_ok());
  auto again = st.find(digest, "inst", "", bicrit_point(20.0));
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(result_bytes(again), result_bytes(fake_result(2.0)));
  EXPECT_EQ(st.stats().read_corrupt, 1u);
}

TEST(SolveStore, NearestScheduleNeedsAWarmStartStore) {
  const std::string path = temp_log_path("nearest_cold");
  auto st = open_or_die(options_for(path));
  const api::InstanceDigest digest{1, 2};
  ASSERT_TRUE(st.put(digest, "i", "", bicrit_point(10.0), fake_result(10.0)).is_ok());
  EXPECT_EQ(st.nearest_schedule(digest, "i", 10.0), nullptr);
}

TEST(SolveStoreIntegration, CompactionDropsOrphansAndSuperseded) {
  const std::string path = temp_log_path("compaction");
  const api::InstanceDigest live{11, 12};
  {
    auto st = open_or_die(options_for(path));
    ASSERT_TRUE(st.put(live, "live", "", bicrit_point(10.0), fake_result(1.0)).is_ok());
    ASSERT_TRUE(st.put(live, "live", "", bicrit_point(20.0), fake_result(2.0)).is_ok());
  }
  {
    // Hand-append an orphan blob (no entries) and a superseding duplicate
    // of the first entry, as an interrupted compaction or an older writer
    // could have left behind.
    auto log = RecordLog::open(path, false);
    ASSERT_TRUE(log.is_ok());
    ASSERT_TRUE(log.value()
                    .append(RecordType::kBlob,
                            encode_blob(BlobRecord{99, {77, 78}, "orphan-bytes"}))
                    .is_ok());
    EntryRecord duplicate{1, "", bicrit_point(10.0), fake_result(1.0)};
    ASSERT_TRUE(
        log.value().append(RecordType::kEntry, encode_entry(duplicate)).is_ok());
  }
  auto before = SolveStore::stat(path);
  ASSERT_TRUE(before.is_ok());
  EXPECT_EQ(before.value().blobs, 2u);
  EXPECT_EQ(before.value().entries, 3u);

  auto report = SolveStore::compact(path);
  ASSERT_TRUE(report.is_ok()) << report.status().to_string();
  EXPECT_EQ(report.value().blobs_out, 1u);    // orphan dropped
  EXPECT_EQ(report.value().entries_out, 2u);  // duplicate folded
  EXPECT_LT(report.value().bytes_out, report.value().bytes_in);

  auto verified = SolveStore::verify(path);
  ASSERT_TRUE(verified.is_ok()) << verified.status().to_string();
  auto st = open_or_die(options_for(path));
  EXPECT_EQ(st.stats().entries, 2u);
  EXPECT_NE(st.find(live, "live", "", bicrit_point(10.0)), nullptr);
  EXPECT_NE(st.find(live, "live", "", bicrit_point(20.0)), nullptr);
}

TEST(SolveStoreIntegration, ConcurrentReaderSeesWriterAppends) {
  const std::string path = temp_log_path("reader_writer");
  const api::InstanceDigest digest{21, 22};
  auto writer = open_or_die(options_for(path));
  StoreOptions reader_opt = options_for(path);
  reader_opt.read_only = true;
  auto reader = open_or_die(std::move(reader_opt));

  constexpr int kEntries = 40;
  std::thread producer([&] {
    for (int i = 1; i <= kEntries; ++i) {
      ASSERT_TRUE(writer
                      .put(digest, "inst", "", bicrit_point(static_cast<double>(i)),
                           fake_result(static_cast<double>(i)))
                      .is_ok());
    }
  });
  // The reader polls concurrently; torn frames are invisible by design
  // (CRC framing), so every refresh observes a clean prefix.
  std::size_t seen = 0;
  while (seen < kEntries) {
    ASSERT_TRUE(reader.refresh().is_ok());
    const std::size_t now = reader.stats().entries;
    ASSERT_GE(now, seen);  // prefixes only grow
    seen = now;
  }
  producer.join();
  ASSERT_TRUE(reader.refresh().is_ok());
  EXPECT_EQ(reader.stats().entries, static_cast<std::size_t>(kEntries));
  EXPECT_NE(reader.find(digest, "inst", "", bicrit_point(17.0)), nullptr);
  // And the reader must not be able to write.
  EXPECT_FALSE(
      reader.put(digest, "inst", "", bicrit_point(99.0), fake_result(9.0)).is_ok());
}

TEST(CachePolicies, ByteCapEvictsAndBlobsAreReclaimed) {
  // One shard, byte cap ~ two entries: inserting three instances must
  // evict, and the evicted instances' interned blobs must be reclaimed.
  frontier::SolveCache cache(1, 0, 2 * 700);
  for (int i = 0; i < 3; ++i) {
    const auto problem = diamond_problem(20.0, 2.0 + i);  // distinct instances
    ASSERT_TRUE(cache.solve(api::SolveRequest(problem)).is_ok());
  }
  const auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(stats.entries, 3u);
  EXPECT_EQ(stats.interned_blobs, stats.entries);  // one entry per instance here
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_LE(stats.bytes, 2u * 700u);
}

TEST(CachePolicies, EntryCapReleasesBlobReferences) {
  frontier::SolveCache cache(1, 2);  // two entries max, one shard
  const auto a = diamond_problem(20.0, 2.0);
  const auto b = diamond_problem(20.0, 2.5);
  ASSERT_TRUE(cache.solve(api::SolveRequest(a)).is_ok());
  EXPECT_EQ(cache.stats().interned_blobs, 1u);
  // Two more entries for b evict a's only entry -> a's blob is reclaimed.
  api::SolveOptions relaxed;
  relaxed.deadline_slack = 1.5;
  ASSERT_TRUE(cache.solve(api::SolveRequest(b)).is_ok());
  ASSERT_TRUE(cache.solve(api::SolveRequest(b, "", relaxed)).is_ok());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.interned_blobs, 1u);  // only b remains interned
}

TEST(CachePolicies, SpillOnEvictPersistsUnwrittenEntries) {
  const std::string path = temp_log_path("spill");
  const auto problem = diamond_problem(20.0);
  {
    frontier::SolveCache cache(1, 1);  // every second insert evicts
    StoreOptions opt = options_for(path);
    opt.write_through = false;  // spill is the only persistence path
    auto st = open_or_die(std::move(opt));
    ASSERT_TRUE(cache.attach_store(&st).is_ok());
    api::SolveOptions relaxed;
    relaxed.deadline_slack = 1.5;
    ASSERT_TRUE(cache.solve(api::SolveRequest(problem)).is_ok());
    ASSERT_TRUE(cache.solve(api::SolveRequest(problem, "", relaxed)).is_ok());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.spills, 1u);
    EXPECT_EQ(st.stats().entries, 1u);  // the victim, not the resident
  }
  // The spilled entry is served on the next "restart".
  auto st = open_or_die(options_for(path));
  frontier::SolveCache cache;
  ASSERT_TRUE(cache.attach_store(&st).is_ok());
  bool cache_hit = false;
  ASSERT_TRUE(cache.solve(api::SolveRequest(problem), &cache_hit).is_ok());
  EXPECT_TRUE(cache_hit);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(CachePolicies, PersistenceSurvivesBlobReclamation) {
  // A context can outlive its interned blob: LRU pressure reclaims the
  // bytes once the instance's last entry is evicted. Later misses through
  // the stale context id must still reach the store (recomputing the
  // canonical bytes from the request), or persistence would silently
  // degrade for the rest of the sweep.
  const std::string path = temp_log_path("reclaimed_blob");
  const auto a = diamond_problem(20.0, 2.0);
  const auto b = diamond_problem(20.0, 2.5);
  auto st = open_or_die(options_for(path));
  frontier::SolveCache cache(1, 1);  // single entry: every insert evicts
  ASSERT_TRUE(cache.attach_store(&st).is_ok());

  const api::SolveRequest req_a(a);
  const auto ctx_a = cache.context_for(req_a);
  ASSERT_NE(cache.solve_shared(req_a, frontier::SolveCache::key_for(ctx_a, req_a)),
            nullptr);
  // b's solve evicts a's only entry -> a's blob is reclaimed.
  ASSERT_TRUE(cache.solve(api::SolveRequest(b)).is_ok());
  ASSERT_EQ(cache.stats().interned_blobs, 1u);

  // New point for a through the *stale* context id: still persisted.
  api::SolveOptions relaxed;
  relaxed.deadline_slack = 1.5;
  const api::SolveRequest req_a2(a, "", relaxed);
  ASSERT_NE(cache.solve_shared(req_a2, frontier::SolveCache::key_for(ctx_a, req_a2)),
            nullptr);
  EXPECT_EQ(st.stats().entries, 3u);

  // And the stored entry is exactly findable by digest + bytes.
  const std::string bytes = api::instance_bytes(req_a2);
  auto stored = st.find(api::digest_bytes(bytes), bytes, "", bicrit_point(30.0));
  ASSERT_NE(stored, nullptr);
  EXPECT_TRUE(stored->is_ok());
}

TEST(CachePolicies, WarmStartSeedsFromNearestNeighborAndAgreesWithCold) {
  const std::string path = temp_log_path("warm_start");
  const auto problem = diamond_problem(30.0);
  StoreOptions opt = options_for(path);
  opt.warm_start = true;
  auto st = open_or_die(std::move(opt));
  frontier::SolveCache cache;
  ASSERT_TRUE(cache.attach_store(&st).is_ok());

  api::SolveOptions tight;
  tight.deadline_slack = 0.4;  // effective deadline 12
  auto first = cache.solve(api::SolveRequest(problem, "continuous-ipm", tight));
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  EXPECT_EQ(cache.stats().warm_seeds, 0u);  // nothing stored yet

  api::SolveOptions near;
  near.deadline_slack = 0.45;  // effective deadline 13.5: neighbour exists
  auto seeded = cache.solve(api::SolveRequest(problem, "continuous-ipm", near));
  ASSERT_TRUE(seeded.is_ok()) << seeded.status().to_string();
  EXPECT_EQ(cache.stats().warm_seeds, 1u);

  // The hint is a performance detail, not a semantic one: a cold solve of
  // the same point agrees to solver tolerance.
  frontier::SolveCache cold_cache;
  auto cold = cold_cache.solve(api::SolveRequest(problem, "continuous-ipm", near));
  ASSERT_TRUE(cold.is_ok());
  EXPECT_NEAR(seeded.value().energy, cold.value().energy,
              1e-5 * cold.value().energy);
}

}  // namespace
}  // namespace easched::store
