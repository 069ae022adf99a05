#include "storage/chunk_log.hpp"

#include <gtest/gtest.h>

#include "common/sha1.hpp"
#include "storage/faulty_block_device.hpp"

namespace debar::storage {
namespace {

std::unique_ptr<ChunkLog> make_log() {
  return std::make_unique<ChunkLog>(std::make_unique<MemBlockDevice>());
}

TEST(ChunkLogTest, AppendAndScanInOrder) {
  auto log = make_log();
  std::vector<std::pair<Fingerprint, std::vector<Byte>>> records;
  for (std::uint64_t i = 0; i < 10; ++i) {
    std::vector<Byte> data(100 + i * 10, static_cast<Byte>(i));
    const Fingerprint fp = Sha1::hash_counter(i);
    ASSERT_TRUE(log->append(fp, ByteSpan(data.data(), data.size())).ok());
    records.emplace_back(fp, std::move(data));
  }
  EXPECT_EQ(log->record_count(), 10u);

  std::size_t i = 0;
  const Status s = log->scan([&](const Fingerprint& fp, ByteSpan data) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(fp, records[i].first);
    EXPECT_TRUE(std::equal(data.begin(), data.end(),
                           records[i].second.begin(),
                           records[i].second.end()));
    ++i;
  });
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(i, 10u);
}

TEST(ChunkLogTest, EmptyScanIsNoop) {
  auto log = make_log();
  int calls = 0;
  ASSERT_TRUE(log->scan([&](const Fingerprint&, ByteSpan) { ++calls; }).ok());
  EXPECT_EQ(calls, 0);
}

TEST(ChunkLogTest, ClearResetsState) {
  auto log = make_log();
  const std::vector<Byte> data(64, 1);
  ASSERT_TRUE(log->append(Sha1::hash_counter(1),
                          ByteSpan(data.data(), data.size())).ok());
  log->clear();
  EXPECT_EQ(log->record_count(), 0u);
  EXPECT_EQ(log->bytes(), 0u);
  int calls = 0;
  ASSERT_TRUE(log->scan([&](const Fingerprint&, ByteSpan) { ++calls; }).ok());
  EXPECT_EQ(calls, 0);
}

TEST(ChunkLogTest, ReusableAfterClear) {
  auto log = make_log();
  const std::vector<Byte> a(64, 1), b(32, 2);
  ASSERT_TRUE(log->append(Sha1::hash_counter(1), ByteSpan(a.data(), a.size())).ok());
  log->clear();
  ASSERT_TRUE(log->append(Sha1::hash_counter(2), ByteSpan(b.data(), b.size())).ok());

  int calls = 0;
  ASSERT_TRUE(log->scan([&](const Fingerprint& fp, ByteSpan data) {
    EXPECT_EQ(fp, Sha1::hash_counter(2));
    EXPECT_EQ(data.size(), 32u);
    ++calls;
  }).ok());
  EXPECT_EQ(calls, 1);
}

TEST(ChunkLogTest, AppendsAndScansAreSequentialOnDevice) {
  // The entire point of the chunk log: its I/O is sequential. With a
  // model attached, no seeks should be charged for appends or the scan.
  sim::SimClock clock;
  sim::DiskModel model({.seek_seconds = 1.0, .transfer_bytes_per_sec = 1e9},
                       &clock);
  auto device = std::make_unique<MemBlockDevice>();
  device->attach_model(&model);
  ChunkLog log(std::move(device));

  const std::vector<Byte> data(4096, 3);
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(log.append(Sha1::hash_counter(i),
                           ByteSpan(data.data(), data.size())).ok());
  }
  const std::uint64_t seeks_after_append = model.seeks();
  EXPECT_EQ(seeks_after_append, 0u);

  // The scan starts at offset 0 (one repositioning), then streams.
  ASSERT_TRUE(log.scan([](const Fingerprint&, ByteSpan) {}).ok());
  EXPECT_LE(model.seeks(), 1u);
}

TEST(ChunkLogTest, ZeroLengthChunkRoundTrips) {
  auto log = make_log();
  ASSERT_TRUE(log->append(Sha1::hash_counter(5), ByteSpan{}).ok());
  int calls = 0;
  ASSERT_TRUE(log->scan([&](const Fingerprint& fp, ByteSpan data) {
    EXPECT_EQ(fp, Sha1::hash_counter(5));
    EXPECT_TRUE(data.empty());
    ++calls;
  }).ok());
  EXPECT_EQ(calls, 1);
}

// ---- Windowed replay ------------------------------------------------------
//
// scan() reads the log in aligned 1 MiB windows. Records are laid out so
// that headers and payloads straddle window edges, outgrow a window, or end
// exactly on one; each replay must deliver every record whole, in order,
// and read every log byte exactly once with at most one repositioning.

constexpr std::uint64_t kWindow = 1 << 20;
constexpr std::uint64_t kRecordHeader = Fingerprint::kSize + 4;

std::vector<Byte> payload_of(std::size_t i, std::uint64_t size) {
  std::vector<Byte> data(size);
  for (std::uint64_t k = 0; k < size; ++k) {
    data[k] = static_cast<Byte>((i * 131 + k * 7) % 251);
  }
  return data;
}

/// Append records with the given payload sizes, replay them, and check the
/// replay against what was appended and against the disk model.
void expect_replay(const std::vector<std::uint64_t>& sizes) {
  sim::SimClock clock;
  sim::DiskModel model({.seek_seconds = 1.0, .transfer_bytes_per_sec = 1e9},
                       &clock);
  auto device = std::make_unique<MemBlockDevice>();
  device->attach_model(&model);
  ChunkLog log(std::move(device));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::vector<Byte> data = payload_of(i, sizes[i]);
    ASSERT_TRUE(
        log.append(Sha1::hash_counter(i), ByteSpan(data.data(), data.size()))
            .ok());
  }

  const std::uint64_t bytes_before = model.bytes_transferred();
  const std::uint64_t seeks_before = model.seeks();
  std::size_t i = 0;
  ASSERT_TRUE(log.scan([&](const Fingerprint& fp, ByteSpan data) {
                   ASSERT_LT(i, sizes.size());
                   EXPECT_EQ(fp, Sha1::hash_counter(i)) << "record " << i;
                   const std::vector<Byte> want = payload_of(i, sizes[i]);
                   EXPECT_TRUE(std::equal(data.begin(), data.end(),
                                          want.begin(), want.end()))
                       << "record " << i;
                   ++i;
                 })
                  .ok());
  EXPECT_EQ(i, sizes.size());
  EXPECT_EQ(model.bytes_transferred() - bytes_before, log.bytes());
  EXPECT_LE(model.seeks() - seeks_before, 1u);
}

TEST(ChunkLogReplayTest, RecordsStraddlingTheWindowEdge) {
  // The second record's header straddles the first edge (10 bytes before,
  // 14 after); the fourth record's payload straddles the second edge.
  expect_replay({kWindow - kRecordHeader - 10, 100, kWindow - 300, 5000, 64});
}

TEST(ChunkLogReplayTest, RecordLargerThanTheWindow) {
  expect_replay({3 * kWindow + 17, 10, 2 * kWindow, 1});
  expect_replay({kWindow + 1});
}

TEST(ChunkLogReplayTest, ZeroLengthRecords) {
  expect_replay({0, 0, 5, 0});
  // A zero-length record whose header ends exactly on the window edge,
  // then one whose header starts on it.
  expect_replay({kWindow - 2 * kRecordHeader, 0, 0, 7});
}

TEST(ChunkLogReplayTest, LogExactlyOneWindowLong) {
  expect_replay({kWindow - kRecordHeader});
  expect_replay({kWindow / 2 - kRecordHeader, kWindow / 2 - kRecordHeader});
}

TEST(ChunkLogReplayTest, LogEndingOnAWindowEdge) {
  expect_replay({kWindow + 500, kWindow - 500 - 2 * kRecordHeader});
}

TEST(ChunkLogReplayTest, ReadFaultMidReplayStopsTheScan) {
  auto injector = std::make_shared<FaultInjector>(FaultConfig{});
  ChunkLog log(std::make_unique<FaultyBlockDevice>(
      std::make_unique<MemBlockDevice>(), injector));
  constexpr std::uint64_t kPayload = 100 * 1024;
  constexpr std::size_t kRecords = 30;
  for (std::size_t i = 0; i < kRecords; ++i) {
    const std::vector<Byte> data = payload_of(i, kPayload);
    ASSERT_TRUE(
        log.append(Sha1::hash_counter(i), ByteSpan(data.data(), data.size()))
            .ok());
  }
  // The first window read passes; the second, and every retry, fails.
  injector->set_config({.crash_after_ops = injector->op_count() + 1});

  std::size_t delivered = 0;
  const Status s = log.scan([&](const Fingerprint& fp, ByteSpan data) {
    EXPECT_EQ(fp, Sha1::hash_counter(delivered));
    EXPECT_EQ(data.size(), kPayload);
    ++delivered;
  });
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::kIoError);
  // Exactly the records that end inside the first window got through.
  EXPECT_EQ(delivered, kWindow / (kRecordHeader + kPayload));
  EXPECT_LT(delivered, kRecords);
}

}  // namespace
}  // namespace debar::storage
