// The SIL/SIU engines (DiskIndex::bulk_lookup / bulk_insert) must give the
// same results for every pool size: same index image, same RNG-driven
// overflow placement, same kFull/failed reporting, same modeled seconds.
//
// The reference is a set of golden values recorded from the one-pass
// serial scans the engines replaced: index image SHA-1, inserted counts,
// failed indices, kFull, and modeled seconds (bit-exact), for a kFull
// case, a last span of one bucket (2^6 buckets at io_buckets = 3), one
// span and two spans. Every case runs with no pool and with pools of 1,
// 2, 3, 4 and 8 workers, so pools larger than the span count are covered.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>

#include "common/hex.hpp"
#include "common/sha1.hpp"
#include "common/thread_pool.hpp"
#include "index/disk_index.hpp"
#include "storage/block_device.hpp"

namespace debar::index {
namespace {

DiskIndex make_index(unsigned prefix_bits, unsigned blocks = 1,
                     storage::MemBlockDevice** device_out = nullptr,
                     sim::DiskModel* model = nullptr) {
  auto device = std::make_unique<storage::MemBlockDevice>();
  if (device_out != nullptr) *device_out = device.get();
  if (model != nullptr) device->attach_model(model);
  Result<DiskIndex> idx = DiskIndex::create(
      std::move(device),
      {.prefix_bits = prefix_bits, .blocks_per_bucket = blocks});
  EXPECT_TRUE(idx.ok());
  return std::move(idx).value();
}

std::vector<Fingerprint> sorted_fps(std::uint64_t from, std::uint64_t count) {
  std::vector<Fingerprint> fps;
  fps.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    fps.push_back(Sha1::hash_counter(from + i));
  }
  std::sort(fps.begin(), fps.end());
  return fps;
}

std::vector<IndexEntry> entries_of(const std::vector<Fingerprint>& fps,
                                   std::uint64_t id_base = 1) {
  std::vector<IndexEntry> entries;
  entries.reserve(fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) {
    entries.push_back({fps[i], ContainerId{id_base + i}});
  }
  return entries;
}

/// Entries for counters [from, from + count), container ID = counter + 1,
/// sorted by fingerprint.
std::vector<IndexEntry> counter_entries(std::uint64_t from,
                                        std::uint64_t count) {
  std::vector<IndexEntry> out;
  out.reserve(count);
  for (std::uint64_t i = from; i < from + count; ++i) {
    out.push_back({Sha1::hash_counter(i), ContainerId{i + 1}});
  }
  std::sort(out.begin(), out.end(),
            [](const IndexEntry& a, const IndexEntry& b) { return a.fp < b.fp; });
  return out;
}

bool same_image(const storage::MemBlockDevice& a,
                const storage::MemBlockDevice& b) {
  const ByteSpan ia = a.contents();
  const ByteSpan ib = b.contents();
  return ia.size() == ib.size() &&
         std::memcmp(ia.data(), ib.data(), ia.size()) == 0;
}

struct BatchGolden {
  Errc code;
  std::uint64_t inserted;
  std::vector<std::size_t> failed;
};

/// One golden case: counters [0, entries / 2) are bulk-inserted, then
/// [entries / 2, entries), then the second half is bulk-looked-up.
struct Golden {
  const char* name;
  unsigned prefix_bits;
  unsigned blocks;
  std::uint64_t entries;
  std::uint64_t io_buckets;
  BatchGolden batches[2];
  const char* image_sha1;
  double insert_seconds;
  std::uint64_t entry_count;
  bool needs_scaling;
  std::uint64_t found;
  const char* lookup_sha1;  // over the looked-up container IDs, 0 = absent
  double lookup_seconds;
};

const Golden kGoldens[] = {
    {"Full", 4, 1, 340, 3,
     {{Errc::kOk, 170, {}},
      {Errc::kFull, 148, {46, 47, 71, 72, 73, 74, 75, 76, 94, 105, 106, 150,
                          151, 161, 162, 163, 164, 165, 166, 167, 168, 169}}},
     "119138f2dfaf5ab94ca80bf550fffbf2370f7843", 0x1.6aa61346fc0a5p-5, 318,
     true, 148, "81dec3d173b7d425f3615ad0a728a7223755934a",
     0x1.7a523cc9f10b8p-7},
    {"OneBucketTailSpan", 6, 1, 1100, 3,
     {{Errc::kOk, 550, {}}, {Errc::kOk, 550, {}}},
     "55fa57c6ac5737ae5d70eb43f3c7fa29ebd300cb", 0x1.57199c2abae11p-3, 1100,
     false, 550, "893108e7b5a0f78198215e2ba7362303e866d3bf",
     0x1.5b04a68b78214p-5},
    {"OneSpan", 7, 1, 2300, 1024,
     {{Errc::kOk, 1150, {}}, {Errc::kFull, 1145, {696, 697, 707, 988, 989}}},
     "78e546e22800be7d01ed00d1592fdc84b4e18d4e", 0x1.ce0a1fcfba4e3p-8, 2295,
     true, 1145, "245a713b3823962d2390ea0404b2b1c6a57dde10",
     0x1.25b5b5f3b12bep-9},
    {"TwoSpans", 7, 1, 2300, 64,
     {{Errc::kOk, 1150, {}}, {Errc::kFull, 1145, {696, 697, 707, 988, 989}}},
     "78e546e22800be7d01ed00d1592fdc84b4e18d4e", 0x1.e273748e3ebfp-7, 2295,
     true, 1145, "245a713b3823962d2390ea0404b2b1c6a57dde10",
     0x1.10920d4d0962p-8},
};

class BulkOpsGoldenTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(BulkOpsGoldenTest, MatchesRecordedSerialPass) {
  const Golden& g = kGoldens[std::get<0>(GetParam())];
  const std::size_t workers = std::get<1>(GetParam());
  std::unique_ptr<ThreadPool> owned =
      workers == 0 ? nullptr : std::make_unique<ThreadPool>(workers);
  ThreadPool* pool = owned.get();

  sim::SimClock clock;
  sim::DiskModel model(sim::DiskProfile::PaperRaid(), &clock);
  storage::MemBlockDevice* dev = nullptr;
  DiskIndex idx = make_index(g.prefix_bits, g.blocks, &dev, &model);

  const std::uint64_t half = g.entries / 2;
  for (int b = 0; b < 2; ++b) {
    const auto entries = b == 0 ? counter_entries(0, half)
                                : counter_entries(half, g.entries - half);
    std::uint64_t inserted = 0;
    std::vector<std::size_t> failed;
    const Status s = idx.bulk_insert(std::span<const IndexEntry>(entries),
                                     g.io_buckets, &inserted, &failed, pool);
    EXPECT_EQ(s.code(), g.batches[b].code) << "batch " << b;
    EXPECT_EQ(inserted, g.batches[b].inserted) << "batch " << b;
    EXPECT_EQ(failed, g.batches[b].failed) << "batch " << b;
  }
  EXPECT_EQ(to_hex(Sha1::hash(dev->contents())), g.image_sha1);
  EXPECT_EQ(clock.seconds(), g.insert_seconds);
  EXPECT_EQ(idx.entry_count(), g.entry_count);
  EXPECT_EQ(idx.needs_scaling(), g.needs_scaling);

  std::vector<Fingerprint> queries;
  for (const IndexEntry& e : counter_entries(half, g.entries)) {
    queries.push_back(e.fp);
  }
  std::vector<std::uint64_t> got(queries.size(), 0);
  const double t0 = clock.seconds();
  ASSERT_TRUE(idx.bulk_lookup(
                     std::span<const Fingerprint>(queries),
                     [&](std::size_t i, ContainerId id) { got[i] = id.value; },
                     g.io_buckets, pool)
                  .ok());
  std::uint64_t found = 0;
  Sha1 digest;
  for (const std::uint64_t id : got) {
    found += id != 0;
    digest.update(std::string_view(reinterpret_cast<const char*>(&id),
                                   sizeof id));
  }
  EXPECT_EQ(found, g.found);
  EXPECT_EQ(to_hex(digest.finish()), g.lookup_sha1);
  EXPECT_EQ(clock.seconds() - t0, g.lookup_seconds);
}

INSTANTIATE_TEST_SUITE_P(
    Pools, BulkOpsGoldenTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kGoldens)),
                       ::testing::Values<std::size_t>(0, 1, 2, 3, 4, 8)),
    [](const auto& info) {
      const std::size_t workers = std::get<1>(info.param);
      return std::string(kGoldens[std::get<0>(info.param)].name) +
             (workers == 0 ? "_NoPool"
                           : "_Pool" + std::to_string(workers));
    });

TEST(ParallelBulkOpsTest, PipelinedInsertMatchesSerialByteForByte) {
  sim::SimClock clock_s, clock_p;
  sim::DiskModel model_s(sim::DiskProfile::PaperRaid(), &clock_s);
  sim::DiskModel model_p(sim::DiskProfile::PaperRaid(), &clock_p);
  storage::MemBlockDevice* dev_s = nullptr;
  storage::MemBlockDevice* dev_p = nullptr;
  DiskIndex serial = make_index(7, 2, &dev_s, &model_s);
  DiskIndex parallel = make_index(7, 2, &dev_p, &model_p);

  const auto fps = sorted_fps(0, 3000);
  const auto entries = entries_of(fps);

  std::uint64_t ins_s = 0;
  std::uint64_t ins_p = 0;
  ASSERT_TRUE(serial
                  .bulk_insert(std::span<const IndexEntry>(entries), 8, &ins_s)
                  .ok());
  ThreadPool pool(4);
  ASSERT_TRUE(parallel
                  .bulk_insert(std::span<const IndexEntry>(entries), 8, &ins_p,
                               nullptr, &pool)
                  .ok());

  EXPECT_EQ(ins_s, ins_p);
  EXPECT_EQ(serial.entry_count(), parallel.entry_count());
  EXPECT_TRUE(same_image(*dev_s, *dev_p));
  // Modeled time is part of the contract: every pool size charges the
  // one-pass access sequence, so the clocks agree exactly.
  EXPECT_DOUBLE_EQ(clock_s.seconds(), clock_p.seconds());
}

TEST(ParallelBulkOpsTest, PipelinedInsertMatchesSerialOnOverflowAndFull) {
  // 16 buckets x 20 entries, loaded to 125%: forces neighbour overflow
  // and then kFull, the paths where the shared RNG draw order decides
  // placement. io_buckets=3 keeps the pipeline live (6 spans).
  storage::MemBlockDevice* dev_s = nullptr;
  storage::MemBlockDevice* dev_p = nullptr;
  DiskIndex serial = make_index(4, 1, &dev_s);
  DiskIndex parallel = make_index(4, 1, &dev_p);

  const auto fps = sorted_fps(0, 400);
  const auto entries = entries_of(fps);

  std::uint64_t ins_s = 0;
  std::uint64_t ins_p = 0;
  std::vector<std::size_t> failed_s;
  std::vector<std::size_t> failed_p;
  const Status ss = serial.bulk_insert(std::span<const IndexEntry>(entries), 3,
                                       &ins_s, &failed_s);
  ThreadPool pool(4);
  const Status sp = parallel.bulk_insert(std::span<const IndexEntry>(entries),
                                         3, &ins_p, &failed_p, &pool);

  EXPECT_EQ(ss.code(), Errc::kFull);
  EXPECT_EQ(ss.code(), sp.code());
  EXPECT_EQ(ins_s, ins_p);
  EXPECT_EQ(failed_s, failed_p);
  EXPECT_EQ(serial.needs_scaling(), parallel.needs_scaling());
  EXPECT_TRUE(same_image(*dev_s, *dev_p));
}

TEST(ParallelBulkOpsTest, ShardedLookupMatchesSerial) {
  sim::SimClock clock_s, clock_p;
  sim::DiskModel model_s(sim::DiskProfile::PaperRaid(), &clock_s);
  sim::DiskModel model_p(sim::DiskProfile::PaperRaid(), &clock_p);
  DiskIndex serial = make_index(7, 2, nullptr, &model_s);
  DiskIndex parallel = make_index(7, 2, nullptr, &model_p);

  const auto all = sorted_fps(0, 2000);
  std::vector<IndexEntry> present;
  for (std::size_t i = 0; i < all.size(); i += 3) {
    present.push_back({all[i], ContainerId{i + 1}});
  }
  ASSERT_TRUE(serial.bulk_insert(std::span<const IndexEntry>(present)).ok());
  ASSERT_TRUE(parallel.bulk_insert(std::span<const IndexEntry>(present)).ok());
  const double insert_s = clock_s.seconds();
  const double insert_p = clock_p.seconds();
  ASSERT_DOUBLE_EQ(insert_s, insert_p);

  std::vector<ContainerId> got_serial(all.size());
  std::vector<ContainerId> got_parallel(all.size());
  ASSERT_TRUE(serial
                  .bulk_lookup(std::span<const Fingerprint>(all),
                               [&](std::size_t i, ContainerId id) {
                                 got_serial[i] = id;
                               },
                               8)
                  .ok());
  ThreadPool pool(4);
  ASSERT_TRUE(parallel
                  .bulk_lookup(std::span<const Fingerprint>(all),
                               [&](std::size_t i, ContainerId id) {
                                 got_parallel[i] = id;
                               },
                               8, &pool)
                  .ok());
  EXPECT_EQ(got_serial, got_parallel);
  // Lookups are read-only but still charge time; replay keeps it equal.
  EXPECT_DOUBLE_EQ(clock_s.seconds() - insert_s,
                   clock_p.seconds() - insert_p);
}

TEST(ParallelBulkOpsTest, ShardedLookupFindsCrossShardOverflow) {
  // Overstuff one bucket so entries overflow into neighbours; shard
  // boundaries between spans must still see them via their read margins.
  DiskIndex idx = make_index(3, 1);
  const std::uint64_t capacity = idx.params().bucket_capacity();
  std::vector<Fingerprint> bucket4;
  for (std::uint64_t i = 0; bucket4.size() < capacity + 6; ++i) {
    const Fingerprint fp = Sha1::hash_counter(i);
    if (idx.bucket_of(fp) == 4) bucket4.push_back(fp);
  }
  for (std::size_t i = 0; i < bucket4.size(); ++i) {
    ASSERT_TRUE(idx.insert(bucket4[i], ContainerId{i + 1}).ok());
  }

  std::sort(bucket4.begin(), bucket4.end());
  std::uint64_t found = 0;
  ThreadPool pool(4);
  // io_buckets=3 with 8 buckets -> 3 spans across 3 shards; bucket 4 sits
  // at a span boundary.
  ASSERT_TRUE(idx.bulk_lookup(std::span<const Fingerprint>(bucket4),
                              [&](std::size_t, ContainerId) { ++found; }, 3,
                              &pool)
                  .ok());
  EXPECT_EQ(found, bucket4.size());
}

TEST(ParallelBulkOpsTest, SingleWorkerDegradesToSerialPath) {
  // A one-worker pool runs SIL as one shard on the caller and the SIU
  // stages on its worker; the result must equal the no-pool run.
  storage::MemBlockDevice* dev_s = nullptr;
  storage::MemBlockDevice* dev_p = nullptr;
  DiskIndex serial = make_index(6, 1, &dev_s);
  DiskIndex single = make_index(6, 1, &dev_p);

  const auto fps = sorted_fps(0, 400);
  const auto entries = entries_of(fps);
  ASSERT_TRUE(
      serial.bulk_insert(std::span<const IndexEntry>(entries), 8).ok());
  ThreadPool pool(1);
  ASSERT_TRUE(single
                  .bulk_insert(std::span<const IndexEntry>(entries), 8,
                               nullptr, nullptr, &pool)
                  .ok());
  EXPECT_TRUE(same_image(*dev_s, *dev_p));

  std::uint64_t found = 0;
  ASSERT_TRUE(single
                  .bulk_lookup(std::span<const Fingerprint>(fps),
                               [&](std::size_t, ContainerId) { ++found; }, 8,
                               &pool)
                  .ok());
  EXPECT_EQ(found, fps.size());
}

TEST(ParallelBulkOpsTest, ShardPlanCoversEverySpanOnce) {
  for (const std::uint64_t spans : {1u, 2u, 3u, 7u, 22u}) {
    for (const std::size_t workers : {0u, 1u, 2u, 3u, 4u, 8u}) {
      const std::vector<ShardSpans> plan = shard_plan(spans, workers);
      ASSERT_EQ(plan.size(),
                std::max<std::size_t>(1, std::min<std::size_t>(workers, spans)));
      std::uint64_t next = 0;
      for (const ShardSpans& shard : plan) {
        EXPECT_EQ(shard.first, next);
        EXPECT_LT(shard.first, shard.end);
        next = shard.end;
      }
      EXPECT_EQ(next, spans);
    }
  }
}

}  // namespace
}  // namespace debar::index
