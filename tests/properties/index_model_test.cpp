// Stateful property test: the DiskIndex against an in-memory reference
// model, over long randomized operation sequences including bulk ops, full
// extraction, capacity scaling and splitting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "index/disk_index.hpp"
#include "storage/block_device.hpp"

namespace debar::index {
namespace {

class IndexModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IndexModelTest, RandomOpsAgreeWithReference) {
  Xoshiro256 rng(GetParam());
  auto created = DiskIndex::create(
      std::make_unique<storage::MemBlockDevice>(),
      {.prefix_bits = 6, .blocks_per_bucket = 2});
  ASSERT_TRUE(created.ok());
  DiskIndex idx = std::move(created).value();

  std::map<Fingerprint, ContainerId> model;
  std::uint64_t next_counter = 0;
  std::uint64_t next_container = 1;

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = rng.below(100);
    if (op < 40) {
      // Point insert of a fresh fingerprint.
      const Fingerprint fp = Sha1::hash_counter(next_counter++);
      const ContainerId cid{next_container++};
      const Status s = idx.insert(fp, cid);
      if (s.ok()) {
        model.emplace(fp, cid);
      } else {
        ASSERT_EQ(s.code(), Errc::kFull);
        // Full neighbourhood: scale and retry, as the system would.
        auto scaled = idx.scaled(std::make_unique<storage::MemBlockDevice>());
        ASSERT_TRUE(scaled.ok());
        idx = std::move(scaled).value();
        ASSERT_TRUE(idx.insert(fp, cid).ok());
        model.emplace(fp, cid);
      }
    } else if (op < 55 && !model.empty()) {
      // Duplicate insert must be rejected and change nothing.
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.below(model.size())));
      const Status s = idx.insert(it->first, ContainerId{999999});
      EXPECT_EQ(s.code(), Errc::kInvalidArgument);
    } else if (op < 70) {
      // Bulk insert of a small fresh batch.
      std::vector<IndexEntry> batch;
      const std::uint64_t n = 1 + rng.below(30);
      for (std::uint64_t i = 0; i < n; ++i) {
        batch.push_back(
            {Sha1::hash_counter(next_counter++), ContainerId{next_container++}});
      }
      std::sort(batch.begin(), batch.end(),
                [](const IndexEntry& a, const IndexEntry& b) {
                  return a.fp < b.fp;
                });
      std::uint64_t inserted = 0;
      std::vector<std::size_t> failed;
      const Status s = idx.bulk_insert(std::span<const IndexEntry>(batch),
                                       1 + rng.below(16), &inserted, &failed);
      std::vector<bool> ok(batch.size(), true);
      for (const std::size_t f : failed) ok[f] = false;
      if (!s.ok()) ASSERT_EQ(s.code(), Errc::kFull);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        if (ok[i]) model.emplace(batch[i].fp, batch[i].container);
      }
    } else if (op < 85 && !model.empty()) {
      // Bulk lookup over a mixed present/absent sorted set.
      std::vector<Fingerprint> queries;
      for (int q = 0; q < 20; ++q) {
        if (rng.chance(0.5)) {
          auto it = model.begin();
          std::advance(it, static_cast<long>(rng.below(model.size())));
          queries.push_back(it->first);
        } else {
          queries.push_back(Sha1::hash_counter(1'000'000 + rng.below(10000)));
        }
      }
      std::sort(queries.begin(), queries.end());
      queries.erase(std::unique(queries.begin(), queries.end()),
                    queries.end());
      std::vector<std::uint8_t> found(queries.size(), 0);
      std::vector<ContainerId> got(queries.size());
      ASSERT_TRUE(idx.bulk_lookup(
                         std::span<const Fingerprint>(queries),
                         [&](std::size_t i, ContainerId id) {
                           found[i] = 1;
                           got[i] = id;
                         },
                         1 + rng.below(16))
                      .ok());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const auto it = model.find(queries[i]);
        ASSERT_EQ(found[i] != 0, it != model.end()) << "step " << step;
        if (found[i]) ASSERT_EQ(got[i], it->second);
      }
    } else if (op < 90) {
      // Full extraction (what scaled(), split(), migration and
      // maintenance rebuild from) is exactly the model, in order.
      const Result<std::vector<IndexEntry>> all = extract_sorted_entries(idx);
      ASSERT_TRUE(all.ok());
      ASSERT_EQ(all.value().size(), model.size()) << "step " << step;
      auto it = model.begin();
      for (const IndexEntry& e : all.value()) {
        ASSERT_EQ(e.fp, it->first) << "step " << step;
        ASSERT_EQ(e.container, it->second) << "step " << step;
        ++it;
      }
    } else if (op < 92 && idx.params().prefix_bits < 12) {
      // Capacity scaling at a random moment (bounded so the test's
      // device stays small: real systems scale when full, not randomly).
      auto scaled = idx.scaled(std::make_unique<storage::MemBlockDevice>());
      ASSERT_TRUE(scaled.ok());
      idx = std::move(scaled).value();
    } else if (!model.empty()) {
      // Point lookups agree.
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.below(model.size())));
      const auto r = idx.lookup(it->first);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.value(), it->second);
    }
    ASSERT_EQ(idx.entry_count(), model.size()) << "step " << step;
  }

  // Final exhaustive agreement.
  for (const auto& [fp, cid] : model) {
    const auto r = idx.lookup(fp);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), cid);
  }
  const auto stats = idx.stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().entries, model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(IndexModelTest, SplitAgreesWithReferenceAcrossParts) {
  Xoshiro256 rng(99);
  auto created = DiskIndex::create(
      std::make_unique<storage::MemBlockDevice>(),
      {.prefix_bits = 7, .blocks_per_bucket = 2});
  ASSERT_TRUE(created.ok());

  std::map<Fingerprint, ContainerId> model;
  std::vector<IndexEntry> entries;
  for (std::uint64_t i = 0; i < 800; ++i) {
    entries.push_back({Sha1::hash_counter(i), ContainerId{i + 1}});
    model.emplace(entries.back().fp, entries.back().container);
  }
  std::sort(entries.begin(), entries.end(),
            [](const IndexEntry& a, const IndexEntry& b) { return a.fp < b.fp; });
  ASSERT_TRUE(
      created.value().bulk_insert(std::span<const IndexEntry>(entries)).ok());

  std::vector<std::unique_ptr<storage::BlockDevice>> devices;
  for (int i = 0; i < 8; ++i) {
    devices.push_back(std::make_unique<storage::MemBlockDevice>());
  }
  auto parts = created.value().split(std::move(devices));
  ASSERT_TRUE(parts.ok());

  for (const auto& [fp, cid] : model) {
    const std::size_t owner = static_cast<std::size_t>(fp.prefix_bits(3));
    EXPECT_EQ(parts.value()[owner].lookup(fp).value(), cid);
  }
}

}  // namespace
}  // namespace debar::index
