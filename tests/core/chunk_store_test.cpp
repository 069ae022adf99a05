#include "core/chunk_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/sha1.hpp"
#include "storage/block_device.hpp"

namespace debar::core {
namespace {

std::unique_ptr<storage::BlockDevice> mem_device() {
  return std::make_unique<storage::MemBlockDevice>();
}

// The index-part cases (SIL, SIU, the checking set, capacity scaling,
// locate) run on two shapes of the same service: the ChunkStore, and a
// bare IndexPart as a server hosts for another server's part — no chunk
// log, no repository.
class ChunkStoreTest : public ::testing::Test {
 protected:
  ChunkStoreTest()
      : repo_(1),
        log_(mem_device()),
        store_(make_index(), make_config(), &repo_, &log_, mem_device),
        bare_(make_bare(make_index())) {}

  static index::DiskIndex make_index(unsigned prefix_bits = 8) {
    auto idx = index::DiskIndex::create(
        mem_device(), {.prefix_bits = prefix_bits, .blocks_per_bucket = 2});
    EXPECT_TRUE(idx.ok());
    return std::move(idx).value();
  }

  static std::unique_ptr<IndexPart> make_bare(index::DiskIndex idx) {
    const ChunkStoreConfig cfg = make_config();
    return std::make_unique<IndexPart>(
        std::move(idx), cfg.io_buckets, cfg.siu_threshold, mem_device,
        std::make_shared<Dedup2Pool>(cfg.dedup2));
  }

  /// Both shapes, named for failure messages.
  std::vector<std::pair<const char*, IndexPart*>> shapes() {
    return {{"chunk store", &store_}, {"bare index part", bare_.get()}};
  }

  static ChunkStoreConfig make_config() {
    ChunkStoreConfig cfg;
    cfg.cache_params = {.hash_bits = 6, .capacity = 10000};
    cfg.io_buckets = 16;
    cfg.siu_threshold = 1;  // SIU always due unless a test overrides
    cfg.lpc_containers = 2;
    return cfg;
  }

  Fingerprint fp(std::uint64_t i) { return Sha1::hash_counter(i); }

  std::vector<Byte> payload(std::uint64_t i, std::size_t size = 1024) {
    std::vector<Byte> data(size, static_cast<Byte>(i * 31 + 1));
    return data;
  }

  /// Append <fp(i), payload(i)> for each i to the chunk log.
  void fill_log(const std::vector<std::uint64_t>& ids) {
    for (const std::uint64_t i : ids) {
      const auto data = payload(i);
      ASSERT_TRUE(log_.append(fp(i), ByteSpan(data.data(), data.size())).ok());
    }
  }

  /// Run a full single-server dedup-2 round over fingerprints `ids`.
  void run_round(const std::vector<std::uint64_t>& ids, bool siu = true) {
    std::vector<Fingerprint> sorted;
    for (const std::uint64_t i : ids) sorted.push_back(fp(i));
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

    std::vector<std::uint8_t> found;
    auto sil = store_.sil(sorted, found);
    ASSERT_TRUE(sil.ok());
    std::vector<Fingerprint> new_fps;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      if (found[i] == 0) new_fps.push_back(sorted[i]);
    }
    auto stored = store_.store_new_chunks(new_fps);
    ASSERT_TRUE(stored.ok());
    store_.add_pending(std::span<const IndexEntry>(stored.value().entries));
    store_.clear_log();
    if (siu) {
      ASSERT_TRUE(store_.siu().ok());
    }
  }

  /// Entries for `ids`, as phase E delivers them to a hosted copy.
  std::vector<IndexEntry> entries(const std::vector<std::uint64_t>& ids) {
    std::vector<IndexEntry> out;
    for (const std::uint64_t i : ids) {
      out.push_back({fp(i), ContainerId{i + 1}});
    }
    return out;
  }

  storage::ChunkRepository repo_;
  storage::ChunkLog log_;
  ChunkStore store_;
  std::unique_ptr<IndexPart> bare_;
};

TEST_F(ChunkStoreTest, SilFindsNothingInEmptyIndex) {
  std::vector<Fingerprint> fps = {fp(1), fp(2)};
  std::sort(fps.begin(), fps.end());
  for (const auto& [shape, part] : shapes()) {
    SCOPED_TRACE(shape);
    std::vector<std::uint8_t> found;
    const auto r = part->sil(fps, found);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().found_on_disk, 0u);
    EXPECT_EQ(found, (std::vector<std::uint8_t>{0, 0}));
  }
}

TEST_F(ChunkStoreTest, FullRoundStoresNewChunksAndRegistersThem) {
  fill_log({1, 2, 3});
  run_round({1, 2, 3});

  EXPECT_EQ(store_.index().entry_count(), 3u);
  EXPECT_EQ(store_.pending_count(), 0u);  // SIU drained the pending set
  for (const std::uint64_t i : {1, 2, 3}) {
    const auto cid = store_.locate(fp(i));
    ASSERT_TRUE(cid.ok()) << i;
    const auto chunk = store_.read_chunk(fp(i));
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(chunk.value(), payload(i));
  }
}

TEST_F(ChunkStoreTest, SecondRoundDeduplicatesAgainstIndex) {
  fill_log({1, 2});
  run_round({1, 2});
  const std::uint64_t containers_before = repo_.container_count();

  fill_log({1, 2, 3});  // 1 and 2 are duplicates now
  std::vector<Fingerprint> sorted = {fp(1), fp(2), fp(3)};
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint8_t> found;
  const auto sil = store_.sil(sorted, found);
  ASSERT_TRUE(sil.ok());
  EXPECT_EQ(sil.value().found_on_disk, 2u);

  std::vector<Fingerprint> new_fps;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (found[i] == 0) new_fps.push_back(sorted[i]);
  }
  const auto stored = store_.store_new_chunks(new_fps);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value().new_chunks, 1u);
  EXPECT_EQ(stored.value().discarded, 2u);
  EXPECT_EQ(repo_.container_count(), containers_before + 1);
}

TEST_F(ChunkStoreTest, CheckingSetShieldsAsynchronousSiu) {
  // Round 1 without SIU: entries stay pending.
  fill_log({1, 2});
  run_round({1, 2}, /*siu=*/false);
  EXPECT_EQ(store_.pending_count(), 2u);
  EXPECT_EQ(store_.index().entry_count(), 0u);

  // Round 2 re-sees fp(1): the checking set must resolve it as duplicate
  // even though the disk index doesn't know it yet.
  fill_log({1, 3});
  std::vector<Fingerprint> sorted = {fp(1), fp(3)};
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint8_t> found;
  const auto sil = store_.sil(sorted, found);
  ASSERT_TRUE(sil.ok());
  EXPECT_EQ(sil.value().found_pending, 1u);
  EXPECT_EQ(sil.value().found_on_disk, 0u);

  std::vector<Fingerprint> new_fps;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (found[i] == 0) new_fps.push_back(sorted[i]);
  }
  const auto stored = store_.store_new_chunks(new_fps);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value().new_chunks, 1u);  // only fp(3)
  store_.add_pending(std::span<const IndexEntry>(stored.value().entries));
  store_.clear_log();

  // One SIU services both rounds (Section 5.4).
  const auto siu = store_.siu();
  ASSERT_TRUE(siu.ok());
  EXPECT_EQ(siu.value().inserted, 3u);
  EXPECT_EQ(store_.index().entry_count(), 3u);

  // A bare part fed by phase E shields the same way: SIL sees pending
  // entries, locate serves them before SIU, and one SIU registers all.
  IndexPart& bare = *bare_;
  bare.add_pending(entries({1, 2}));
  std::vector<std::uint8_t> bare_found;
  const auto bare_sil = bare.sil(sorted, bare_found);
  ASSERT_TRUE(bare_sil.ok());
  EXPECT_EQ(bare_sil.value().found_pending, 1u);
  EXPECT_EQ(bare_sil.value().found_on_disk, 0u);
  EXPECT_EQ(bare_found, found);
  ASSERT_TRUE(bare.locate(fp(2)).ok());
  EXPECT_EQ(bare.locate(fp(2)).value(), ContainerId{3});
  bare.add_pending(entries({3}));
  const auto bare_siu = bare.siu();
  ASSERT_TRUE(bare_siu.ok());
  EXPECT_EQ(bare_siu.value().inserted, 3u);
  EXPECT_EQ(bare.pending_count(), 0u);
  EXPECT_EQ(bare.index().entry_count(), 3u);
  EXPECT_EQ(bare.locate(fp(2)).value(), ContainerId{3});
}

TEST_F(ChunkStoreTest, IntraLogDuplicatesStoredOnce) {
  // Same fingerprint appended to the log twice (e.g. two jobs, filter
  // cleared in between): exactly one copy must reach a container.
  fill_log({7, 7});
  run_round({7});
  const auto cid = store_.locate(fp(7));
  ASSERT_TRUE(cid.ok());
  const auto container = store_.container_manager().read(cid.value());
  ASSERT_TRUE(container.ok());
  std::size_t copies = 0;
  for (const auto& m : container.value().metadata()) {
    if (m.fp == fp(7)) ++copies;
  }
  EXPECT_EQ(copies, 1u);
}

TEST_F(ChunkStoreTest, OrphanNewFingerprintDetected) {
  // SIL says "new" but the log has no payload: must be dropped and counted.
  const auto stored = store_.store_new_chunks({fp(42)});
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(stored.value().orphans, 1u);
  EXPECT_TRUE(stored.value().entries.empty());
}

TEST_F(ChunkStoreTest, LocateMissesAreNotFound) {
  for (const auto& [shape, part] : shapes()) {
    SCOPED_TRACE(shape);
    const auto r = part->locate(fp(1234));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, Errc::kNotFound);
  }
}

TEST_F(ChunkStoreTest, RestoreUsesLpcPrefetch) {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 50; ++i) ids.push_back(i);
  fill_log(ids);
  run_round(ids);

  // First read misses and prefetches the container; the rest of the
  // SISL neighbourhood must hit.
  ASSERT_TRUE(store_.read_chunk(fp(0)).ok());
  const std::uint64_t misses_after_first = store_.lpc().misses();
  EXPECT_EQ(misses_after_first, 1u);  // one container fetch, one miss
  for (std::uint64_t i = 1; i < 50; ++i) {
    ASSERT_TRUE(store_.read_chunk(fp(i)).ok());
  }
  EXPECT_EQ(store_.lpc().misses(), misses_after_first);
  EXPECT_GE(store_.lpc().hits(), 49u);
}

TEST_F(ChunkStoreTest, SiuTriggersCapacityScalingWhenFull) {
  // Small index: 4 buckets x 40 = 160 entries. Insert 200.
  storage::ChunkLog log2(mem_device());
  ChunkStore store2(make_index(/*prefix_bits=*/2), make_config(), &repo_,
                    &log2, mem_device);
  const std::unique_ptr<IndexPart> bare2 =
      make_bare(make_index(/*prefix_bits=*/2));

  std::vector<std::uint64_t> ids;
  for (std::uint64_t i = 0; i < 200; ++i) ids.push_back(i);
  std::vector<std::vector<Byte>> images;
  for (IndexPart* part : {static_cast<IndexPart*>(&store2), bare2.get()}) {
    part->add_pending(entries(ids));
    const auto siu = part->siu();
    ASSERT_TRUE(siu.ok()) << siu.error().to_string();
    EXPECT_GE(siu.value().scalings, 1u);
    EXPECT_EQ(siu.value().inserted, 200u);
    EXPECT_GE(part->index().params().prefix_bits, 3u);
    for (const std::uint64_t i : ids) {
      EXPECT_TRUE(part->index().lookup(fp(i)).ok()) << i;
    }
    std::vector<Byte>& image =
        images.emplace_back(part->index().device().size());
    ASSERT_TRUE(part->index()
                    .device()
                    .read(0, std::span<Byte>(image.data(), image.size()))
                    .ok());
  }
  // Same entries, same params: both shapes grow to the same image.
  EXPECT_EQ(images[0], images[1]);
}

TEST_F(ChunkStoreTest, SiuOnEmptyPendingIsNoop) {
  for (const auto& [shape, part] : shapes()) {
    SCOPED_TRACE(shape);
    const auto r = part->siu();
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().inserted, 0u);
  }
}

}  // namespace
}  // namespace debar::core
