#include "index/recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "core/backup_engine.hpp"

namespace debar::index {
namespace {

storage::Container make_container(std::uint64_t fp_base, std::size_t chunks) {
  storage::Container c(256 * 1024);
  for (std::size_t i = 0; i < chunks; ++i) {
    const Fingerprint fp = Sha1::hash_counter(fp_base + i);
    const auto payload = core::BackupEngine::synthetic_payload(fp, 512);
    c.try_append(fp, ByteSpan(payload.data(), payload.size()));
  }
  return c;
}

TEST(IndexRecoveryTest, RebuildsExactMappingFromContainers) {
  storage::ChunkRepository repo(2);
  std::vector<std::pair<Fingerprint, ContainerId>> truth;
  for (int c = 0; c < 6; ++c) {
    const std::uint64_t base = static_cast<std::uint64_t>(c) * 100;
    const ContainerId id = repo.append(make_container(base, 40));
    for (std::size_t i = 0; i < 40; ++i) {
      truth.emplace_back(Sha1::hash_counter(base + i), id);
    }
  }

  RecoveryStats stats;
  Result<DiskIndex> rebuilt = rebuild_index(
      repo, std::make_unique<storage::MemBlockDevice>(),
      {.prefix_bits = 8, .blocks_per_bucket = 2}, &stats);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().to_string();

  EXPECT_EQ(stats.containers_scanned, 6u);
  EXPECT_EQ(stats.entries_recovered, 240u);
  EXPECT_EQ(stats.duplicate_fingerprints, 0u);
  EXPECT_EQ(rebuilt.value().entry_count(), 240u);
  for (const auto& [fp, id] : truth) {
    const auto r = rebuilt.value().lookup(fp);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), id);
  }
}

TEST(IndexRecoveryTest, DuplicateFingerprintsResolveToLowestContainer) {
  storage::ChunkRepository repo(1);
  const ContainerId first = repo.append(make_container(0, 20));
  const ContainerId second = repo.append(make_container(0, 20));  // same fps
  ASSERT_LT(first, second);

  RecoveryStats stats;
  Result<DiskIndex> rebuilt = rebuild_index(
      repo, std::make_unique<storage::MemBlockDevice>(),
      {.prefix_bits = 6, .blocks_per_bucket = 2}, &stats);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(stats.duplicate_fingerprints, 20u);
  EXPECT_EQ(rebuilt.value().entry_count(), 20u);
  EXPECT_EQ(rebuilt.value().lookup(Sha1::hash_counter(0)).value(), first);
}

TEST(IndexRecoveryTest, RebuildRecoversFromScribbledIndexDevice) {
  // Disaster case: the index device survives but its contents are trash
  // (e.g. a torn multi-bucket SIU flush). Recovery must not trust it at
  // all — the rebuilt index comes from the containers alone.
  storage::ChunkRepository repo(2);
  std::vector<std::pair<Fingerprint, ContainerId>> truth;
  for (int c = 0; c < 4; ++c) {
    const std::uint64_t base = static_cast<std::uint64_t>(c) * 1000;
    const ContainerId id = repo.append(make_container(base, 32));
    for (std::size_t i = 0; i < 32; ++i) {
      truth.emplace_back(Sha1::hash_counter(base + i), id);
    }
  }

  const DiskIndexParams params{.prefix_bits = 7, .blocks_per_bucket = 2};
  Result<DiskIndex> live = rebuild_index(
      repo, std::make_unique<storage::MemBlockDevice>(), params);
  ASSERT_TRUE(live.ok());

  // Scribble random bytes over every bucket of the live index device.
  Xoshiro256 rng(0xBADF00D);
  std::vector<Byte> junk(live.value().params().bucket_bytes());
  for (std::uint64_t b = 0; b < live.value().params().bucket_count(); ++b) {
    for (Byte& byte : junk) byte = static_cast<Byte>(rng.below(256));
    ASSERT_TRUE(
        live.value()
            .device()
            .write(b * junk.size(), ByteSpan(junk.data(), junk.size()))
            .ok());
  }

  // The scribbled index no longer answers correctly for all of truth...
  std::size_t intact = 0;
  for (const auto& [fp, id] : truth) {
    const auto r = live.value().lookup(fp);
    if (r.ok() && r.value() == id) ++intact;
  }
  EXPECT_LT(intact, truth.size());

  // ...but a rebuild from the repository restores the exact mapping.
  RecoveryStats stats;
  Result<DiskIndex> rebuilt = rebuild_index(
      repo, std::make_unique<storage::MemBlockDevice>(), params, &stats);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.error().to_string();
  EXPECT_EQ(stats.containers_scanned, 4u);
  EXPECT_EQ(stats.entries_recovered, truth.size());
  EXPECT_EQ(stats.duplicate_fingerprints, 0u);
  EXPECT_EQ(rebuilt.value().entry_count(), truth.size());
  for (const auto& [fp, id] : truth) {
    const auto r = rebuilt.value().lookup(fp);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), id);
  }
}

TEST(IndexRecoveryTest, TieBreakWinnerStillServesRestores) {
  // Pin the "lowest container ID wins" tie-break end to end: when the
  // same fingerprint lives in two containers, the rebuilt index must
  // point at the lower ID AND that container must serve the exact chunk
  // bytes, so restores keep working after recovery.
  storage::ChunkRepository repo(1);
  const ContainerId first = repo.append(make_container(0, 16));
  const ContainerId second = repo.append(make_container(0, 16));
  ASSERT_LT(first, second);

  Result<DiskIndex> rebuilt = rebuild_index(
      repo, std::make_unique<storage::MemBlockDevice>(),
      {.prefix_bits = 6, .blocks_per_bucket = 2});
  ASSERT_TRUE(rebuilt.ok());

  for (std::uint64_t i = 0; i < 16; ++i) {
    const Fingerprint fp = Sha1::hash_counter(i);
    const auto mapped = rebuilt.value().lookup(fp);
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ(mapped.value(), first);

    // Restore path: fetch the mapped container, find the chunk, verify
    // it is byte-identical to what was backed up.
    Result<storage::Container> container = repo.read(mapped.value());
    ASSERT_TRUE(container.ok());
    const auto chunk = container.value().find(fp);
    ASSERT_TRUE(chunk.has_value());
    const auto expected = core::BackupEngine::synthetic_payload(fp, 512);
    ASSERT_EQ(chunk->size(), expected.size());
    EXPECT_TRUE(std::equal(chunk->begin(), chunk->end(), expected.begin()));
  }
}

TEST(IndexRecoveryTest, EmptyRepositoryYieldsEmptyIndex) {
  storage::ChunkRepository repo(1);
  Result<DiskIndex> rebuilt = rebuild_index(
      repo, std::make_unique<storage::MemBlockDevice>(),
      {.prefix_bits = 6, .blocks_per_bucket = 1});
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.value().entry_count(), 0u);
}

TEST(IndexRecoveryTest, RecoveredIndexMatchesLiveIndexAfterRealBackups) {
  // Full-system disaster drill: run backups, destroy the index, rebuild
  // it from the repository, and check every mapping agrees.
  storage::ChunkRepository repo(2);
  core::Director director;
  core::BackupServerConfig cfg;
  cfg.index_params = {.prefix_bits = 8, .blocks_per_bucket = 2};
  cfg.chunk_store.siu_threshold = 1;
  core::BackupServer server(0, cfg, &repo, &director);
  core::BackupEngine engine("client", &director);

  const std::uint64_t job = director.define_job("client", "d");
  core::FileStore& fs = server.file_store();
  fs.begin_job(job);
  fs.begin_file({.path = "s", .size = 300 * 1024, .mtime = 0, .mode = 0644});
  std::vector<Fingerprint> fps;
  for (std::uint64_t i = 0; i < 300; ++i) {
    const Fingerprint fp = Sha1::hash_counter(i);
    fps.push_back(fp);
    if (fs.offer_fingerprint(fp, 1024)) {
      const auto payload = core::BackupEngine::synthetic_payload(fp, 1024);
      ASSERT_TRUE(
          fs.receive_chunk(fp, ByteSpan(payload.data(), payload.size())).ok());
    }
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());
  ASSERT_TRUE(server.run_dedup2(true).ok());

  Result<DiskIndex> rebuilt = rebuild_index(
      repo, std::make_unique<storage::MemBlockDevice>(),
      cfg.index_params);
  ASSERT_TRUE(rebuilt.ok());
  for (const Fingerprint& fp : fps) {
    const auto live = server.chunk_store().index().lookup(fp);
    const auto recovered = rebuilt.value().lookup(fp);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(live.value(), recovered.value());
  }
}

}  // namespace
}  // namespace debar::index
