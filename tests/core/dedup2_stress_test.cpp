// Concurrency stress for the parallel dedup-2 pipeline. Randomized,
// duplicate-heavy chunk streams drive many overlapping SIL/store/SIU
// rounds at several thread counts; meant to run under
// DEBAR_SANITIZE=thread (the `tsan` preset) where any data race between
// the sharded SIL workers, the store stage, and the pending set aborts
// the test.
#include <gtest/gtest.h>

#include <random>

#include "common/sha1.hpp"
#include "core/backup_server.hpp"

namespace debar::core {
namespace {

Fingerprint fp(std::uint64_t i) { return Sha1::hash_counter(i); }

BackupServerConfig stress_config(std::size_t threads) {
  BackupServerConfig cfg;
  cfg.index_params = {.prefix_bits = 7, .blocks_per_bucket = 1};
  cfg.filter_params = {.hash_bits = 8, .capacity = 50000};
  cfg.chunk_store.cache_params = {.hash_bits = 6, .capacity = 24};
  cfg.chunk_store.io_buckets = 8;
  cfg.chunk_store.siu_threshold = 1 << 20;
  cfg.chunk_store.dedup2.threads = threads;
  return cfg;
}

TEST(Dedup2StressTest, DuplicateHeavyShardsUnderManyThreads) {
  std::mt19937 rng(20090417);  // fixed seed: deterministic stream shape
  std::uniform_int_distribution<std::uint64_t> hot(0, 40);
  // Payload is a pure function of the fingerprint counter, as dedup
  // semantics require.
  const auto payload_of = [](std::uint64_t i) {
    return std::vector<Byte>(64 + (i % 37) * 16, static_cast<Byte>(i % 251));
  };

  for (const std::size_t threads : {2u, 4u, 8u}) {
    storage::ChunkRepository repo(2);
    Director director;
    BackupServer server(0, stress_config(threads), &repo, &director);
    const std::uint64_t job = director.define_job("stress", "d");

    std::uint64_t next_fresh = 1000;
    for (int round = 0; round < 6; ++round) {
      FileStore& fs = server.file_store();
      fs.begin_job(job);
      fs.begin_file({.path = "r.dat", .size = 0, .mtime = 0, .mode = 0644});
      // ~2/3 of the stream hammers a tiny hot set (duplicate-heavy
      // shards: many fingerprints collapse onto few index buckets and
      // onto the pending set from earlier rounds), the rest is fresh.
      for (int k = 0; k < 150; ++k) {
        const bool dup = rng() % 3 != 0;
        const std::uint64_t i = dup ? hot(rng) : next_fresh++;
        const std::vector<Byte> payload = payload_of(i);
        if (fs.offer_fingerprint(fp(i), payload.size())) {
          ASSERT_TRUE(
              fs.receive_chunk(fp(i),
                               ByteSpan(payload.data(), payload.size()))
                  .ok());
        }
      }
      fs.end_file();
      ASSERT_TRUE(fs.end_job().ok());

      // Alternate deferred and forced SIU so SIL rounds race against a
      // hot pending set as often as a populated disk index.
      const auto r = server.run_dedup2(/*force_siu=*/round % 2 == 1);
      ASSERT_TRUE(r.ok()) << r.error().to_string();
    }
    const auto final_round = server.run_dedup2(/*force_siu=*/true);
    ASSERT_TRUE(final_round.ok());
    EXPECT_EQ(server.chunk_store().pending_count(), 0u);

    // Every fingerprint ever offered must restore to its exact payload.
    for (std::uint64_t i = 0; i <= 40; ++i) {
      const auto chunk = server.chunk_store().read_chunk(fp(i));
      ASSERT_TRUE(chunk.ok()) << "hot " << i;
      EXPECT_EQ(chunk.value().front(), static_cast<Byte>(i % 251));
    }
    for (std::uint64_t i = 1000; i < next_fresh; ++i) {
      ASSERT_TRUE(server.chunk_store().read_chunk(fp(i)).ok()) << i;
    }
  }
}

}  // namespace
}  // namespace debar::core
