#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include "common/sha1.hpp"

namespace debar::core {
namespace {

ClusterConfig small_cluster(unsigned w) {
  ClusterConfig cfg;
  cfg.routing_bits = w;
  cfg.repository_nodes = 2;
  cfg.server_config.index_params = {.prefix_bits = 6, .blocks_per_bucket = 2};
  cfg.server_config.filter_params = {.hash_bits = 8, .capacity = 100000};
  cfg.server_config.chunk_store.cache_params = {.hash_bits = 4,
                                                .capacity = 1000000};
  cfg.server_config.chunk_store.io_buckets = 8;
  cfg.server_config.chunk_store.siu_threshold = 1;
  return cfg;
}

Fingerprint fp(std::uint64_t i) { return Sha1::hash_counter(i); }

void backup_stream(Cluster& cluster, std::size_t server,
                   std::uint64_t job, const std::vector<Fingerprint>& fps) {
  FileStore& fs = cluster.server(server).file_store();
  fs.begin_job(job);
  fs.begin_file({.path = "s", .size = fps.size() * 512, .mtime = 0,
                 .mode = 0644});
  const std::vector<Byte> payload(512, 0x77);
  for (const Fingerprint& f : fps) {
    if (fs.offer_fingerprint(f, 512)) {
      ASSERT_TRUE(
          fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
    }
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());
}

TEST(ClusterTest, ConstructionSetsRoutingBits) {
  Cluster cluster(small_cluster(2));
  EXPECT_EQ(cluster.server_count(), 4u);
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_EQ(cluster.server(k)
                  .chunk_store()
                  .index()
                  .params()
                  .skip_bits,
              2u);
  }
}

TEST(ClusterTest, OwnerRoutingMatchesPrefix) {
  Cluster cluster(small_cluster(2));
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(cluster.owner_of(fp(i)), fp(i).prefix_bits(2));
  }
}

TEST(ClusterTest, ParallelDedup2StoresEverythingOnce) {
  Cluster cluster(small_cluster(1));
  const std::uint64_t j0 = cluster.director().define_job("c0", "d0");
  const std::uint64_t j1 = cluster.director().define_job("c1", "d1");

  std::vector<Fingerprint> s0, s1;
  for (std::uint64_t i = 0; i < 30; ++i) s0.push_back(fp(i));
  for (std::uint64_t i = 30; i < 60; ++i) s1.push_back(fp(i));

  backup_stream(cluster, 0, j0, s0);
  backup_stream(cluster, 1, j1, s1);

  const auto result = cluster.run_dedup2(/*force_siu=*/true);
  ASSERT_TRUE(result.ok()) << result.error().to_string();
  EXPECT_EQ(result.value().undetermined, 60u);
  EXPECT_EQ(result.value().new_chunks, 60u);
  EXPECT_TRUE(result.value().ran_siu);

  // Every fingerprint is registered in exactly its owner's index part.
  std::uint64_t total_entries = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    total_entries += cluster.server(k).chunk_store().index().entry_count();
  }
  EXPECT_EQ(total_entries, 60u);
}

TEST(ClusterTest, CrossStreamDuplicatesStoredOnce) {
  // Both servers back up overlapping streams in the same round: the
  // owner-side designation must prevent double storage.
  Cluster cluster(small_cluster(1));
  const std::uint64_t j0 = cluster.director().define_job("c0", "d0");
  const std::uint64_t j1 = cluster.director().define_job("c1", "d1");

  std::vector<Fingerprint> shared;
  for (std::uint64_t i = 0; i < 40; ++i) shared.push_back(fp(i));

  backup_stream(cluster, 0, j0, shared);
  backup_stream(cluster, 1, j1, shared);

  const auto result = cluster.run_dedup2(true);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().new_chunks, 40u);  // not 80
  EXPECT_EQ(result.value().duplicates, 40u);  // the second copies

  std::uint64_t total_entries = 0;
  for (std::size_t k = 0; k < 2; ++k) {
    total_entries += cluster.server(k).chunk_store().index().entry_count();
  }
  EXPECT_EQ(total_entries, 40u);
}

TEST(ClusterTest, SecondRoundDeduplicatesAcrossRounds) {
  Cluster cluster(small_cluster(2));
  const std::uint64_t job = cluster.director().define_job("c", "d");
  std::vector<Fingerprint> stream;
  for (std::uint64_t i = 0; i < 50; ++i) stream.push_back(fp(i));

  backup_stream(cluster, 0, job, stream);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());
  const std::uint64_t containers = cluster.repository().container_count();

  backup_stream(cluster, 1, job, stream);  // same data via another server
  const auto r2 = cluster.run_dedup2(true);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().new_chunks, 0u);
  EXPECT_EQ(cluster.repository().container_count(), containers);
}

TEST(ClusterTest, RestoreThroughAnyServer) {
  Cluster cluster(small_cluster(2));
  const std::uint64_t job = cluster.director().define_job("c", "d");
  std::vector<Fingerprint> stream;
  for (std::uint64_t i = 0; i < 25; ++i) stream.push_back(fp(i));
  backup_stream(cluster, 1, job, stream);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  for (std::size_t via : {std::size_t{0}, std::size_t{3}}) {
    const auto restored = cluster.restore(job, 1, via);
    ASSERT_TRUE(restored.ok()) << restored.error().to_string();
    ASSERT_EQ(restored.value().files.size(), 1u);
    EXPECT_EQ(restored.value().files[0].content.size(), 25u * 512);
  }
}

TEST(ClusterTest, ReadChunkRoutesToOwner) {
  Cluster cluster(small_cluster(2));
  const std::uint64_t job = cluster.director().define_job("c", "d");
  std::vector<Fingerprint> stream = {fp(1), fp(2), fp(3)};
  backup_stream(cluster, 0, job, stream);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  for (const Fingerprint& f : stream) {
    const auto chunk = cluster.read_chunk(2, f);
    ASSERT_TRUE(chunk.ok()) << chunk.error().to_string();
    EXPECT_EQ(chunk.value().size(), 512u);
  }
}

TEST(ClusterTest, PendingWithoutSiuStillDeduplicates) {
  ClusterConfig cfg = small_cluster(1);
  cfg.server_config.chunk_store.siu_threshold = 1000000;
  Cluster cluster(cfg);
  const std::uint64_t job = cluster.director().define_job("c", "d");
  std::vector<Fingerprint> stream;
  for (std::uint64_t i = 0; i < 20; ++i) stream.push_back(fp(i));

  backup_stream(cluster, 0, job, stream);
  const auto r1 = cluster.run_dedup2(/*force_siu=*/false);
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.value().ran_siu);

  backup_stream(cluster, 1, job, stream);
  const auto r2 = cluster.run_dedup2(false);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().new_chunks, 0u);  // pending sets caught everything
}

TEST(ClusterTest, PhaseTimesPopulated) {
  Cluster cluster(small_cluster(1));
  const std::uint64_t job = cluster.director().define_job("c", "d");
  std::vector<Fingerprint> stream;
  for (std::uint64_t i = 0; i < 30; ++i) stream.push_back(fp(i));
  backup_stream(cluster, 0, job, stream);

  const auto r = cluster.run_dedup2(true);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.value().sil_seconds, 0.0);
  EXPECT_GT(r.value().store_seconds, 0.0);
  EXPECT_GT(r.value().siu_seconds, 0.0);
  EXPECT_GT(r.value().total_seconds(), 0.0);
}

TEST(ClusterTest, SingleServerClusterDegeneratesGracefully) {
  Cluster cluster(small_cluster(0));
  EXPECT_EQ(cluster.server_count(), 1u);
  const std::uint64_t job = cluster.director().define_job("c", "d");
  std::vector<Fingerprint> stream = {fp(1), fp(2)};
  backup_stream(cluster, 0, job, stream);
  const auto r = cluster.run_dedup2(true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().new_chunks, 2u);
}

TEST(ClusterTest, JobMovingServersBeforeDedup2KeepsEveryChunk) {
  // Version 1 of a job lands on server 1 and version 2 (the same chunks)
  // on server 0 before any dedup-2 round. Seeding version 2's filter
  // from version 1 would leave server 0 queuing fingerprints whose
  // payloads only server 1's log holds — and PSIL names the smaller
  // origin, server 0, the storer. Every chunk must still be stored once
  // and both versions must restore through every server.
  Cluster cluster(small_cluster(1));
  const std::uint64_t job = cluster.director().define_job("c", "d");
  BackupEngine engine("c", &cluster.director());
  std::vector<Fingerprint> stream;
  for (std::uint64_t i = 0; i < 60; ++i) stream.push_back(fp(1000 + i));
  ASSERT_TRUE(engine
                  .run_backup_stream(job, stream,
                                     cluster.server(1).file_store(), 512)
                  .ok());
  ASSERT_TRUE(engine
                  .run_backup_stream(job, stream,
                                     cluster.server(0).file_store(), 512)
                  .ok());

  Result<ClusterDedup2Result> round = cluster.run_dedup2(true);
  ASSERT_TRUE(round.ok()) << round.error().to_string();
  EXPECT_EQ(round.value().new_chunks, stream.size());

  std::vector<Byte> expected;
  for (const Fingerprint& f : stream) {
    const auto payload = BackupEngine::synthetic_payload(f, 512);
    expected.insert(expected.end(), payload.begin(), payload.end());
  }
  for (std::uint32_t version = 1; version <= 2; ++version) {
    for (std::size_t via = 0; via < cluster.server_count(); ++via) {
      Result<Dataset> restored = cluster.restore(job, version, via);
      ASSERT_TRUE(restored.ok()) << "v" << version << " via " << via << ": "
                                 << restored.error().to_string();
      ASSERT_EQ(restored.value().files.size(), 1u);
      EXPECT_EQ(restored.value().files[0].content, expected);
    }
  }
}

TEST(ClusterTest, UnresolvedVersionPinsItsJobToItsServer) {
  // The director keeps a job on the server holding its latest version
  // until a round commits that version there.
  Cluster cluster(small_cluster(1));
  const std::uint64_t job = cluster.director().define_job("c", "d");
  BackupEngine engine("c", &cluster.director());
  const std::vector<Fingerprint> stream = {fp(1), fp(2), fp(3)};
  ASSERT_TRUE(engine
                  .run_backup_stream(job, stream,
                                     cluster.server(1).file_store(), 512)
                  .ok());
  EXPECT_EQ(cluster.director().unresolved_holder(job), std::size_t{1});
  EXPECT_EQ(cluster.director().assign_server(job, 1 << 20, 2), 1u);
  EXPECT_EQ(cluster.director().assign_server(job, 1 << 20, 2), 1u);

  ASSERT_TRUE(cluster.run_dedup2(true).ok());
  EXPECT_FALSE(cluster.director().unresolved_holder(job).has_value());
  // Released: plain least-loaded assignment again.
  EXPECT_EQ(cluster.director().assign_server(job, 1, 2), 0u);
}

}  // namespace
}  // namespace debar::core
