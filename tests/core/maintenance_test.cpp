// MaintenanceJob, single-server form (DESIGN.md §5k): retention-driven
// expiry, mark-and-sweep reclamation, restore-locality compaction, and
// the plan/execute/report job API that replaced the old collect_garbage /
// defragment_version free functions.
#include "core/maintenance.hpp"

#include <gtest/gtest.h>

#include "common/sha1.hpp"
#include "core/backup_engine.hpp"

namespace debar::core {
namespace {

class MaintenanceTest : public ::testing::Test {
 protected:
  MaintenanceTest()
      : repo_(4), server_(0, make_config(), &repo_, &director_) {}

  static BackupServerConfig make_config() {
    BackupServerConfig cfg;
    cfg.index_params = {.prefix_bits = 8, .blocks_per_bucket = 2};
    cfg.chunk_store.siu_threshold = 1;
    // Small containers: fine-grained sweep units, and a version spans
    // several containers (and hence round-robin nodes).
    cfg.container_capacity = 64 * 1024;
    return cfg;
  }

  JobVersionRecord backup_stream(std::uint64_t job,
                                 const std::vector<Fingerprint>& fps,
                                 BackupServer* via = nullptr) {
    BackupServer& server = via != nullptr ? *via : server_;
    FileStore& fs = server.file_store();
    fs.begin_job(job);
    fs.begin_file({.path = "s", .size = fps.size() * 4096, .mtime = 0,
                   .mode = 0644});
    for (const Fingerprint& f : fps) {
      if (fs.offer_fingerprint(f, 4096)) {
        const auto payload = BackupEngine::synthetic_payload(f, 4096);
        EXPECT_TRUE(
            fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
      }
    }
    fs.end_file();
    auto rec = fs.end_job();
    EXPECT_TRUE(rec.ok());
    EXPECT_TRUE(server.run_dedup2(true).ok());
    return rec.value();
  }

  std::vector<Fingerprint> fps(std::uint64_t from, std::uint64_t count) {
    std::vector<Fingerprint> out;
    for (std::uint64_t i = 0; i < count; ++i) {
      out.push_back(Sha1::hash_counter(from + i));
    }
    return out;
  }

  storage::ChunkRepository repo_;
  Director director_;
  BackupServer server_;
};

TEST_F(MaintenanceTest, NoopWhenNothingExpires) {
  const std::uint64_t job = director_.define_job("c", "d");
  backup_stream(job, fps(0, 100));
  const std::uint64_t bytes_before = repo_.stored_bytes();

  MaintenanceJob gc(director_, server_, repo_, {.locality = false});
  ASSERT_TRUE(gc.execute().ok());
  EXPECT_EQ(gc.report().versions_expired, 0u);
  EXPECT_EQ(gc.report().containers_deleted, 0u);
  EXPECT_EQ(gc.report().bytes_reclaimed, 0u);
  EXPECT_EQ(gc.report().dead_chunks, 0u);
  EXPECT_EQ(gc.report().live_chunks, 100u);
  EXPECT_EQ(repo_.stored_bytes(), bytes_before);
}

TEST_F(MaintenanceTest, ExpiredOnlyVersionReclaimsEverything) {
  const std::uint64_t job = director_.define_job("c", "d");
  backup_stream(job, fps(0, 100));
  ASSERT_TRUE(director_.drop_version(job, 1).ok());

  MaintenanceJob gc(director_, server_, repo_, {.locality = false});
  ASSERT_TRUE(gc.execute().ok());
  EXPECT_GT(gc.report().containers_deleted, 0u);
  EXPECT_EQ(gc.report().live_chunks, 0u);
  EXPECT_EQ(repo_.stored_bytes(), 0u);
  EXPECT_EQ(repo_.container_count(), 0u);
  // The rebuilt index no longer claims the reclaimed fingerprints.
  EXPECT_EQ(server_.chunk_store().index().entry_count(), 0u);
  EXPECT_FALSE(server_.chunk_store().locate(Sha1::hash_counter(0)).ok());
}

TEST_F(MaintenanceTest, KeepLastExpiresOldAndKeepsSharedChunks) {
  Director director(DirectorConfig{.retention = {.keep_last = 1}});
  BackupServer server(0, make_config(), &repo_, &director);
  const std::uint64_t job = director.define_job("c", "d");
  // v1: chunks 0..99. v2: chunks 50..149 (shares 50..99 with v1).
  backup_stream(job, fps(0, 100), &server);
  backup_stream(job, fps(50, 100), &server);

  MaintenanceJob gc(director, server, repo_, {.locality = false});
  ASSERT_TRUE(gc.execute().ok());
  // Retention expired v1; chunks 0..49 die, 50..149 live on via v2.
  EXPECT_EQ(gc.report().versions_expired, 1u);
  EXPECT_EQ(gc.report().dead_chunks, 50u);
  EXPECT_EQ(gc.report().live_chunks, 100u);

  BackupEngine engine("c", &director);
  const auto restored = engine.restore(job, 2, server, /*verify=*/true);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(restored.value().files[0].content.size(), 100u * 4096);
  // The expired version is gone for good.
  EXPECT_FALSE(engine.restore(job, 1, server).ok());
}

TEST_F(MaintenanceTest, KeepDaysAgesVersionsOutButNeverTheLatest) {
  Director director(DirectorConfig{.retention = {.keep_days = 7}});
  BackupServer server(0, make_config(), &repo_, &director);
  const std::uint64_t job = director.define_job("c", "d");
  director.set_current_day(1);
  backup_stream(job, fps(0, 60), &server);  // v1, day 1
  director.set_current_day(5);
  backup_stream(job, fps(30, 60), &server);  // v2, day 5
  director.set_current_day(20);

  // As of day 20 both versions are older than 7 days, but the latest of a
  // chain is never expired (the job chain's filtering fingerprints and the
  // next incremental depend on it).
  const auto expired = director.expired_versions(20);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], (std::pair<std::uint64_t, std::uint32_t>{job, 1}));

  MaintenanceJob gc(director, server, repo_, {.locality = false});
  ASSERT_TRUE(gc.execute().ok());
  EXPECT_EQ(gc.report().versions_expired, 1u);
  EXPECT_EQ(gc.report().dead_chunks, 30u);  // 0..29 only lived in v1

  BackupEngine engine("c", &director);
  const auto restored = engine.restore(job, 2, server, /*verify=*/true);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
}

TEST_F(MaintenanceTest, DirectorSchedulesMaintenanceOnItsPeriod) {
  Director director(
      DirectorConfig{.retention = {.keep_last = 2},
                     .maintenance_period_days = 7});
  EXPECT_FALSE(director.maintenance_due(6));
  EXPECT_TRUE(director.maintenance_due(7));

  BackupServer server(0, make_config(), &repo_, &director);
  const std::uint64_t job = director.define_job("c", "d");
  backup_stream(job, fps(0, 40), &server);
  director.set_current_day(7);

  // A completed round advances the cadence clock (execute calls
  // note_maintenance with the day it evaluated retention against).
  MaintenanceJob gc(director, server, repo_, {.locality = false});
  ASSERT_TRUE(gc.execute().ok());
  EXPECT_FALSE(director.maintenance_due(7));
  EXPECT_FALSE(director.maintenance_due(13));
  EXPECT_TRUE(director.maintenance_due(14));

  // A period of 0 disables director-driven scheduling entirely.
  Director manual_only;
  EXPECT_FALSE(manual_only.maintenance_due(1000));
}

TEST_F(MaintenanceTest, PlanPreviewsWithoutMutating) {
  Director director(DirectorConfig{.retention = {.keep_last = 1}});
  BackupServer server(0, make_config(), &repo_, &director);
  const std::uint64_t job = director.define_job("c", "d");
  backup_stream(job, fps(0, 100), &server);
  backup_stream(job, fps(50, 100), &server);
  const std::uint64_t bytes_before = repo_.stored_bytes();
  const std::uint64_t containers_before = repo_.container_count();

  MaintenanceJob gc(director, server, repo_);
  const auto plan = gc.plan();
  ASSERT_TRUE(plan.ok()) << plan.error().to_string();
  ASSERT_EQ(plan.value().expire.size(), 1u);
  EXPECT_EQ(plan.value().expire[0],
            (std::pair<std::uint64_t, std::uint32_t>{job, 1}));
  EXPECT_EQ(plan.value().live_versions, 1u);
  EXPECT_EQ(plan.value().live_chunks, 100u);
  // The surviving version spans all four storage nodes, so the locality
  // pass would re-sequence it.
  ASSERT_EQ(plan.value().rewrite.size(), 1u);
  EXPECT_EQ(plan.value().rewrite[0],
            (std::pair<std::uint64_t, std::uint32_t>{job, 2}));

  // Pure preview: nothing dropped, nothing reclaimed, index untouched.
  EXPECT_EQ(director.version_count(job), 2u);
  EXPECT_EQ(repo_.stored_bytes(), bytes_before);
  EXPECT_EQ(repo_.container_count(), containers_before);
}

TEST_F(MaintenanceTest, CompactionRewritesMostlyDeadContainers) {
  const std::uint64_t job1 = director_.define_job("a", "d");
  const std::uint64_t job2 = director_.define_job("b", "d");
  // Interleave two jobs' chunks into the same containers by backing them
  // up as one alternating stream under job1, then referencing the even
  // half from job2.
  std::vector<Fingerprint> all = fps(0, 200);
  backup_stream(job1, all);
  std::vector<Fingerprint> evens;
  for (std::size_t i = 0; i < all.size(); i += 4) evens.push_back(all[i]);
  backup_stream(job2, evens);  // 25% of the chunks stay live via job2

  ASSERT_TRUE(director_.drop_version(job1, 1).ok());
  MaintenanceJob gc(director_, server_, repo_,
                    {.locality = false, .compact_threshold = 0.5});
  ASSERT_TRUE(gc.execute().ok());
  EXPECT_GT(gc.report().containers_compacted, 0u);
  EXPECT_GT(gc.report().bytes_reclaimed, 0u);
  EXPECT_EQ(gc.report().live_chunks, evens.size());

  // job2's data survives compaction and the index rebuild.
  BackupEngine engine("b", &director_);
  const auto restored = engine.restore(job2, 1, server_, true);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(restored.value().files[0].content.size(), evens.size() * 4096);
}

TEST_F(MaintenanceTest, LocalityPassAggregatesAndReclaimsOldCopies) {
  const std::uint64_t job = director_.define_job("c", "d");
  const std::vector<Fingerprint> stream = fps(0, 150);
  backup_stream(job, stream);
  const std::uint64_t bytes_before = repo_.stored_bytes();

  // Default config: the locality pass re-sequences versions touching more
  // than one storage node, pinned to node 0, and the same round's sweep
  // reclaims the old copies — no garbage duplicates left behind.
  MaintenanceJob gc(director_, server_, repo_, {});
  ASSERT_TRUE(gc.execute().ok());
  EXPECT_EQ(gc.report().versions_rewritten, 1u);
  EXPECT_EQ(gc.report().chunks_rewritten, 150u);
  EXPECT_EQ(gc.report().locality_before.nodes_touched, 4u);
  EXPECT_EQ(gc.report().locality_after.nodes_touched, 1u);
  EXPECT_GT(gc.report().containers_deleted, 0u);
  EXPECT_EQ(repo_.stored_bytes(), bytes_before);  // one copy per chunk

  // Every chunk resolves to a container on the target node now.
  for (const Fingerprint& fp : stream) {
    const auto cid = server_.chunk_store().locate(fp);
    ASSERT_TRUE(cid.ok());
    EXPECT_EQ(repo_.node_of(cid.value()), 0u);
  }
  BackupEngine engine("c", &director_);
  const auto verify = engine.verify(job, 1, server_);
  ASSERT_TRUE(verify.ok());
  EXPECT_TRUE(verify.value().clean());
}

TEST_F(MaintenanceTest, LocalityPassImprovesReadLocalityOfSharedVersions) {
  // A version whose chunks are shared across several earlier versions is
  // fragmented; after the locality pass the containers-per-1k metric of
  // the rewritten set drops.
  const std::uint64_t j1 = director_.define_job("c1", "d");
  const std::uint64_t j2 = director_.define_job("c2", "d");
  const std::uint64_t j3 = director_.define_job("c3", "d");

  std::vector<Fingerprint> a, b, mixed;
  for (std::uint64_t i = 0; i < 60; ++i) a.push_back(Sha1::hash_counter(i));
  for (std::uint64_t i = 60; i < 120; ++i) b.push_back(Sha1::hash_counter(i));
  backup_stream(j1, a);
  backup_stream(j2, b);
  // Interleave references to both earlier versions.
  for (std::uint64_t i = 0; i < 60; ++i) {
    mixed.push_back(a[i]);
    mixed.push_back(b[i]);
  }
  backup_stream(j3, mixed);

  MaintenanceJob gc(director_, server_, repo_, {});
  ASSERT_TRUE(gc.execute().ok());
  EXPECT_GT(gc.report().versions_rewritten, 0u);
  EXPECT_LT(gc.report().locality_after.containers_per_1k_chunks,
            gc.report().locality_before.containers_per_1k_chunks);

  // All three versions still verify chunk-by-chunk.
  for (auto [client, job] : {std::pair{"c1", j1}, {"c2", j2}, {"c3", j3}}) {
    BackupEngine engine(client, &director_);
    const auto verify = engine.verify(job, 1, server_);
    ASSERT_TRUE(verify.ok());
    EXPECT_TRUE(verify.value().clean()) << client;
  }
}

TEST_F(MaintenanceTest, PendingSiuIsRetryableBusy) {
  BackupServerConfig cfg = make_config();
  cfg.chunk_store.siu_threshold = 1 << 30;
  BackupServer deferred(1, cfg, &repo_, &director_);
  const std::uint64_t job = director_.define_job("c", "d");
  backup_stream(job, fps(0, 20), &deferred);
  // backup_stream forces SIU; defer a second generation's entries.
  FileStore& fs = deferred.file_store();
  fs.begin_job(job);
  fs.begin_file({.path = "s", .size = 4096, .mtime = 0, .mode = 0644});
  const Fingerprint f = Sha1::hash_counter(1000);
  if (fs.offer_fingerprint(f, 4096)) {
    const auto payload = BackupEngine::synthetic_payload(f, 4096);
    ASSERT_TRUE(
        fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());
  ASSERT_TRUE(deferred.run_dedup2(/*force_siu=*/false).ok());
  ASSERT_GT(deferred.chunk_store().pending_count(), 0u);

  // A version is visible the moment dedup-1 ends, but its fresh chunks'
  // container assignment is in flight until SIU commits — maintenance
  // refuses with the RETRYABLE kBusy (not a permanent error).
  MaintenanceJob gc(director_, deferred, repo_);
  Status busy = gc.execute();
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.code(), Errc::kBusy);
  EXPECT_EQ(gc.plan().error().code, Errc::kBusy);

  // Retry after the forced SIU round drains the pending set: succeeds.
  ASSERT_TRUE(deferred.run_dedup2(/*force_siu=*/true).ok());
  ASSERT_TRUE(gc.execute().ok());
}

TEST_F(MaintenanceTest, ParallelDedup2PendingSiuIsBusy) {
  // Property (ISSUE 9): GC must refuse while a PARALLEL dedup-2 pipeline
  // has pending SIU entries, same as the serial path.
  BackupServerConfig cfg = make_config();
  cfg.chunk_store.siu_threshold = 1 << 30;
  cfg.chunk_store.dedup2 = {.threads = 4};
  BackupServer parallel(1, cfg, &repo_, &director_);
  const std::uint64_t job = director_.define_job("c", "d");
  FileStore& fs = parallel.file_store();
  fs.begin_job(job);
  fs.begin_file({.path = "s", .size = 200 * 4096, .mtime = 0, .mode = 0644});
  for (const Fingerprint& f : fps(0, 200)) {
    if (fs.offer_fingerprint(f, 4096)) {
      const auto payload = BackupEngine::synthetic_payload(f, 4096);
      ASSERT_TRUE(
          fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
    }
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());
  ASSERT_TRUE(parallel.run_dedup2(/*force_siu=*/false).ok());
  ASSERT_GT(parallel.chunk_store().pending_count(), 0u);

  MaintenanceJob gc(director_, parallel, repo_);
  Status busy = gc.execute();
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.code(), Errc::kBusy);

  ASSERT_TRUE(parallel.run_dedup2(/*force_siu=*/true).ok());
  ASSERT_TRUE(gc.execute().ok());
  BackupEngine engine("c", &director_);
  ASSERT_TRUE(engine.restore(job, 1, parallel, /*verify=*/true).ok());
}

TEST_F(MaintenanceTest, RoutedIndexPartIsPermanentlyUnsupported) {
  // The single-server form cannot see the rest of a routed fingerprint
  // space — pointing it at a cluster member is a caller bug, not a
  // transient state, so the error is kUnsupported rather than kBusy.
  BackupServerConfig cfg = make_config();
  cfg.index_params.skip_bits = 2;
  BackupServer routed(1, cfg, &repo_, &director_);
  MaintenanceJob gc(director_, routed, repo_);
  Status s = gc.execute();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::kUnsupported);
  EXPECT_EQ(gc.plan().error().code, Errc::kUnsupported);
}

TEST_F(MaintenanceTest, VersionNumberingAfterDrops) {
  const std::uint64_t job = director_.define_job("c", "d");
  backup_stream(job, fps(0, 10));   // v1
  backup_stream(job, fps(10, 10));  // v2
  backup_stream(job, fps(20, 10));  // v3
  // Dropping a MIDDLE version must not shift numbering: next is still 4
  // (count-based numbering would collide with the live v3 here).
  ASSERT_TRUE(director_.drop_version(job, 2).ok());
  EXPECT_EQ(director_.next_version(job), 4u);
  // A maintenance round reclaiming the dropped chunks changes nothing
  // about the numbering.
  MaintenanceJob gc(director_, server_, repo_, {.locality = false});
  ASSERT_TRUE(gc.execute().ok());
  EXPECT_EQ(gc.report().dead_chunks, 10u);
  EXPECT_EQ(director_.next_version(job), 4u);
  // Dropping the LATEST frees its slot; the tombstone-then-append replay
  // order keeps a re-used number consistent across recovery.
  ASSERT_TRUE(director_.drop_version(job, 3).ok());
  EXPECT_EQ(director_.next_version(job), 2u);
  backup_stream(job, fps(30, 10));  // new v2
  EXPECT_EQ(director_.next_version(job), 3u);
}

}  // namespace
}  // namespace debar::core
