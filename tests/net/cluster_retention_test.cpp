// Retention-driven cluster maintenance (DESIGN.md §5k): expiry + GC +
// compaction through the epoch-fenced wire protocol (GcMarkRequest /
// GcMarkReply / GcInstall). The bars, at w ∈ {1, 2}:
//
//   * every live version restores byte-identical to its pre-maintenance
//     bytes, through every server;
//   * both index copies of every partition are byte-identical after the
//     round (the INSTALL rebuild feeds both copies the same sorted
//     stream, closing GC-era replica drift — the replication contract
//     `ctest -L net-failover` enforces);
//   * the job refuses with the RETRYABLE kBusy while dedup-2 state is in
//     flight (pending SIU on any copy) or the fleet is degraded, and
//     succeeds on retry once the condition clears.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/sha1.hpp"
#include "core/cluster.hpp"
#include "core/maintenance.hpp"
#include "net/faulty_transport.hpp"
#include "net/transport_factory.hpp"
#include "storage/block_device.hpp"

namespace debar::core {
namespace {

Fingerprint fp(std::uint64_t i) { return Sha1::hash_counter(i); }

/// A cluster over a FaultyTransport (so degraded-fleet cases can switch
/// peers dark) with the small-geometry config the failover suite uses.
struct RetentionRig {
  net::FaultyTransport* faulty = nullptr;  // owned by the cluster's stack
  std::unique_ptr<Cluster> cluster;

  explicit RetentionRig(unsigned w, DirectorConfig director_config = {},
                        std::uint64_t siu_threshold = 1) {
    ClusterConfig cfg;
    cfg.routing_bits = w;
    cfg.repository_nodes = 2;
    cfg.director_config = director_config;
    cfg.server_config.index_params = {.prefix_bits = 6,
                                      .blocks_per_bucket = 2};
    cfg.server_config.filter_params = {.hash_bits = 8, .capacity = 100000};
    cfg.server_config.chunk_store.cache_params = {.hash_bits = 4,
                                                  .capacity = 1000000};
    cfg.server_config.chunk_store.io_buckets = 8;
    cfg.server_config.chunk_store.siu_threshold = siu_threshold;
    cfg.server_config.container_capacity = 64 * 1024;
    auto factory = std::make_shared<net::FaultyTransportFactory>(
        net::NetFaultConfig{});
    cfg.transport_factory = factory;
    cluster = std::make_unique<Cluster>(std::move(cfg));
    faulty = factory->last();
  }
};

void backup_stream(Cluster& cluster, std::size_t server, std::uint64_t job,
                   std::uint64_t first, std::uint64_t count) {
  FileStore& fs = cluster.server(server).file_store();
  fs.begin_job(job);
  fs.begin_file({.path = "s", .size = count * 512, .mtime = 0, .mode = 0644});
  for (std::uint64_t i = first; i < first + count; ++i) {
    const Fingerprint f = fp(i);
    if (fs.offer_fingerprint(f, 512)) {
      const auto payload = BackupEngine::synthetic_payload(f, 512);
      ASSERT_TRUE(
          fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
    }
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());
}

std::vector<Byte> flatten(const Dataset& dataset) {
  std::vector<Byte> out;
  for (const FileData& f : dataset.files) {
    out.insert(out.end(), f.content.begin(), f.content.end());
  }
  return out;
}

/// Whole-device image of an index copy, read through the generic
/// BlockDevice interface (maintenance installs land on freshly minted
/// devices, so pre-captured factory pointers would go stale).
std::vector<Byte> device_image(const index::DiskIndex& idx) {
  auto& device = const_cast<index::DiskIndex&>(idx).device();
  std::vector<Byte> image(device.size());
  if (!image.empty()) {
    const Status s = device.read(0, std::span<Byte>(image));
    EXPECT_TRUE(s.ok()) << s.to_string();
  }
  return image;
}

std::vector<Byte> copy_image(Cluster& cluster, std::size_t part,
                             std::size_t which) {
  const PartitionCopy& copy = cluster.partition_map().copy(part, which);
  const IndexPart* held =
      cluster.server(copy.server).find_part(part, copy.via_store);
  EXPECT_NE(held, nullptr) << "part " << part << " copy " << which;
  if (held == nullptr) return {};
  return device_image(held->index());
}

TEST(ClusterRetentionTest, EveryLiveVersionRestoresByteIdentical) {
  for (const unsigned w : {1u, 2u}) {
    SCOPED_TRACE(w);
    RetentionRig rig(w, {.retention = {.keep_last = 1}});
    Cluster& cluster = *rig.cluster;
    const std::uint64_t ja = cluster.director().define_job("a", "d");
    const std::uint64_t jb = cluster.director().define_job("b", "d");

    // ja v1: chunks 0..119. ja v2: 90..209 (shares 90..119 with v1, so
    // v1's containers drop well below the 0.5 compaction threshold once
    // v1 expires). jb v1: 300..379, the only version of its chain —
    // never expires.
    backup_stream(cluster, 0, ja, 0, 120);
    backup_stream(cluster, cluster.server_count() - 1, jb, 300, 80);
    ASSERT_TRUE(cluster.run_dedup2(true).ok());
    backup_stream(cluster, 0, ja, 90, 120);
    ASSERT_TRUE(cluster.run_dedup2(true).ok());

    const std::vector<Byte> a2_before = flatten(
        cluster.restore(ja, 2, /*via_server=*/0).value());
    const std::vector<Byte> b1_before = flatten(
        cluster.restore(jb, 1, /*via_server=*/0).value());

    MaintenanceJob maintenance(cluster);
    ASSERT_TRUE(maintenance.execute().ok());
    const MaintenanceReport& report = maintenance.report();
    EXPECT_EQ(report.versions_expired, 1u);  // ja v1
    EXPECT_EQ(report.dead_chunks, 90u);      // 0..89 only lived in ja v1
    EXPECT_EQ(report.live_chunks, 200u);     // 90..209 and 300..379
    EXPECT_GT(report.bytes_reclaimed, 0u);

    // Both survivors restore byte-identical through EVERY server.
    for (std::size_t via = 0; via < cluster.server_count(); ++via) {
      Result<Dataset> a2 = cluster.restore(ja, 2, via);
      ASSERT_TRUE(a2.ok()) << "via " << via << ": "
                           << a2.error().to_string();
      EXPECT_EQ(flatten(a2.value()), a2_before) << "via " << via;
      Result<Dataset> b1 = cluster.restore(jb, 1, via);
      ASSERT_TRUE(b1.ok()) << "via " << via;
      EXPECT_EQ(flatten(b1.value()), b1_before) << "via " << via;
    }
    // The expired version is gone, and its exclusive chunks left every
    // index part.
    EXPECT_FALSE(cluster.restore(ja, 1, 0).ok());
    for (std::uint64_t i = 0; i < 90; ++i) {
      const Fingerprint f = fp(i);
      EXPECT_FALSE(
          cluster.server(cluster.owner_of(f)).chunk_store().locate(f).ok())
          << i;
    }
  }
}

TEST(ClusterRetentionTest, BothIndexCopiesOfEveryPartitionByteIdentical) {
  for (const unsigned w : {1u, 2u}) {
    SCOPED_TRACE(w);
    RetentionRig rig(w, {.retention = {.keep_last = 1}});
    Cluster& cluster = *rig.cluster;
    const std::uint64_t job = cluster.director().define_job("a", "d");
    backup_stream(cluster, 0, job, 0, 150);
    ASSERT_TRUE(cluster.run_dedup2(true).ok());
    backup_stream(cluster, 0, job, 75, 150);
    ASSERT_TRUE(cluster.run_dedup2(true).ok());

    MaintenanceJob maintenance(cluster);
    ASSERT_TRUE(maintenance.execute().ok());

    // INSTALL rebuilt both copies of every partition from the same sorted
    // live stream on freshly minted devices: their disk images cannot
    // differ by a byte. This is the differential that closes GC-era
    // replica drift (the `net-failover` replication contract).
    ASSERT_EQ(cluster.partition_map().copy_count(), 2u);
    for (std::size_t part = 0; part < cluster.partition_map().part_count();
         ++part) {
      const std::vector<Byte> primary = copy_image(cluster, part, 0);
      const std::vector<Byte> backup = copy_image(cluster, part, 1);
      EXPECT_FALSE(primary.empty()) << "part " << part;
      EXPECT_EQ(primary, backup) << "part " << part;
    }
    // And the copies still agree with the surviving version's data.
    ASSERT_TRUE(cluster.restore(job, 2, cluster.server_count() - 1).ok());
  }
}

TEST(ClusterRetentionTest, PendingSiuAnywhereIsRetryableBusy) {
  RetentionRig rig(/*w=*/2, {.retention = {.keep_last = 1}},
                   /*siu_threshold=*/1 << 30);
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("a", "d");
  backup_stream(cluster, 0, job, 0, 80);
  ASSERT_TRUE(cluster.run_dedup2(/*force_siu=*/false).ok());

  MaintenanceJob maintenance(cluster);
  Status busy = maintenance.execute();
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.code(), Errc::kBusy);
  EXPECT_EQ(maintenance.plan().error().code, Errc::kBusy);

  // Retryable: a forced-SIU round drains every pending set, after which
  // the identical job object succeeds.
  ASSERT_TRUE(cluster.run_dedup2(/*force_siu=*/true).ok());
  ASSERT_TRUE(maintenance.execute().ok());
  ASSERT_TRUE(cluster.restore(job, 1, 3).ok());
}

TEST(ClusterRetentionTest, DegradedFleetIsRetryableBusy) {
  RetentionRig rig(/*w=*/1, {.retention = {.keep_last = 1}});
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("a", "d");
  backup_stream(cluster, 0, job, 0, 60);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  // A dark peer means one live copy is unreachable — the mark/install
  // exchanges could not cover every copy, so the round must not start.
  rig.faulty->set_unreachable(1, true);
  MaintenanceJob maintenance(cluster);
  Status busy = maintenance.execute();
  ASSERT_FALSE(busy.ok());
  EXPECT_EQ(busy.code(), Errc::kBusy);

  // The fleet heals; the same job retries clean.
  rig.faulty->set_unreachable(1, false);
  ASSERT_TRUE(maintenance.execute().ok());
  ASSERT_TRUE(cluster.restore(job, 1, 1).ok());
}

}  // namespace
}  // namespace debar::core
