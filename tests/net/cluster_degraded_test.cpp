// Degraded operation, the abort side: a cluster round that loses BOTH
// copies of some index partition must fail cleanly at the phase barrier
// — no partial index or pending-set mutation, drained undetermined
// fingerprints restored, entries deferred — and the director must learn
// which servers to skip. Restores fail over to the surviving copy and
// fail only when a partition has no reachable copy left. (The degraded-
// but-completing side — a single dark server, failover, catch-up — is
// tests/net/cluster_failover_test.cpp.)
#include <gtest/gtest.h>

#include <memory>

#include "common/sha1.hpp"
#include "core/cluster.hpp"
#include "net/faulty_transport.hpp"
#include "net/transport_factory.hpp"
#include "storage/faulty_block_device.hpp"

namespace debar::core {
namespace {

Fingerprint fp(std::uint64_t i) { return Sha1::hash_counter(i); }

struct FaultyCluster {
  net::FaultyTransport* faulty = nullptr;  // owned by the cluster's stack
  std::unique_ptr<Cluster> cluster;

  explicit FaultyCluster(net::NetFaultConfig faults, unsigned w = 1) {
    ClusterConfig cfg;
    cfg.routing_bits = w;
    cfg.repository_nodes = 2;
    cfg.server_config.index_params = {.prefix_bits = 6,
                                      .blocks_per_bucket = 2};
    cfg.server_config.filter_params = {.hash_bits = 8, .capacity = 100000};
    cfg.server_config.chunk_store.cache_params = {.hash_bits = 4,
                                                  .capacity = 1000000};
    cfg.server_config.chunk_store.io_buckets = 8;
    cfg.server_config.chunk_store.siu_threshold = 1;
    auto factory = std::make_shared<net::FaultyTransportFactory>(faults);
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
  for (const FileData& file : dataset.files) {
    out.insert(out.end(), file.content.begin(), file.content.end());
  }
  return out;
}

TEST(ClusterDegradedTest, BothReplicasDarkAbortsPhaseAWithoutMutation) {
  // A single dark server now degrades a round (its partition fails over
  // to the backup copy — tests/net/cluster_failover_test.cpp). The
  // all-or-nothing abort remains when BOTH copies of a partition are
  // unreachable: at w=2, killing servers 1 and 2 takes out part 1's
  // primary owner and its backup holder.
  FaultyCluster rig({}, /*w=*/2);
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("c", "d");

  // A healthy first round establishes version 1 and a populated index.
  backup_stream(cluster, 0, job, 0, 60);
  ASSERT_TRUE(cluster.run_dedup2(/*force_siu=*/true).ok());
  const std::vector<Byte> version1 =
      flatten(cluster.restore(job, 1, /*via=*/0).value());

  // New data is waiting when servers 1 and 2 die.
  backup_stream(cluster, 0, job, 200, 60);
  const std::uint64_t undetermined_before =
      cluster.server(0).file_store().undetermined_count();
  ASSERT_GT(undetermined_before, 0u);
  std::vector<std::uint64_t> pending_before;
  for (std::size_t k = 0; k < cluster.server_count(); ++k) {
    pending_before.push_back(cluster.server(k).chunk_store().pending_count());
  }

  rig.faulty->set_unreachable(1, true);
  rig.faulty->set_unreachable(2, true);
  Result<ClusterDedup2Result> degraded = cluster.run_dedup2(true);
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.error().code, Errc::kUnavailable);
  EXPECT_NE(degraded.error().message.find("phase A"), std::string::npos)
      << degraded.error().message;

  // The director knows who to skip; the healthy servers are not blamed.
  EXPECT_TRUE(cluster.director().is_unreachable(1));
  EXPECT_TRUE(cluster.director().is_unreachable(2));
  EXPECT_FALSE(cluster.director().is_unreachable(0));
  EXPECT_FALSE(cluster.director().is_unreachable(3));

  // No index or pending mutation anywhere, and the drained undetermined
  // fingerprints are back for the next round.
  EXPECT_EQ(cluster.server(0).file_store().undetermined_count(),
            undetermined_before);
  for (std::size_t k = 0; k < cluster.server_count(); ++k) {
    EXPECT_EQ(cluster.server(k).chunk_store().pending_count(),
              pending_before[k]);
  }
  for (std::uint64_t i = 200; i < 260; ++i) {
    const std::size_t owner = cluster.owner_of(fp(i));
    EXPECT_FALSE(cluster.server(owner).chunk_store().locate(fp(i)).ok());
  }

  // Recovery: the peers come back, the round-start probe re-admits them,
  // the next round resolves everything the aborted round put back, and
  // version 1 is still byte-identical.
  rig.faulty->set_unreachable(1, false);
  rig.faulty->set_unreachable(2, false);
  Result<ClusterDedup2Result> recovered = cluster.run_dedup2(true);
  ASSERT_TRUE(recovered.ok()) << recovered.error().to_string();
  EXPECT_EQ(recovered.value().undetermined, undetermined_before);
  EXPECT_EQ(recovered.value().new_chunks, 60u);
  EXPECT_FALSE(recovered.value().degraded());
  EXPECT_FALSE(cluster.director().is_unreachable(1));
  EXPECT_FALSE(cluster.director().is_unreachable(2));

  Result<Dataset> again = cluster.restore(job, 1, /*via=*/0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(flatten(again.value()), version1);
}

TEST(ClusterDegradedTest, UnreachablePeerAbortsPhaseEAndDefersEntries) {
  // Let phases A and C complete and cut the network at the first phase-E
  // send: with 2 servers, each of A and C moves exactly 2 frames (one per
  // direction), so every phase-E send (two per server now that both
  // copies are written) is refused. The global budget makes BOTH servers
  // read unreachable, so every partition loses both copies and the round
  // still aborts all-or-nothing with its entries deferred.
  net::NetFaultConfig faults;
  faults.unreachable_after_sends = 4;
  FaultyCluster rig(faults);
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("c", "d");

  backup_stream(cluster, 0, job, 0, 60);
  Result<ClusterDedup2Result> degraded = cluster.run_dedup2(true);
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.error().code, Errc::kUnavailable);
  EXPECT_NE(degraded.error().message.find("phase E"), std::string::npos)
      << degraded.error().message;

  // Chunk storing (phase D) already ran — the undetermined set stays
  // consumed — but no owner registered anything: the index and pending
  // sets mutate all-or-nothing per round.
  EXPECT_EQ(cluster.server(0).file_store().undetermined_count(), 0u);
  for (std::size_t k = 0; k < cluster.server_count(); ++k) {
    EXPECT_EQ(cluster.server(k).chunk_store().pending_count(), 0u);
  }
  for (std::uint64_t i = 0; i < 60; ++i) {
    const std::size_t owner = cluster.owner_of(fp(i));
    EXPECT_FALSE(cluster.server(owner).chunk_store().locate(fp(i)).ok());
  }
}

TEST(ClusterDegradedTest, PhaseDStoreFaultAbortsWithoutLosingWork) {
  // Server 1's chunk log cannot be read back in phase D, after server 0
  // has already containered its chunks and cleared its log. The round
  // aborts with nothing registered; server 0's entries are deferred and
  // server 1's drained fingerprints go back, so a clean round afterwards
  // leaves every backed-up byte restorable through every server.
  auto injector = std::make_shared<storage::FaultInjector>(
      storage::FaultConfig{});
  auto minted = std::make_shared<int>(0);
  ClusterConfig cfg;
  cfg.routing_bits = 1;
  cfg.repository_nodes = 2;
  cfg.server_config.index_params = {.prefix_bits = 6, .blocks_per_bucket = 2};
  cfg.server_config.filter_params = {.hash_bits = 8, .capacity = 100000};
  cfg.server_config.chunk_store.cache_params = {.hash_bits = 4,
                                                .capacity = 1000000};
  cfg.server_config.chunk_store.io_buckets = 8;
  cfg.server_config.chunk_store.siu_threshold = 1;
  // Log devices are minted one per server, in slot order.
  cfg.server_config.log_device_factory =
      [injector, minted]() -> std::unique_ptr<storage::BlockDevice> {
    auto device = std::make_unique<storage::MemBlockDevice>();
    if ((*minted)++ != 1) return device;
    return std::make_unique<storage::FaultyBlockDevice>(std::move(device),
                                                        injector);
  };
  Cluster cluster(std::move(cfg));
  const std::uint64_t job0 = cluster.director().define_job("a", "d");
  const std::uint64_t job1 = cluster.director().define_job("b", "d");
  backup_stream(cluster, 0, job0, 0, 60);
  backup_stream(cluster, 1, job1, 1000, 60);

  storage::FaultConfig unreadable;
  unreadable.read_error_rate = 1.0;
  injector->set_config(unreadable);
  Result<ClusterDedup2Result> faulted = cluster.run_dedup2(true);
  ASSERT_FALSE(faulted.ok());
  for (std::size_t k = 0; k < cluster.server_count(); ++k) {
    EXPECT_EQ(cluster.server(k).chunk_store().pending_count(), 0u);
  }
  EXPECT_EQ(cluster.server(1).file_store().undetermined_count(), 60u);

  injector->set_config(storage::FaultConfig{});
  Result<ClusterDedup2Result> healed = cluster.run_dedup2(true);
  ASSERT_TRUE(healed.ok()) << healed.error().to_string();
  EXPECT_EQ(healed.value().new_chunks, 60u);  // server 1's, stored now

  for (std::size_t via = 0; via < cluster.server_count(); ++via) {
    for (const auto& [job, first] : {std::pair{job0, std::uint64_t{0}},
                                     std::pair{job1, std::uint64_t{1000}}}) {
      Result<Dataset> restored = cluster.restore(job, 1, via);
      ASSERT_TRUE(restored.ok())
          << "job " << job << " via " << via << ": "
          << restored.error().to_string();
      std::vector<Byte> expected;
      for (std::uint64_t i = first; i < first + 60; ++i) {
        const auto payload = BackupEngine::synthetic_payload(fp(i), 512);
        expected.insert(expected.end(), payload.begin(), payload.end());
      }
      EXPECT_EQ(flatten(restored.value()), expected);
    }
  }
}

TEST(ClusterDegradedTest, RestoreFailsOverToTheLocalReplicaCopy) {
  FaultyCluster rig({});
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("c", "d");

  backup_stream(cluster, 0, job, 0, 60);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  // Pick one fingerprint per owner.
  Fingerprint own_fp, cross_fp;
  bool have_own = false, have_cross = false;
  for (std::uint64_t i = 0; i < 60 && !(have_own && have_cross); ++i) {
    if (cluster.owner_of(fp(i)) == 0 && !have_own) {
      own_fp = fp(i);
      have_own = true;
    } else if (cluster.owner_of(fp(i)) == 1 && !have_cross) {
      cross_fp = fp(i);
      have_cross = true;
    }
  }
  ASSERT_TRUE(have_own && have_cross);

  rig.faulty->set_unreachable(1, true);

  // Even with server 0's LPC cold, a chunk owned by the dead server
  // locates on server 0's replica of part 1 — the locate fails over to
  // the surviving copy instead of failing the restore (DESIGN.md §5g).
  Result<std::vector<Byte>> cold = cluster.read_chunk(0, cross_fp);
  ASSERT_TRUE(cold.ok()) << cold.error().to_string();
  EXPECT_EQ(cold.value(), BackupEngine::synthetic_payload(cross_fp, 512));
  EXPECT_TRUE(cluster.director().is_unreachable(1));

  // Chunks server 0 owns locate locally and still restore.
  Result<std::vector<Byte>> own = cluster.read_chunk(0, own_fp);
  ASSERT_TRUE(own.ok()) << own.error().to_string();
  EXPECT_EQ(own.value(), BackupEngine::synthetic_payload(own_fp, 512));
}

TEST(ClusterDegradedTest, RestoreFailsOnlyWhenBothCopyHoldersAreDark) {
  // At w=2 a part-1 chunk has copies on servers 1 (primary) and 2
  // (backup). With both dark and the serving server's LPC cold, the
  // locate exhausts every copy and the read fails; chunks whose partition
  // kept a live copy still restore.
  FaultyCluster rig({}, /*w=*/2);
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("c", "d");

  backup_stream(cluster, 0, job, 0, 60);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  Fingerprint part1_fp, part0_fp;
  bool have1 = false, have0 = false;
  for (std::uint64_t i = 0; i < 60 && !(have1 && have0); ++i) {
    if (cluster.owner_of(fp(i)) == 1 && !have1) {
      part1_fp = fp(i);
      have1 = true;
    } else if (cluster.owner_of(fp(i)) == 0 && !have0) {
      part0_fp = fp(i);
      have0 = true;
    }
  }
  ASSERT_TRUE(have1 && have0);

  rig.faulty->set_unreachable(1, true);
  rig.faulty->set_unreachable(2, true);

  Result<std::vector<Byte>> lost = cluster.read_chunk(0, part1_fp);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.error().code, Errc::kUnavailable);
  EXPECT_TRUE(cluster.director().is_unreachable(1));
  EXPECT_TRUE(cluster.director().is_unreachable(2));

  // Part 0 keeps both of its copies (servers 0 and 1... server 1 is dark,
  // but the primary on server 0 answers first) and still restores.
  Result<std::vector<Byte>> kept = cluster.read_chunk(0, part0_fp);
  ASSERT_TRUE(kept.ok()) << kept.error().to_string();
  EXPECT_EQ(kept.value(), BackupEngine::synthetic_payload(part0_fp, 512));
}

}  // namespace
}  // namespace debar::core
