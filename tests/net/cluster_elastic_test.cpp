// Online elastic repartitioning (DESIGN.md §5j): the epoch-versioned
// PartitionMap as the single source of placement truth, live w -> w+1
// splits onto freshly added servers, server drains, and the byte-identity
// bar — a cluster grown mid-trace must end with exactly the index images
// and restores of a cluster born at the final topology. Epoch-stamped
// wire batches reject torn maps instead of silently mis-routing.
// `ctest -L net-elastic` runs this suite plus the migration crash sweep
// in integration/elastic_crash_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/sha1.hpp"
#include "core/cluster.hpp"
#include "core/cluster_node.hpp"
#include "core/partition_map.hpp"
#include "net/faulty_transport.hpp"
#include "net/loopback_transport.hpp"
#include "net/transport_factory.hpp"
#include "storage/block_device.hpp"
#include "storage/chunk_repository.hpp"

namespace debar::core {
namespace {

Fingerprint fp(std::uint64_t i) { return Sha1::hash_counter(i); }

// ---------------------------------------------------------------------------
// PartitionMap unit coverage: identity layouts, split/drain transforms.
// ---------------------------------------------------------------------------

TEST(PartitionMapTest, IdentityLayoutMatchesTheClosedForms) {
  const PartitionMap map = PartitionMap::identity(2);
  EXPECT_EQ(map.routing_bits(), 2u);
  EXPECT_EQ(map.epoch(), 0u);
  EXPECT_EQ(map.part_count(), 4u);
  EXPECT_EQ(map.server_slots(), 4u);
  EXPECT_EQ(map.live_count(), 4u);
  EXPECT_TRUE(map.replicated());
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(map.copy(p, 0), (PartitionCopy{p, true}));
    EXPECT_EQ(map.copy(p, 1),
              (PartitionCopy{PartitionMap::backup_of(p, 4), false}));
    // The inverse helper agrees: the replica that lands on server k is of
    // the partition replica_part_of names.
    EXPECT_EQ(map.copy(PartitionMap::replica_part_of(p, 4), 1).server, p);
  }
}

TEST(PartitionMapTest, WidthZeroIdentityIsUnreplicated) {
  const PartitionMap map = PartitionMap::identity(0);
  EXPECT_FALSE(map.replicated());
  EXPECT_EQ(map.copy_count(), 1u);
  // Both copy indices collapse onto the single real copy.
  EXPECT_EQ(map.copy(0, 0), map.copy(0, 1));
}

TEST(PartitionMapTest, SplitOfTheSmallestIdentityIsTheNextIdentity) {
  // The anchor the whole refactor hangs on: splitting identity(0) must
  // reproduce identity(1) exactly (modulo the bumped epoch), so a grown
  // cluster and a born-at-w=1 cluster are the same object.
  Result<PartitionMap> split = PartitionMap::identity(0).split();
  ASSERT_TRUE(split.ok());
  const PartitionMap& grown = split.value();
  const PartitionMap target = PartitionMap::identity(1);
  EXPECT_EQ(grown.epoch(), 1u);
  EXPECT_EQ(grown.routing_bits(), target.routing_bits());
  EXPECT_EQ(grown.part_count(), target.part_count());
  EXPECT_EQ(grown.server_slots(), target.server_slots());
  for (std::size_t p = 0; p < target.part_count(); ++p) {
    EXPECT_EQ(grown.copy(p, 0), target.copy(p, 0));
    EXPECT_EQ(grown.copy(p, 1), target.copy(p, 1));
  }
}

TEST(PartitionMapTest, SplitPlacesOddHalvesOnNewServersAndRotatesBackups) {
  // At w=1 the result is a PERMUTATION no identity layout matches — the
  // reason clusters must be constructible from an explicit map.
  Result<PartitionMap> split = PartitionMap::identity(1).split();
  ASSERT_TRUE(split.ok());
  const PartitionMap& map = split.value();
  EXPECT_EQ(map.routing_bits(), 2u);
  EXPECT_EQ(map.epoch(), 1u);
  EXPECT_EQ(map.server_slots(), 4u);
  // Low halves stay on the old primaries, high halves land on the new
  // slots (2 + p); backups are the primary server of the next partition.
  EXPECT_EQ(map.copy(0, 0), (PartitionCopy{0, true}));
  EXPECT_EQ(map.copy(1, 0), (PartitionCopy{2, true}));
  EXPECT_EQ(map.copy(2, 0), (PartitionCopy{1, true}));
  EXPECT_EQ(map.copy(3, 0), (PartitionCopy{3, true}));
  EXPECT_EQ(map.copy(0, 1), (PartitionCopy{2, false}));
  EXPECT_EQ(map.copy(1, 1), (PartitionCopy{1, false}));
  EXPECT_EQ(map.copy(2, 1), (PartitionCopy{3, false}));
  EXPECT_EQ(map.copy(3, 1), (PartitionCopy{0, false}));
}

TEST(PartitionMapTest, DrainPromotesTheSurvivorAndRebalancesReplicas) {
  Result<PartitionMap> split = PartitionMap::identity(1).split();
  ASSERT_TRUE(split.ok());
  Result<PartitionMap> drained = split.value().drained(1);
  ASSERT_TRUE(drained.ok());
  const PartitionMap& map = drained.value();

  EXPECT_EQ(map.epoch(), 2u);
  EXPECT_FALSE(map.is_live(1));
  EXPECT_EQ(map.live_count(), 3u);
  EXPECT_EQ(map.server_slots(), 4u);  // the slot stays allocated
  for (std::size_t p = 0; p < map.part_count(); ++p) {
    EXPECT_EQ(map.copy_on(p, 1), nullptr) << "drained slot still hosts " << p;
    EXPECT_NE(map.copy(p, 0).server, map.copy(p, 1).server);
    EXPECT_TRUE(map.is_live(map.copy(p, 0).server));
    EXPECT_TRUE(map.is_live(map.copy(p, 1).server));
  }
  // Partition 2 lost its primary: the replica on server 3 is promoted to
  // the preferred copy KEEPING its via_store=false — the part is now
  // served entirely off replicas. Partition 1 lost only its backup; its
  // primary stays put and a replacement replica lands on the
  // least-loaded live server (lowest id on ties).
  EXPECT_EQ(map.copy(2, 0), (PartitionCopy{3, false}));
  EXPECT_EQ(map.copy(2, 1), (PartitionCopy{2, false}));
  EXPECT_EQ(map.copy(1, 0), (PartitionCopy{2, true}));
  EXPECT_EQ(map.copy(1, 1), (PartitionCopy{0, false}));
  // Untouched partitions keep their placement.
  EXPECT_EQ(map.copy(0, 0), (PartitionCopy{0, true}));
  EXPECT_EQ(map.copy(0, 1), (PartitionCopy{2, false}));
  EXPECT_EQ(map.copy(3, 0), (PartitionCopy{3, true}));
  EXPECT_EQ(map.copy(3, 1), (PartitionCopy{0, false}));
}

TEST(PartitionMapTest, TransitionsRejectStatesTheyCannotLeaveConsistent) {
  // Unreplicated maps have nowhere to hand copies off to.
  EXPECT_FALSE(PartitionMap::identity(0).drained(0).ok());
  // Two live servers cannot keep every partition at two distinct copies.
  EXPECT_FALSE(PartitionMap::identity(1).drained(0).ok());
  // Unknown and already-drained slots are rejected.
  EXPECT_FALSE(PartitionMap::identity(2).drained(7).ok());
  Result<PartitionMap> once = PartitionMap::identity(2).drained(1);
  ASSERT_TRUE(once.ok());
  EXPECT_FALSE(once.value().drained(1).ok());
  // A split cannot place halves on drained slots.
  EXPECT_FALSE(once.value().split().ok());
  EXPECT_FALSE(PartitionMap{}.split().ok());
}

// ---------------------------------------------------------------------------
// Cluster-level elastic rig.
// ---------------------------------------------------------------------------

/// A cluster over a FaultyTransport, born either at a routing width or at
/// an explicit (post-transition) partition map.
struct ElasticRig {
  net::FaultyTransport* faulty = nullptr;  // owned by the cluster's stack
  std::unique_ptr<Cluster> cluster;

  explicit ElasticRig(unsigned w) : ElasticRig(w, PartitionMap{}) {}
  explicit ElasticRig(const PartitionMap& map) : ElasticRig(0, map) {}

 private:
  ElasticRig(unsigned w, const PartitionMap& map) {
    ClusterConfig cfg;
    cfg.routing_bits = w;
    cfg.partition_map = map;
    cfg.repository_nodes = 2;
    cfg.server_config.index_params = {.prefix_bits = 6,
                                      .blocks_per_bucket = 2};
    cfg.server_config.filter_params = {.hash_bits = 8, .capacity = 100000};
    cfg.server_config.chunk_store.cache_params = {.hash_bits = 4,
                                                  .capacity = 1000000};
    cfg.server_config.chunk_store.io_buckets = 8;
    cfg.server_config.chunk_store.siu_threshold = 1;
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
  for (const FileData& file : dataset.files) {
    out.insert(out.end(), file.content.begin(), file.content.end());
  }
  return out;
}

std::vector<std::vector<Byte>> container_images(Cluster& cluster) {
  std::vector<std::vector<Byte>> images;
  for (const ContainerId id : cluster.repository().container_ids()) {
    Result<storage::Container> container = cluster.repository().read(id);
    EXPECT_TRUE(container.ok());
    if (container.ok()) images.push_back(container.value().serialize());
  }
  return images;
}

/// The raw device image behind one copy of a partition, looked up through
/// the live map — works across migrations, where factory-call order no
/// longer identifies devices.
std::vector<Byte> copy_image(Cluster& cluster, std::size_t part,
                             std::size_t which) {
  const PartitionCopy& placed = cluster.partition_map().copy(part, which);
  index::DiskIndex& idx =
      cluster.server(placed.server).part_index(part, placed.via_store).index();
  std::vector<Byte> out(idx.device().size());
  EXPECT_TRUE(idx.device().read(0, std::span<Byte>(out.data(), out.size())).ok());
  return out;
}

TEST(ClusterElasticTest, ExplicitIdentityMapMatchesRoutingBitsConstruction) {
  // The refactor's no-regression bar: a cluster handed identity(w) as an
  // explicit map must be byte-identical to one built from routing_bits —
  // same round accounting, same index images, same containers, same
  // restored bytes.
  ElasticRig classic(/*w=*/1);
  ElasticRig mapped(PartitionMap::identity(1));
  EXPECT_EQ(mapped.cluster->epoch(), 0u);

  const std::uint64_t job_a = classic.cluster->director().define_job("c", "d");
  const std::uint64_t job_b = mapped.cluster->director().define_job("c", "d");
  backup_stream(*classic.cluster, 0, job_a, 0, 60);
  backup_stream(*mapped.cluster, 0, job_b, 0, 60);

  Result<ClusterDedup2Result> round_a = classic.cluster->run_dedup2(true);
  Result<ClusterDedup2Result> round_b = mapped.cluster->run_dedup2(true);
  ASSERT_TRUE(round_a.ok());
  ASSERT_TRUE(round_b.ok());
  EXPECT_EQ(round_a.value().undetermined, round_b.value().undetermined);
  EXPECT_EQ(round_a.value().duplicates, round_b.value().duplicates);
  EXPECT_EQ(round_a.value().new_chunks, round_b.value().new_chunks);

  for (std::size_t p = 0; p < 2; ++p) {
    for (std::size_t c = 0; c < 2; ++c) {
      EXPECT_EQ(copy_image(*classic.cluster, p, c),
                copy_image(*mapped.cluster, p, c))
          << "part " << p << " copy " << c;
    }
  }
  EXPECT_EQ(container_images(*classic.cluster),
            container_images(*mapped.cluster));
  EXPECT_EQ(flatten(classic.cluster->restore(job_a, 1, 0).value()),
            flatten(mapped.cluster->restore(job_b, 1, 0).value()));
}

TEST(ClusterElasticTest, SplitThenDrainMatchesAClusterBornAtTheFinalTopology) {
  // The acceptance differential: generation 1 at w=1, then a live split
  // to w=2 (two servers added), then slot 1 drained, then generation 2 —
  // against a twin cluster BORN at the exact final map running the same
  // two generations. Every surviving copy's index image, the repository,
  // and both restored generations must be byte-identical.
  ElasticRig grown(/*w=*/1);
  const std::uint64_t job = grown.cluster->director().define_job("c", "d");
  backup_stream(*grown.cluster, 0, job, 0, 60);
  ASSERT_TRUE(grown.cluster->run_dedup2(true).ok());

  ASSERT_TRUE(grown.cluster->split().ok());
  EXPECT_EQ(grown.cluster->server_count(), 4u);
  EXPECT_EQ(grown.cluster->epoch(), 1u);
  EXPECT_EQ(grown.cluster->partition_map().part_count(), 4u);

  ASSERT_TRUE(grown.cluster->drain(1).ok());
  EXPECT_EQ(grown.cluster->epoch(), 2u);
  EXPECT_FALSE(grown.cluster->partition_map().is_live(1));

  backup_stream(*grown.cluster, 0, job, 100, 60);
  Result<ClusterDedup2Result> gen2 = grown.cluster->run_dedup2(true);
  ASSERT_TRUE(gen2.ok()) << gen2.error().to_string();
  EXPECT_FALSE(gen2.value().degraded());

  // The twin is born at the grown cluster's final map — a placement no
  // identity layout reproduces (partition 2 is served off two replicas).
  ElasticRig twin(grown.cluster->partition_map());
  const std::uint64_t twin_job = twin.cluster->director().define_job("c", "d");
  backup_stream(*twin.cluster, 0, twin_job, 0, 60);
  ASSERT_TRUE(twin.cluster->run_dedup2(true).ok());
  backup_stream(*twin.cluster, 0, twin_job, 100, 60);
  ASSERT_TRUE(twin.cluster->run_dedup2(true).ok());

  const PartitionMap& final_map = grown.cluster->partition_map();
  ASSERT_EQ(twin.cluster->partition_map(), final_map);
  for (std::size_t p = 0; p < final_map.part_count(); ++p) {
    for (std::size_t c = 0; c < final_map.copy_count(); ++c) {
      EXPECT_EQ(copy_image(*grown.cluster, p, c),
                copy_image(*twin.cluster, p, c))
          << "part " << p << " copy " << c;
    }
  }
  EXPECT_EQ(container_images(*grown.cluster), container_images(*twin.cluster));

  // Both generations restore identically — through the original server 0
  // AND through server 2, which only exists because of the split.
  for (std::uint32_t version = 1; version <= 2; ++version) {
    const std::vector<Byte> expected =
        flatten(twin.cluster->restore(twin_job, version, 0).value());
    for (const std::size_t via : {std::size_t{0}, std::size_t{2}}) {
      Result<Dataset> restored = grown.cluster->restore(job, version, via);
      ASSERT_TRUE(restored.ok()) << restored.error().to_string();
      EXPECT_EQ(flatten(restored.value()), expected)
          << "version " << version << " via " << via;
    }
  }
}

TEST(ClusterElasticTest, SplitAbortsCleanlyAroundADegradedRoundAndRetries) {
  // One server dark mid-migration: the split must refuse (kUnavailable),
  // leave the topology untouched, coexist with a degraded round run in
  // the meantime, refuse again while catch-up debt is outstanding, and
  // succeed once the fleet heals — with everything restorable after.
  ElasticRig rig(/*w=*/1);
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("c", "d");

  backup_stream(cluster, 0, job, 0, 60);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  rig.faulty->set_unreachable(1, true);
  Status dark_split = cluster.split();
  EXPECT_FALSE(dark_split.ok());
  EXPECT_EQ(dark_split.code(), Errc::kUnavailable);
  EXPECT_EQ(cluster.server_count(), 2u);
  EXPECT_EQ(cluster.epoch(), 0u);

  // The cluster still takes (degraded) rounds at the old topology.
  backup_stream(cluster, 0, job, 100, 60);
  Result<ClusterDedup2Result> degraded = cluster.run_dedup2(true);
  ASSERT_TRUE(degraded.ok()) << degraded.error().to_string();
  EXPECT_TRUE(degraded.value().degraded());

  // Now the dark server is owed catch-up entries: still no migration.
  Status owed_split = cluster.split();
  EXPECT_FALSE(owed_split.ok());
  EXPECT_EQ(owed_split.code(), Errc::kInvalidArgument);

  // Heal; the next round re-admits server 1, delivers catch-up, and its
  // forced SIU leaves zero pending — the migration preconditions.
  rig.faulty->set_unreachable(1, false);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  Status split = cluster.split();
  ASSERT_TRUE(split.ok()) << split.to_string();
  EXPECT_EQ(cluster.server_count(), 4u);
  EXPECT_EQ(cluster.epoch(), 1u);

  backup_stream(cluster, 0, job, 200, 60);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());
  for (std::uint32_t version = 1; version <= 3; ++version) {
    Result<Dataset> restored = cluster.restore(job, version, /*via=*/2);
    ASSERT_TRUE(restored.ok())
        << "version " << version << ": " << restored.error().to_string();
    std::vector<Byte> expected;
    const std::uint64_t first = (version - 1) * 100;
    for (std::uint64_t i = first; i < first + 60; ++i) {
      const auto payload = BackupEngine::synthetic_payload(fp(i), 512);
      expected.insert(expected.end(), payload.begin(), payload.end());
    }
    EXPECT_EQ(flatten(restored.value()), expected);
  }
}

TEST(ClusterElasticTest, DrainRequiresEnoughSurvivorsAndAKnownSlot) {
  ElasticRig rig(/*w=*/1);
  EXPECT_FALSE(rig.cluster->drain(0).ok());  // 2 live servers: no quorum
  EXPECT_FALSE(rig.cluster->drain(9).ok());
  EXPECT_EQ(rig.cluster->epoch(), 0u);
}

// ---------------------------------------------------------------------------
// Epoch fencing on the SPMD path: two ClusterNodes with torn maps.
// ---------------------------------------------------------------------------

TEST(ClusterNodeEpochTest, TornMapsRejectEachOthersBatches) {
  // Same layout, different epochs — the exact state a node missing a
  // migration commit would be in. Phase-A batches carry the sender's
  // epoch; both sides must refuse to fold foreign-epoch traffic into
  // their round (kInvalidArgument), never mis-route it — and the fenced
  // abort must not lose the work it drained: once the maps agree, a
  // rerun stores every chunk ingested before it.
  storage::ChunkRepository repo_a(2, sim::DiskProfile::PaperRaid());
  storage::ChunkRepository repo_b(2, sim::DiskProfile::PaperRaid());
  Director dir_a;
  Director dir_b;
  BackupServerConfig cfg;
  cfg.index_params = {.prefix_bits = 6, .skip_bits = 1, .blocks_per_bucket = 2};
  cfg.filter_params = {.hash_bits = 8, .capacity = 100000};
  cfg.chunk_store.cache_params = {.hash_bits = 4, .capacity = 1000000};
  cfg.chunk_store.io_buckets = 8;
  cfg.chunk_store.siu_threshold = 1;
  BackupServer s0(0, cfg, &repo_a, &dir_a);
  BackupServer s1(1, cfg, &repo_b, &dir_b);
  ASSERT_TRUE(s0.attach_replica(1).ok());
  ASSERT_TRUE(s1.attach_replica(0).ok());

  net::LoopbackTransport transport;
  ASSERT_TRUE(transport.register_endpoint(0, &s0.nic()).ok());
  ASSERT_TRUE(transport.register_endpoint(1, &s1.nic()).ok());
  s0.attach_endpoint(std::make_unique<net::Endpoint>(&transport, 0));
  s1.attach_endpoint(std::make_unique<net::Endpoint>(&transport, 1));

  const PartitionMap stale = PartitionMap::identity(1);  // epoch 0
  Result<PartitionMap> split = PartitionMap::identity(0).split();
  ASSERT_TRUE(split.ok());  // identical layout, epoch 1

  // Node 0 holds a backed-up version waiting for dedup-2.
  const std::uint64_t job = dir_a.define_job("c", "d");
  FileStore& fs = s0.file_store();
  fs.begin_job(job);
  fs.begin_file({.path = "s", .size = 60 * 512, .mtime = 0, .mode = 0644});
  for (std::uint64_t i = 0; i < 60; ++i) {
    if (fs.offer_fingerprint(fp(i), 512)) {
      const auto payload = BackupEngine::synthetic_payload(fp(i), 512);
      ASSERT_TRUE(
          fs.receive_chunk(fp(i), ByteSpan(payload.data(), payload.size()))
              .ok());
    }
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());

  ClusterNode node0({.node = 0,
                     .map = stale,
                     .round_timeout = std::chrono::seconds(5)},
                    &s0);
  ClusterNode node1({.node = 1,
                     .map = split.value(),
                     .round_timeout = std::chrono::seconds(5)},
                    &s1);

  std::optional<Result<NodeRoundResult>> r0;
  std::optional<Result<NodeRoundResult>> r1;
  std::thread t0([&] { r0 = node0.run_dedup2_round(true); });
  std::thread t1([&] { r1 = node1.run_dedup2_round(true); });
  t0.join();
  t1.join();

  ASSERT_TRUE(r0.has_value());
  ASSERT_TRUE(r1.has_value());
  EXPECT_FALSE(r0->ok());
  EXPECT_FALSE(r1->ok());
  // At least one side saw the foreign epoch directly; the other either
  // saw it too or starved when its peer aborted.
  const bool fenced =
      (!r0->ok() && r0->error().code == Errc::kInvalidArgument) ||
      (!r1->ok() && r1->error().code == Errc::kInvalidArgument);
  EXPECT_TRUE(fenced);
  EXPECT_EQ(s0.file_store().undetermined_count(), 60u);

  // Node 0 adopts the migration's map; the rerun resolves everything the
  // aborted round drained.
  ClusterNode agreed0({.node = 0,
                       .map = split.value(),
                       .round_timeout = std::chrono::seconds(5)},
                      &s0);
  std::thread rerun0([&] { r0 = agreed0.run_dedup2_round(true); });
  std::thread rerun1([&] { r1 = node1.run_dedup2_round(true); });
  rerun0.join();
  rerun1.join();
  ASSERT_TRUE(r0->ok()) << r0->error().to_string();
  ASSERT_TRUE(r1->ok()) << r1->error().to_string();
  EXPECT_EQ(r0->value().undetermined, 60u);
  EXPECT_EQ(r0->value().new_chunks, 60u);

  // Every chunk restores through node 0; node 1 answers the locates for
  // its partition from its serve loop.
  ASSERT_TRUE(
      transport.register_endpoint(net::kClientEndpointId, nullptr).ok());
  net::Endpoint client(&transport, net::kClientEndpointId);
  Status served = Status::Ok();
  std::thread serve1([&] { served = node1.serve_restores(/*via=*/0); });
  FileRecord recipe;
  std::vector<Byte> expected;
  for (std::uint64_t i = 0; i < 60; ++i) {
    recipe.chunk_fps.push_back(fp(i));
    recipe.chunk_sizes.push_back(512);
    const auto payload = BackupEngine::synthetic_payload(fp(i), 512);
    expected.insert(expected.end(), payload.begin(), payload.end());
  }
  Dataset restored;
  DatasetSink collect(restored);
  const Status rs = agreed0.restore(std::span(&recipe, 1), client, collect);
  EXPECT_TRUE(rs.ok()) << rs.to_string();
  ASSERT_EQ(restored.files.size(), 1u);
  EXPECT_EQ(restored.files[0].content, expected);
  EXPECT_TRUE(s0.endpoint()
                  .send(1, net::Control{.op = net::Control::kShutdown})
                  .ok());
  serve1.join();
  EXPECT_TRUE(served.ok()) << served.to_string();
}

}  // namespace
}  // namespace debar::core
