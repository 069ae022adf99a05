// Orchestrated vs SPMD differential: the same workload through
// Cluster::run_dedup2 and through n ClusterNode::run_dedup2_round threads
// over a loopback transport must leave byte-identical index copies (every
// primary and every replica, in device-mint order) and a byte-identical
// chunk repository, and the per-node round counts must sum to the
// cluster's. Both drivers run the same per-node protocol code, so any
// drift between the two executions of a round shows up here.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "core/cluster.hpp"
#include "core/cluster_node.hpp"
#include "net/loopback_transport.hpp"
#include "storage/block_device.hpp"

namespace debar::core {
namespace {

using Devices = std::shared_ptr<std::vector<storage::MemBlockDevice*>>;

struct RoundCounts {
  std::uint64_t undetermined = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t new_chunks = 0;
  std::uint64_t new_bytes = 0;
  bool ran_siu = false;

  friend bool operator==(const RoundCounts&, const RoundCounts&) = default;
};

struct Outcome {
  std::vector<RoundCounts> rounds;
  std::vector<std::vector<Byte>> index_images;  // device-mint order
  std::vector<std::vector<Byte>> containers;    // container-id order
};

BackupServerConfig server_config(const Devices& devices) {
  BackupServerConfig cfg;
  cfg.index_params = {.prefix_bits = 6, .blocks_per_bucket = 2};
  cfg.filter_params = {.hash_bits = 8, .capacity = 100000};
  cfg.chunk_store.cache_params = {.hash_bits = 4, .capacity = 1000000};
  cfg.chunk_store.io_buckets = 8;
  cfg.chunk_store.siu_threshold = 1;
  cfg.index_device_factory = [devices] {
    auto device = std::make_unique<storage::MemBlockDevice>();
    devices->push_back(device.get());
    return device;
  };
  return cfg;
}

/// Three generations of seeded-random fingerprints, each re-offering about
/// half of the pool. Everything enters through server 0: phase D stores
/// every origin's chunks into the shared repository concurrently, so one
/// origin keeps container IDs (and the index images) deterministic while
/// routing still fans the fingerprints out to every partition.
std::vector<std::vector<Fingerprint>> workload(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<Fingerprint> pool;
  std::vector<std::vector<Fingerprint>> generations(3);
  for (std::size_t gen = 0; gen < generations.size(); ++gen) {
    for (int i = 0; i < 150; ++i) {
      if (gen > 0 && rng.chance(0.5)) {
        generations[gen].push_back(pool[rng.below(pool.size())]);
      } else {
        pool.push_back(Sha1::hash_counter(rng()));
        generations[gen].push_back(pool.back());
      }
    }
  }
  return generations;
}

void ingest(FileStore& fs, std::uint64_t job,
            const std::vector<Fingerprint>& fps) {
  fs.begin_job(job);
  fs.begin_file(
      {.path = "s", .size = fps.size() * 512, .mtime = 0, .mode = 0644});
  for (const Fingerprint& f : fps) {
    if (fs.offer_fingerprint(f, 512)) {
      const auto payload = BackupEngine::synthetic_payload(f, 512);
      ASSERT_TRUE(
          fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
    }
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());
}

void capture(const Devices& devices, storage::ChunkRepository& repository,
             Outcome& out) {
  for (const storage::MemBlockDevice* device : *devices) {
    const ByteSpan bytes = device->contents();
    out.index_images.emplace_back(bytes.begin(), bytes.end());
  }
  for (const ContainerId id : repository.container_ids()) {
    Result<storage::Container> container = repository.read(id);
    ASSERT_TRUE(container.ok());
    out.containers.push_back(container.value().serialize());
  }
}

Outcome run_orchestrated(unsigned w, net::WireCodecConfig codec,
                         std::uint64_t seed) {
  const auto devices = std::make_shared<Devices::element_type>();
  ClusterConfig cfg;
  cfg.routing_bits = w;
  cfg.repository_nodes = 2;
  cfg.server_config = server_config(devices);
  cfg.wire_codec = codec;
  Cluster cluster(std::move(cfg));

  Outcome out;
  const std::uint64_t job = cluster.director().define_job("c", "d");
  for (const std::vector<Fingerprint>& fps : workload(seed)) {
    ingest(cluster.server(0).file_store(), job, fps);
    Result<ClusterDedup2Result> round = cluster.run_dedup2(/*force_siu=*/true);
    EXPECT_TRUE(round.ok()) << round.error().to_string();
    if (!round.ok()) return out;
    const ClusterDedup2Result& r = round.value();
    out.rounds.push_back(
        {r.undetermined, r.duplicates, r.new_chunks, r.new_bytes, r.ran_siu});
  }
  capture(devices, cluster.repository(), out);
  return out;
}

Outcome run_spmd(unsigned w, net::WireCodecConfig codec, std::uint64_t seed) {
  const auto devices = std::make_shared<Devices::element_type>();
  const PartitionMap map = PartitionMap::identity(w);
  const std::size_t n = map.server_slots();
  storage::ChunkRepository repository(2, sim::DiskProfile::PaperRaid());
  Director director;
  BackupServerConfig cfg = server_config(devices);
  cfg.index_params.skip_bits = w;

  // Same construction order as Cluster: every server (primary index
  // devices 0..n-1), then the replicas in (slot, part) order.
  std::vector<std::unique_ptr<BackupServer>> servers;
  for (std::size_t k = 0; k < n; ++k) {
    servers.push_back(
        std::make_unique<BackupServer>(k, cfg, &repository, &director));
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (const std::size_t p : map.parts_hosted_by(k)) {
      if (!map.copy_on(p, k)->via_store) {
        EXPECT_TRUE(servers[k]->attach_replica(p).ok());
      }
    }
  }
  net::LoopbackTransport transport;
  std::vector<ClusterNode> nodes;
  nodes.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    const auto id = static_cast<net::EndpointId>(k);
    EXPECT_TRUE(transport.register_endpoint(id, &servers[k]->nic()).ok());
    servers[k]->attach_endpoint(std::make_unique<net::Endpoint>(
        &transport, id, net::RetryPolicy{}, codec));
    nodes.emplace_back(ClusterNodeConfig{.node = k, .map = map},
                       servers[k].get());
  }

  Outcome out;
  const std::uint64_t job = director.define_job("c", "d");
  for (const std::vector<Fingerprint>& fps : workload(seed)) {
    ingest(servers[0]->file_store(), job, fps);
    std::vector<std::optional<Result<NodeRoundResult>>> results(n);
    std::vector<std::thread> threads;
    for (std::size_t k = 0; k < n; ++k) {
      threads.emplace_back(
          [&, k] { results[k] = nodes[k].run_dedup2_round(true); });
    }
    for (std::thread& t : threads) t.join();
    RoundCounts sum;
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_TRUE(results[k]->ok()) << results[k]->error().to_string();
      if (!results[k]->ok()) return out;
      const NodeRoundResult& r = results[k]->value();
      sum.undetermined += r.undetermined;
      sum.duplicates += r.duplicates;
      sum.new_chunks += r.new_chunks;
      sum.new_bytes += r.new_bytes;
      sum.ran_siu = sum.ran_siu || r.ran_siu;
    }
    out.rounds.push_back(sum);
  }
  capture(devices, repository, out);
  return out;
}

class ClusterSpmdDifferentialTest
    : public testing::TestWithParam<std::tuple<unsigned, bool>> {};

TEST_P(ClusterSpmdDifferentialTest, NodeThreadsMatchTheCoordinator) {
  const auto [w, codec_on] = GetParam();
  const net::WireCodecConfig codec =
      codec_on ? net::WireCodecConfig::enabled() : net::WireCodecConfig{};
  const std::uint64_t seed = 0x5B3D + w;
  const Outcome orchestrated = run_orchestrated(w, codec, seed);
  const Outcome spmd = run_spmd(w, codec, seed);

  ASSERT_EQ(orchestrated.rounds.size(), 3u);
  EXPECT_EQ(spmd.rounds, orchestrated.rounds);
  EXPECT_GT(orchestrated.rounds[0].new_chunks, 0u);
  EXPECT_GT(orchestrated.rounds[1].duplicates, 0u);

  // 2^w primaries plus 2^w replicas, none of them empty.
  ASSERT_EQ(orchestrated.index_images.size(), std::size_t{2} << w);
  ASSERT_EQ(spmd.index_images.size(), orchestrated.index_images.size());
  for (std::size_t i = 0; i < orchestrated.index_images.size(); ++i) {
    EXPECT_FALSE(orchestrated.index_images[i].empty()) << "index image " << i;
    EXPECT_EQ(spmd.index_images[i], orchestrated.index_images[i])
        << "index image " << i;
  }
  ASSERT_FALSE(orchestrated.containers.empty());
  EXPECT_EQ(spmd.containers, orchestrated.containers);
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndCodec, ClusterSpmdDifferentialTest,
    testing::Combine(testing::Values(1u, 2u), testing::Bool()),
    [](const testing::TestParamInfo<std::tuple<unsigned, bool>>& info) {
      return "w" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_codec" : "_plain");
    });

}  // namespace
}  // namespace debar::core
