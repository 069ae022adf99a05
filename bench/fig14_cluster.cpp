// Figure 14: aggregate throughput of a 16-server DEBAR cluster.
//
//   (a) write: dedup-1, dedup-2 and total aggregate throughput for total
//       index sizes 0.5 .. 8 TB, under the Section 6.2 synthetic
//       workload: 64 clients (four concurrent sessions per server, as in
//       the paper), versioned streams with ~90% duplicates of which ~30%
//       are cross-stream.
//   (b) read: aggregate restore throughput across successive versions —
//       version 1 reads fastest (fresh SISL layout), later versions
//       settle lower as cross-stream sharing spreads chunks over the
//       repository, with SISL+LPC keeping the decline bounded.
//
// Paper reference points: dedup-1 > 9 GB/s in every mode; total write
// 4.3 / 2.5 / 1.7 GB/s at 0.5 / 4 / 8 TB; reads 1620 MB/s for version 1
// settling around 1520 MB/s.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "common/sha1.hpp"
#include "core/cluster.hpp"
#include "net/transport_factory.hpp"
#include "workload/fingerprint_stream.hpp"

namespace {

using namespace debar;

constexpr unsigned kRoutingBits = 4;  // 16 servers
constexpr unsigned kPartPrefixBits = 10;
constexpr std::uint64_t kActualPartBytes =
    (std::uint64_t{1} << kPartPrefixBits) * 16 * kIndexBlockSize;
constexpr std::uint32_t kChunkSize = kExpectedChunkSize;
constexpr unsigned kVersions = 5;
// The paper's layout: 64 backup clients, four streaming concurrently to
// each of the 16 servers (via FileStore sessions).
constexpr std::size_t kClientsPerServer = 4;
constexpr std::size_t kStreams = 16 * kClientsPerServer;
constexpr std::uint64_t kChunksPerVersion = 640;  // per stream
// Total logical volume of a run; the paper's corresponding figure is
// 64 streams x 10 versions x 50 GB ~ 32 TB against 0.5..8 TB indexes;
// index sizes are scaled by the same data ratio so the index:data
// proportions (and hence the throughput shape) match the paper.
constexpr double kLogicalBytes = static_cast<double>(kVersions) * kStreams *
                                 kChunksPerVersion * kChunkSize;
constexpr double kPaperLogicalTb = 8.0;

struct WritePoint {
  double index_tb;
  double d1_gbps;
  double d2_gbps;
  double total_gbps;
};

struct ClusterRun {
  std::unique_ptr<core::Cluster> cluster;
  std::vector<std::uint64_t> jobs;
  WritePoint write;
};

/// Build a cluster, back up kVersions of 16 versioned streams, and
/// measure aggregate write throughput. `scaled_index` selects the
/// rate-scaled device (write sweeps; streaming-dominated) or the real
/// small index (read phase; random-lookup-dominated, size-independent).
ClusterRun run_write(double index_tb, bool scaled_index = true) {
  const std::uint64_t modeled_part_bytes = static_cast<std::uint64_t>(
      kLogicalBytes * (index_tb / kPaperLogicalTb) / 16.0);

  core::ClusterConfig cfg;
  cfg.routing_bits = kRoutingBits;
  cfg.repository_nodes = 16;
  cfg.server_config.index_params = {.prefix_bits = kPartPrefixBits,
                                    .blocks_per_bucket = 16};
  cfg.server_config.index_profile =
      scaled_index ? sim::DiskProfile::PaperRaid().scaled_to(
                         modeled_part_bytes, kActualPartBytes)
                   : sim::DiskProfile::PaperRaid();
  cfg.server_config.filter_params = {.hash_bits = 14, .capacity = 1 << 22};
  cfg.server_config.chunk_store.cache_params = {.hash_bits = 8,
                                                .capacity = 1 << 24};
  cfg.server_config.chunk_store.io_buckets = 256;
  cfg.server_config.chunk_store.siu_threshold = 1 << 30;  // SIU on demand

  ClusterRun run;
  run.cluster = std::make_unique<core::Cluster>(cfg);
  core::Cluster& cluster = *run.cluster;

  workload::SubspaceRegistry registry(6);  // 64 stream subspaces
  std::vector<std::unique_ptr<workload::VersionedStream>> streams;
  for (std::size_t s = 0; s < kStreams; ++s) {
    streams.push_back(std::make_unique<workload::VersionedStream>(
        &registry, workload::StreamParams{.stream_id = s,
                                          .dup_fraction = 0.9,
                                          .cross_fraction = 0.3,
                                          .seed = 1414}));
    run.jobs.push_back(
        cluster.director().define_job("c" + std::to_string(s), "stream"));
  }

  // One backup generation: four clients stream concurrently into each
  // server through interleaved sessions (stream i goes to server i/4).
  auto backup_generation = [&](unsigned v) {
    for (std::size_t srv = 0; srv < 16; ++srv) {
      core::FileStore& fs = cluster.server(srv).file_store();
      std::vector<core::FileStore::SessionId> sessions;
      std::vector<std::vector<Fingerprint>> fps;
      for (std::size_t c = 0; c < kClientsPerServer; ++c) {
        const std::size_t stream = srv * kClientsPerServer + c;
        sessions.push_back(fs.open_session(run.jobs[stream]));
        fps.push_back(streams[stream]->next_version(kChunksPerVersion));
        fs.begin_file(sessions.back(),
                      {.path = "v" + std::to_string(v),
                       .size = fps.back().size() * kChunkSize,
                       .mtime = 0,
                       .mode = 0644});
      }
      // Interleave the four clients chunk by chunk, as the wire would.
      for (std::uint64_t i = 0; i < kChunksPerVersion; ++i) {
        for (std::size_t c = 0; c < kClientsPerServer; ++c) {
          const Fingerprint& fp = fps[c][i];
          if (fs.offer_fingerprint(sessions[c], fp, kChunkSize)) {
            const auto payload =
                core::BackupEngine::synthetic_payload(fp, kChunkSize);
            if (!fs.receive_chunk(sessions[c], fp,
                                  ByteSpan(payload.data(), payload.size()))
                     .ok()) {
              std::exit(1);
            }
          }
        }
      }
      for (std::size_t c = 0; c < kClientsPerServer; ++c) {
        fs.end_file(sessions[c]);
        if (!fs.close_session(sessions[c]).ok()) std::exit(1);
      }
    }
  };

  // Warm-up version: the paper's synthetic streams are ~90% duplicate in
  // *every* measured version (duplicates reference earlier run modes); a
  // v0 pass puts the system in that steady state before the clocks start.
  backup_generation(0);
  if (!cluster.run_dedup2(/*force_siu=*/true).ok()) std::exit(1);
  cluster.reset_clocks();

  double logical = 0, d1_seconds = 0, d2_seconds = 0;
  for (unsigned v = 1; v <= kVersions; ++v) {
    // ---- dedup-1 on all 16 servers (parallel: elapsed = max delta). ----
    std::vector<core::ServerClocks> before(16);
    for (std::size_t s = 0; s < 16; ++s) before[s] = cluster.server(s).clocks();

    backup_generation(v);
    logical += static_cast<double>(kStreams) * kChunksPerVersion * kChunkSize;
    double d1_elapsed = 0;
    for (std::size_t s = 0; s < 16; ++s) {
      const core::ServerClocks now = cluster.server(s).clocks();
      d1_elapsed = std::max(
          d1_elapsed, std::max(now.nic - before[s].nic,
                               now.log_disk - before[s].log_disk));
    }
    d1_seconds += d1_elapsed;

    // ---- dedup-2 every other version ("one PSIU serving two PSIL"). ----
    const auto result = cluster.run_dedup2(/*force_siu=*/v % 2 == 0);
    if (!result.ok()) {
      std::fprintf(stderr, "dedup-2 failed: %s\n",
                   result.error().to_string().c_str());
      std::exit(1);
    }
    d2_seconds += result.value().total_seconds();
  }

  run.write.index_tb = index_tb;
  run.write.d1_gbps = logical / d1_seconds / 1e9;
  run.write.d2_gbps = logical / d2_seconds / 1e9;
  run.write.total_gbps = logical / (d1_seconds + d2_seconds) / 1e9;
  return run;
}

/// Restore every version through the server that backed it up; aggregate
/// read throughput per version = bytes / max over components.
std::vector<double> run_read(ClusterRun& run) {
  core::Cluster& cluster = *run.cluster;
  std::vector<double> per_version;
  for (unsigned v = 1; v <= kVersions; ++v) {
    std::vector<core::ServerClocks> before(16);
    for (std::size_t s = 0; s < 16; ++s) before[s] = cluster.server(s).clocks();
    const double repo_before = cluster.repository().total_node_seconds();

    double bytes = 0;
    for (std::size_t stream = 0; stream < kStreams; ++stream) {
      const auto restored =
          cluster.restore(run.jobs[stream], v, stream / kClientsPerServer);
      if (!restored.ok()) {
        std::fprintf(stderr, "restore %zu/v%u failed: %s\n", stream, v,
                     restored.error().to_string().c_str());
        std::exit(1);
      }
      for (const auto& f : restored.value().files) {
        bytes += static_cast<double>(f.content.size());
      }
    }
    double server_elapsed = 0;
    for (std::size_t s = 0; s < 16; ++s) {
      const core::ServerClocks now = cluster.server(s).clocks();
      server_elapsed =
          std::max(server_elapsed,
                   std::max(now.index_disk - before[s].index_disk,
                            now.nic - before[s].nic));
    }
    // At bench scale a version only fetches a few hundred containers, so
    // the busiest-node time is dominated by placement luck; the balanced
    // estimate (total node time / node count) is the stable aggregate.
    const double repo_elapsed =
        (cluster.repository().total_node_seconds() - repo_before) /
        static_cast<double>(cluster.repository().node_count());
    per_version.push_back(bytes / std::max(server_elapsed, repo_elapsed) /
                          1e6);
  }
  return per_version;
}

const double kSizesTb[] = {0.5, 1, 2, 4, 8};

void print_tables() {
  std::printf("\n=== Figure 14(a): aggregate write throughput, 16 servers "
              "(GB/s, modeled) ===\n");
  std::printf("index (TB) | dedup-1 | dedup-2 | total\n");
  ClusterRun read_run;  // keep the 2 TB run alive for the read phase
  for (const double tb : kSizesTb) {
    ClusterRun run = run_write(tb);
    std::printf("%10.1f | %7.1f | %7.2f | %5.2f\n", run.write.index_tb,
                run.write.d1_gbps, run.write.d2_gbps, run.write.total_gbps);
  }
  read_run = run_write(2, /*scaled_index=*/false);
  std::printf("paper anchors: dedup-1 > 9 GB/s in all modes; total 4.3 / "
              "2.5 / 1.7 GB/s at 0.5 / 4 / 8 TB\n");

  std::printf("\n=== Figure 14(b): aggregate read throughput per version "
              "(MB/s, modeled) ===\n");
  std::printf("version | read MB/s\n");
  const std::vector<double> reads = run_read(read_run);
  for (std::size_t v = 0; v < reads.size(); ++v) {
    std::printf("%7zu | %9.0f\n", v + 1, reads[v]);
  }
  std::printf("paper anchors: 1620 MB/s for version 1, settling ~1520 "
              "MB/s; LPC eliminated 99.3%% of random lookups\n");
  double hit_rate = 0;
  for (std::size_t s = 0; s < 16; ++s) {
    hit_rate += read_run.cluster->server(s).chunk_store().lpc().hit_rate();
  }
  std::printf("measured LPC hit rate across servers: %.1f%%\n",
              hit_rate / 16 * 100.0);

  // Exchange traffic of the whole 2 TB run (writes + restores), read off
  // the transport: costs come from serialized message sizes, not assumed
  // constants. The per-type figures are the raw (paper-model) ledger —
  // one v1 frame per message, invariant under the wire codec — and the
  // trailing totals show what the codec actually put on the wire.
  const net::TransportStats wire = read_run.cluster->transport_stats();
  auto mb = [&](net::MessageType t) {
    return static_cast<double>(
               wire.raw_bytes_by_type[static_cast<std::size_t>(t)]) /
           1e6;
  };
  std::printf("raw traffic (2 TB run, MB): fp %.1f, verdict %.1f, entry "
              "%.1f, locate %.2f, chunk data %.1f\n",
              mb(net::MessageType::kFingerprintBatch),
              mb(net::MessageType::kVerdictBatch),
              mb(net::MessageType::kIndexEntryBatch),
              mb(net::MessageType::kChunkLocateRequest) +
                  mb(net::MessageType::kChunkLocateReply),
              mb(net::MessageType::kChunkData));
  std::printf("raw -> coalesced wire total (MB): %.1f -> %.1f\n\n",
              static_cast<double>(wire.raw_bytes_sent) / 1e6,
              static_cast<double>(wire.bytes_sent) / 1e6);

}

/// One small two-server dedup-2 workload (two overlapping generations)
/// over whichever wire the factory builds; returns the transport ledger.
net::TransportStats parity_run(std::shared_ptr<net::TransportFactory> factory) {
  core::ClusterConfig cfg;
  cfg.routing_bits = 1;
  cfg.repository_nodes = 2;
  cfg.server_config.index_params = {.prefix_bits = 6, .blocks_per_bucket = 2};
  cfg.server_config.filter_params = {.hash_bits = 8, .capacity = 100000};
  cfg.server_config.chunk_store.cache_params = {.hash_bits = 4,
                                                .capacity = 1000000};
  cfg.server_config.chunk_store.io_buckets = 8;
  cfg.server_config.chunk_store.siu_threshold = 1;
  cfg.transport_factory = std::move(factory);
  core::Cluster cluster(std::move(cfg));

  auto ingest = [&](std::uint64_t job, std::uint64_t first,
                    std::uint64_t count) {
    core::FileStore& fs = cluster.server(0).file_store();
    fs.begin_job(job);
    fs.begin_file(
        {.path = "s", .size = count * 512, .mtime = 0, .mode = 0644});
    for (std::uint64_t i = first; i < first + count; ++i) {
      const Fingerprint f = Sha1::hash_counter(i);
      if (fs.offer_fingerprint(f, 512)) {
        const auto payload = core::BackupEngine::synthetic_payload(f, 512);
        if (!fs.receive_chunk(f, ByteSpan(payload.data(), payload.size()))
                 .ok()) {
          std::exit(1);
        }
      }
    }
    fs.end_file();
    if (!fs.end_job().ok()) std::exit(1);
  };
  ingest(1, 0, 80);
  if (!cluster.run_dedup2(/*force_siu=*/true).ok()) std::exit(1);
  ingest(2, 40, 80);
  if (!cluster.run_dedup2(/*force_siu=*/true).ok()) std::exit(1);
  return cluster.transport_stats();
}

/// The socket wire is the encoded frame, nothing more: the same workload
/// over real TCP must meter exactly the bytes the loopback model charges.
void print_socket_parity() {
  std::printf("\n=== Socket transport parity (dedup-2 wire bytes, 2 servers) "
              "===\n");
  const net::TransportStats modeled =
      parity_run(std::make_shared<net::LoopbackTransportFactory>());
  const net::TransportStats measured =
      parity_run(std::make_shared<net::SocketTransportFactory>(
          net::AddressMap{}));
  // Per-type rows compare the raw (paper-model) ledger: it is invariant
  // under the wire codec, so this parity check holds whether the codec
  // is on or off. The wire totals must also agree — both legs run the
  // same (deterministic) codec configuration.
  std::printf("%-12s | %18s | %18s\n", "message type", "loopback (modeled)",
              "socket (measured)");
  const struct {
    const char* name;
    net::MessageType type;
  } rows[] = {{"fp batch", net::MessageType::kFingerprintBatch},
              {"verdict", net::MessageType::kVerdictBatch},
              {"entry", net::MessageType::kIndexEntryBatch}};
  for (const auto& row : rows) {
    const auto t = static_cast<std::size_t>(row.type);
    std::printf("%-12s | %18llu | %18llu\n", row.name,
                static_cast<unsigned long long>(modeled.raw_bytes_by_type[t]),
                static_cast<unsigned long long>(
                    measured.raw_bytes_by_type[t]));
  }
  std::printf("raw sent     | %18llu | %18llu\n",
              static_cast<unsigned long long>(modeled.raw_bytes_sent),
              static_cast<unsigned long long>(measured.raw_bytes_sent));
  std::printf("wire sent    | %18llu | %18llu  (%s)\n",
              static_cast<unsigned long long>(modeled.bytes_sent),
              static_cast<unsigned long long>(measured.bytes_sent),
              modeled.raw_bytes_sent == measured.raw_bytes_sent &&
                      modeled.bytes_sent == measured.bytes_sent &&
                      modeled.bytes_delivered == measured.bytes_delivered
                  ? "parity"
                  : "MISMATCH");
}

void BM_Fig14_Write(benchmark::State& state) {
  const double tb = kSizesTb[state.range(0)];
  WritePoint p{};
  for (auto _ : state) {
    ClusterRun run = run_write(tb);
    p = run.write;
    benchmark::DoNotOptimize(p);
  }
  state.counters["index_TB"] = tb;
  state.counters["d1_GBps"] = p.d1_gbps;
  state.counters["d2_GBps"] = p.d2_gbps;
  state.counters["total_GBps"] = p.total_gbps;
}
BENCHMARK(BM_Fig14_Write)->DenseRange(0, 4)->Iterations(1)
    ->Unit(benchmark::kSecond);

void BM_Fig14_Read(benchmark::State& state) {
  std::vector<double> reads;
  for (auto _ : state) {
    ClusterRun run = run_write(2, /*scaled_index=*/false);
    reads = run_read(run);
    benchmark::DoNotOptimize(reads);
  }
  state.counters["v1_MBps"] = reads.front();
  state.counters["vLast_MBps"] = reads.back();
}
BENCHMARK(BM_Fig14_Read)->Iterations(1)->Unit(benchmark::kSecond);

}  // namespace

int main(int argc, char** argv) {
  print_tables();
  print_socket_parity();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
