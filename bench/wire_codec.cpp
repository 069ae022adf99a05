// Wire-codec perf trajectory: the fig14-style cluster workload run over
// {loopback, socket} x {codec off, codec on}, verifying byte-identical
// restores and emitting machine-readable BENCH_wire.json (wire bytes and
// wall-clock, before/after) — the seed of the repo's perf trajectory
// (ROADMAP item 1).
//
//   bench_wire_codec [--out <path>]     measure and write the JSON
//   bench_wire_codec --check <path>     re-measure and gate against a
//                                       checked-in baseline
//
// The gates are declared in measure(); bench/report.hpp applies them.
// Wire bytes are deterministic up to a few container-ID delta bytes
// (phase D allocates container IDs across concurrent origins), which is
// why the wire-bytes gate uses a tolerance instead of equality.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "net/transport_factory.hpp"
#include "report.hpp"
#include "workload/fingerprint_stream.hpp"

namespace {

using namespace debar;

constexpr unsigned kRoutingBits = 2;  // 4 servers
constexpr std::size_t kServers = 1u << kRoutingBits;
constexpr std::size_t kStreamsPerServer = 2;
constexpr std::size_t kStreams = kServers * kStreamsPerServer;
constexpr unsigned kVersions = 3;
constexpr std::uint64_t kChunksPerVersion = 256;  // per stream
constexpr std::uint32_t kChunkSize = 2048;

struct Leg {
  const char* transport;
  const char* codec;
  net::TransportStats stats;
  double wall_seconds = 0;
  std::vector<Byte> restored;  // all restored bytes, every stream/version
};

Leg run_leg(bool socket, bool codec_on) {
  Leg leg;
  leg.transport = socket ? "socket" : "loopback";
  leg.codec = codec_on ? "on" : "off";

  core::ClusterConfig cfg;
  cfg.routing_bits = kRoutingBits;
  cfg.repository_nodes = 4;
  cfg.server_config.index_params = {.prefix_bits = 10,
                                    .blocks_per_bucket = 16};
  cfg.server_config.filter_params = {.hash_bits = 14, .capacity = 1 << 22};
  cfg.server_config.chunk_store.cache_params = {.hash_bits = 8,
                                                .capacity = 1 << 24};
  cfg.server_config.chunk_store.io_buckets = 256;
  cfg.server_config.chunk_store.siu_threshold = 1;
  if (codec_on) cfg.wire_codec = net::WireCodecConfig::enabled();
  if (socket) {
    cfg.transport_factory =
        std::make_shared<net::SocketTransportFactory>(net::AddressMap{});
  }

  const auto start = std::chrono::steady_clock::now();
  core::Cluster cluster(std::move(cfg));

  workload::SubspaceRegistry registry(3);  // 8 stream subspaces
  std::vector<std::unique_ptr<workload::VersionedStream>> streams;
  std::vector<std::uint64_t> jobs;
  for (std::size_t s = 0; s < kStreams; ++s) {
    streams.push_back(std::make_unique<workload::VersionedStream>(
        &registry, workload::StreamParams{.stream_id = s,
                                          .dup_fraction = 0.5,
                                          .cross_fraction = 0.3,
                                          .seed = 1414}));
    jobs.push_back(
        cluster.director().define_job("c" + std::to_string(s), "stream"));
  }

  for (unsigned v = 1; v <= kVersions; ++v) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::size_t srv = s / kStreamsPerServer;
      core::FileStore& fs = cluster.server(srv).file_store();
      const std::vector<Fingerprint> fps =
          streams[s]->next_version(kChunksPerVersion);
      fs.begin_job(jobs[s]);
      fs.begin_file({.path = "v" + std::to_string(v),
                     .size = fps.size() * kChunkSize,
                     .mtime = 0,
                     .mode = 0644});
      for (const Fingerprint& fp : fps) {
        if (fs.offer_fingerprint(fp, kChunkSize)) {
          const auto payload =
              core::BackupEngine::synthetic_payload(fp, kChunkSize);
          if (!fs.receive_chunk(fp, ByteSpan(payload.data(), payload.size()))
                   .ok()) {
            std::fprintf(stderr, "receive_chunk failed\n");
            std::exit(1);
          }
        }
      }
      fs.end_file();
      if (!fs.end_job().ok()) std::exit(1);
    }
    const auto result = cluster.run_dedup2(/*force_siu=*/true);
    if (!result.ok()) {
      std::fprintf(stderr, "dedup-2 failed: %s\n",
                   result.error().to_string().c_str());
      std::exit(1);
    }
  }

  // Restore every version through the stream's own server: ChunkData
  // (and cross-owner locate traffic) all crosses the metered wire.
  for (std::size_t s = 0; s < kStreams; ++s) {
    for (unsigned v = 1; v <= kVersions; ++v) {
      const auto restored =
          cluster.restore(jobs[s], v, s / kStreamsPerServer);
      if (!restored.ok()) {
        std::fprintf(stderr, "restore %zu/v%u failed: %s\n", s, v,
                     restored.error().to_string().c_str());
        std::exit(1);
      }
      for (const auto& f : restored.value().files) {
        leg.restored.insert(leg.restored.end(), f.content.begin(),
                            f.content.end());
      }
    }
  }

  leg.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
  leg.stats = cluster.transport_stats();
  return leg;
}

double reduction(const Leg& off, const Leg& on) {
  return 1.0 - static_cast<double>(on.stats.bytes_sent) /
                   static_cast<double>(off.stats.bytes_sent);
}

/// The four legs, in the order the JSON lists them: loopback off,
/// loopback on, socket off, socket on.
bench::Outcome measure() {
  bench::Outcome outcome;
  bench::Report& report = outcome.report;
  report.bench = "wire_codec";
  report.workload = {{"servers", bench::count(kServers)},
                     {"streams", bench::count(kStreams)},
                     {"versions", bench::count(kVersions)},
                     {"chunks_per_version", bench::count(kChunksPerVersion)},
                     {"chunk_bytes", bench::count(kChunkSize)}};
  for (const bool socket : {false, true}) {
    const Leg off = run_leg(socket, /*codec_on=*/false);
    const Leg on = run_leg(socket, /*codec_on=*/true);
    if (on.restored != off.restored || on.restored.empty()) {
      std::fprintf(stderr, "%s: codec-on restore differs from codec-off\n",
                   on.transport);
      std::exit(1);
    }
    if (on.stats.raw_bytes_sent != off.stats.raw_bytes_sent) {
      std::fprintf(stderr, "%s: raw ledger moved with the codec\n",
                   on.transport);
      std::exit(1);
    }
    std::printf("%-8s raw %llu B; wire %llu -> %llu B (%.1f%% reduction); "
                "wall %.2fs -> %.2fs\n",
                on.transport,
                static_cast<unsigned long long>(on.stats.raw_bytes_sent),
                static_cast<unsigned long long>(off.stats.bytes_sent),
                static_cast<unsigned long long>(on.stats.bytes_sent),
                reduction(off, on) * 100.0, off.wall_seconds,
                on.wall_seconds);
    for (const Leg* leg : {&off, &on}) {
      report.runs.push_back(
          {{"transport", bench::label(leg->transport)},
           {"codec", bench::label(leg->codec)},
           {"raw_bytes", bench::count(leg->stats.raw_bytes_sent)},
           {"wire_bytes", bench::count(leg->stats.bytes_sent)},
           {"frames", bench::count(leg->stats.frames_sent)},
           {"wall_seconds", bench::number(leg->wall_seconds, 3)}});
    }
    const std::string name = on.transport;
    report.metrics.push_back(
        {name + "_reduction", bench::number(reduction(off, on), 4)});
    report.metrics.push_back({name + "_codec_on_wire_bytes",
                              bench::count(on.stats.bytes_sent)});
    // Only the codec-on legs gate on the baseline: the off legs are the
    // paper-model wire, pinned exactly by cluster_exchange_test already.
    outcome.gates.push_back({.metric = name + "_reduction",
                             .better = bench::Better::kHigher,
                             .bar = 0.30});
    outcome.gates.push_back({.metric = name + "_codec_on_wire_bytes",
                             .better = bench::Better::kLower,
                             .tolerance = 0.05});
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "BENCH_wire.json", measure);
}
