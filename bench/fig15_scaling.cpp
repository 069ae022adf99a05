// Figure 15: write throughput and supported capacity of multi-server
// DEBAR, for 1..16 backup servers and per-server index parts of 32 GB and
// 64 GB (the paper's first ten run modes).
//
// Expectation (the paper's headline scalability claim): aggregate write
// throughput and total capacity both grow linearly with the number of
// servers; the larger index part supports double the capacity at a lower
// throughput (PSIL/PSIU take twice as long).
//
// Paper reference points: throughput-32GB reaches ~4.2 GB/s at 16
// servers; capacity: 32 GB part ~ 10 TB, so 16 x 64 GB ~ 320 TB.
//
// --scale-out runs the elastic trajectory instead (DESIGN.md §5j): a
// w=1 cluster ingests half the trace, splits live to w=2, and ingests
// the rest; emits BENCH_elastic.json. --scale-out --check <path>
// re-measures and gates the post-split speedup against the baseline
// (gates declared in measure_scale_out(), applied by bench/report.hpp).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "report.hpp"
#include "workload/fingerprint_stream.hpp"

namespace {

using namespace debar;

constexpr unsigned kPartPrefixBits = 10;
constexpr std::uint64_t kActualPartBytes =
    (std::uint64_t{1} << kPartPrefixBits) * 16 * kIndexBlockSize;
constexpr std::uint32_t kChunkSize = kExpectedChunkSize;
constexpr unsigned kVersions = 3;
constexpr std::uint64_t kChunksPerVersionPerServer = 2500;
// Paper data:index proportion for this experiment: each server ingests
// 10 x 50 GB = 500 GB against a 32/64 GB part -> ratios ~16:1 and ~8:1.
constexpr double kDataToIndex32 = 16.0;

struct ModeResult {
  unsigned servers;
  unsigned part_gb;
  double write_gbps;
  double capacity_tb;  // paper-scale capacity this mode supports
};

ModeResult run_mode(unsigned routing_bits, unsigned part_gb) {
  const unsigned servers = 1u << routing_bits;
  const double per_server_logical =
      static_cast<double>(kVersions) * kChunksPerVersionPerServer * kChunkSize;
  const std::uint64_t modeled_part_bytes = static_cast<std::uint64_t>(
      per_server_logical / kDataToIndex32 * (part_gb / 32.0));

  core::ClusterConfig cfg;
  cfg.routing_bits = routing_bits;
  cfg.repository_nodes = std::max<std::size_t>(4, servers);
  cfg.server_config.index_params = {.prefix_bits = kPartPrefixBits,
                                    .blocks_per_bucket = 16};
  cfg.server_config.index_profile =
      sim::DiskProfile::PaperRaid().scaled_to(modeled_part_bytes,
                                              kActualPartBytes);
  cfg.server_config.filter_params = {.hash_bits = 14, .capacity = 1 << 22};
  cfg.server_config.chunk_store.cache_params = {.hash_bits = 8,
                                                .capacity = 1 << 24};
  cfg.server_config.chunk_store.io_buckets = 256;
  cfg.server_config.chunk_store.siu_threshold = 1 << 30;
  core::Cluster cluster(cfg);

  workload::SubspaceRegistry registry(6);  // up to 64 streams
  std::vector<std::unique_ptr<workload::VersionedStream>> streams;
  std::vector<std::uint64_t> jobs;
  for (std::size_t s = 0; s < servers; ++s) {
    streams.push_back(std::make_unique<workload::VersionedStream>(
        &registry, workload::StreamParams{.stream_id = s,
                                          .dup_fraction = 0.9,
                                          .cross_fraction = 0.3,
                                          .seed = 1515}));
    jobs.push_back(
        cluster.director().define_job("c" + std::to_string(s), "stream"));
  }

  auto backup_version = [&](unsigned v) {
    for (std::size_t s = 0; s < servers; ++s) {
      const auto fps = streams[s]->next_version(kChunksPerVersionPerServer);
      core::FileStore& fs = cluster.server(s).file_store();
      fs.begin_job(jobs[s]);
      fs.begin_file({.path = "v" + std::to_string(v),
                     .size = fps.size() * kChunkSize, .mtime = 0,
                     .mode = 0644});
      for (const Fingerprint& fp : fps) {
        if (fs.offer_fingerprint(fp, kChunkSize)) {
          const auto payload =
              core::BackupEngine::synthetic_payload(fp, kChunkSize);
          if (!fs.receive_chunk(fp, ByteSpan(payload.data(), payload.size()))
                   .ok()) {
            std::exit(1);
          }
        }
      }
      fs.end_file();
      if (!fs.end_job().ok()) std::exit(1);
    }
  };

  // Warm-up version, then measured versions.
  backup_version(0);
  if (!cluster.run_dedup2(true).ok()) std::exit(1);
  cluster.reset_clocks();

  double logical = 0, elapsed = 0;
  for (unsigned v = 1; v <= kVersions; ++v) {
    std::vector<core::ServerClocks> before(servers);
    for (std::size_t s = 0; s < servers; ++s) {
      before[s] = cluster.server(s).clocks();
    }
    backup_version(v);
    logical += static_cast<double>(servers) * kChunksPerVersionPerServer *
               kChunkSize;
    double d1 = 0;
    for (std::size_t s = 0; s < servers; ++s) {
      const core::ServerClocks now = cluster.server(s).clocks();
      d1 = std::max(d1, std::max(now.nic - before[s].nic,
                                 now.log_disk - before[s].log_disk));
    }
    elapsed += d1;
    const auto result = cluster.run_dedup2(/*force_siu=*/v % 2 == 0);
    if (!result.ok()) std::exit(1);
    elapsed += result.value().total_seconds();
  }

  // Capacity: a 32 GB part indexes ~10 TB of 8 KB chunks (Section 5.2).
  const double capacity_tb = servers * (part_gb / 32.0) * 10.0;
  return {.servers = servers,
          .part_gb = part_gb,
          .write_gbps = logical / elapsed / 1e9,
          .capacity_tb = capacity_tb};
}

void print_table() {
  std::printf("\n=== Figure 15: write throughput and capacity vs number of "
              "servers ===\n");
  std::printf("servers | tput-32GB (GB/s) | tput-64GB (GB/s) | cap-32GB "
              "(TB) | cap-64GB (TB)\n");
  for (unsigned w = 0; w <= 4; ++w) {
    const ModeResult m32 = run_mode(w, 32);
    const ModeResult m64 = run_mode(w, 64);
    std::printf("%7u | %16.2f | %16.2f | %13.0f | %12.0f\n", m32.servers,
                m32.write_gbps, m64.write_gbps, m32.capacity_tb,
                m64.capacity_tb);
  }
  std::printf("paper: both throughput curves grow linearly to ~4.2 GB/s "
              "(32 GB parts) at 16 servers; capacity doubles with part "
              "size (10 TB per 32 GB part)\n\n");
}

// ---- Elastic scale-out trajectory (DESIGN.md §5j) ----
//
// Weak scaling, like Figure 15 itself: a w=1 cluster serves four client
// streams (two per server); mid-trace the cluster splits live to w=2
// and four MORE streams attach, so each server is back to two. Aggregate
// write throughput should roughly double while the round time holds —
// SIL/SIU sweep a fixed-size index part per server, so per-server phase
// time is constant by design and scale-out is the only way to grow the
// fleet's ingest rate. Both phases are timed on the modeled device
// clocks — fully deterministic — so the speedup is a property of the
// system, not of the CI runner, and the --check gate can be tight.

constexpr std::size_t kElasticStreamsBefore = 4;
constexpr std::size_t kElasticStreamsAfter = 8;
constexpr unsigned kElasticVersionsPerPhase = 3;
constexpr std::uint64_t kElasticChunksPerVersion = 2000;  // per stream

bench::Outcome measure_scale_out() {
  core::ClusterConfig cfg;
  cfg.routing_bits = 1;
  cfg.repository_nodes = 4;
  cfg.server_config.index_params = {.prefix_bits = kPartPrefixBits,
                                    .blocks_per_bucket = 16};
  cfg.server_config.filter_params = {.hash_bits = 14, .capacity = 1 << 22};
  cfg.server_config.chunk_store.cache_params = {.hash_bits = 8,
                                                .capacity = 1 << 24};
  cfg.server_config.chunk_store.io_buckets = 256;
  // SIU every round: the split's migration preconditions require zero
  // pending entries, and it keeps the two phases symmetric.
  cfg.server_config.chunk_store.siu_threshold = 1;
  core::Cluster cluster(cfg);

  workload::SubspaceRegistry registry(3);  // 8 stream subspaces
  std::vector<std::unique_ptr<workload::VersionedStream>> streams;
  std::vector<std::uint64_t> jobs;
  for (std::size_t s = 0; s < kElasticStreamsAfter; ++s) {
    streams.push_back(std::make_unique<workload::VersionedStream>(
        &registry, workload::StreamParams{.stream_id = s,
                                          .dup_fraction = 0.5,
                                          .cross_fraction = 0.3,
                                          .seed = 1616}));
    jobs.push_back(
        cluster.director().define_job("c" + std::to_string(s), "stream"));
  }

  // The attached stream population spreads evenly over the current
  // fleet: two per server in both phases.
  auto backup_version = [&](unsigned v, std::size_t active_streams) {
    const std::size_t servers = cluster.server_count();
    for (std::size_t s = 0; s < active_streams; ++s) {
      const std::size_t srv = s * servers / active_streams;
      const auto fps = streams[s]->next_version(kElasticChunksPerVersion);
      core::FileStore& fs = cluster.server(srv).file_store();
      fs.begin_job(jobs[s]);
      fs.begin_file({.path = "v" + std::to_string(v),
                     .size = fps.size() * kChunkSize, .mtime = 0,
                     .mode = 0644});
      for (const Fingerprint& fp : fps) {
        if (fs.offer_fingerprint(fp, kChunkSize)) {
          const auto payload =
              core::BackupEngine::synthetic_payload(fp, kChunkSize);
          if (!fs.receive_chunk(fp, ByteSpan(payload.data(), payload.size()))
                   .ok()) {
            std::exit(1);
          }
        }
      }
      fs.end_file();
      if (!fs.end_job().ok()) std::exit(1);
    }
  };

  // Modeled seconds for one phase: per version, ingest elapsed is the
  // slowest server's NIC/log progress, then the round's own total.
  auto timed_phase = [&](unsigned first_v, std::size_t active_streams) {
    double elapsed = 0;
    for (unsigned v = first_v; v < first_v + kElasticVersionsPerPhase; ++v) {
      const std::size_t n = cluster.server_count();
      std::vector<core::ServerClocks> before(n);
      for (std::size_t s = 0; s < n; ++s) {
        before[s] = cluster.server(s).clocks();
      }
      backup_version(v, active_streams);
      double d1 = 0;
      for (std::size_t s = 0; s < n; ++s) {
        const core::ServerClocks now = cluster.server(s).clocks();
        d1 = std::max(d1, std::max(now.nic - before[s].nic,
                                   now.log_disk - before[s].log_disk));
      }
      elapsed += d1;
      const auto result = cluster.run_dedup2(/*force_siu=*/true);
      if (!result.ok()) {
        std::fprintf(stderr, "dedup-2 failed: %s\n",
                     result.error().to_string().c_str());
        std::exit(1);
      }
      elapsed += result.value().total_seconds();
    }
    return elapsed;
  };

  backup_version(0, kElasticStreamsBefore);  // warm-up
  if (!cluster.run_dedup2(true).ok()) std::exit(1);

  const double logical_per_stream = static_cast<double>(
      kElasticVersionsPerPhase) * kElasticChunksPerVersion * kChunkSize;
  const std::size_t servers_before = cluster.server_count();
  const double gbps_before = kElasticStreamsBefore * logical_per_stream /
                             timed_phase(1, kElasticStreamsBefore) / 1e9;

  const Status split = cluster.split();
  if (!split.ok()) {
    std::fprintf(stderr, "mid-trace split failed: %s\n",
                 split.message().c_str());
    std::exit(1);
  }
  const std::size_t servers_after = cluster.server_count();
  const double gbps_after = kElasticStreamsAfter * logical_per_stream /
                            timed_phase(1 + kElasticVersionsPerPhase,
                                        kElasticStreamsAfter) / 1e9;
  const double speedup = gbps_after / gbps_before;

  // Fidelity: every stream's final version restores through the last
  // split-added server (the whole trace, including pre-split data, must
  // be reachable from the new topology).
  for (std::size_t s = 0; s < kElasticStreamsAfter; ++s) {
    const std::uint32_t last_version =
        s < kElasticStreamsBefore ? 1 + 2 * kElasticVersionsPerPhase
                                  : kElasticVersionsPerPhase;
    const auto restored =
        cluster.restore(jobs[s], last_version, servers_after - 1);
    if (!restored.ok()) {
      std::fprintf(stderr, "post-split restore of stream %zu failed: %s\n",
                   s, restored.error().to_string().c_str());
      std::exit(1);
    }
  }

  std::printf("scale-out: %zu servers %.3f GB/s -> %zu servers %.3f GB/s "
              "(speedup %.2fx)\n",
              servers_before, gbps_before, servers_after, gbps_after,
              speedup);

  bench::Outcome outcome;
  outcome.report = {
      .bench = "elastic_scale_out",
      .workload = {{"streams_before", bench::count(kElasticStreamsBefore)},
                   {"streams_after", bench::count(kElasticStreamsAfter)},
                   {"versions_per_phase",
                    bench::count(kElasticVersionsPerPhase)},
                   {"chunks_per_version",
                    bench::count(kElasticChunksPerVersion)},
                   {"chunk_bytes", bench::count(kChunkSize)}},
      .metrics = {{"before_servers", bench::count(servers_before)},
                  {"before_write_gbps", bench::number(gbps_before, 4)},
                  {"after_servers", bench::count(servers_after)},
                  {"after_write_gbps", bench::number(gbps_after, 4)},
                  {"speedup", bench::number(speedup, 4)}}};
  // The measurement is on modeled clocks, so it is deterministic; the 5%
  // tolerance only absorbs intentional model retunes, not runner noise.
  outcome.gates = {{.metric = "speedup",
                    .better = bench::Better::kHigher,
                    .tolerance = 0.05,
                    .bar = 1.5}};
  return outcome;
}

void BM_Fig15_Scaling(benchmark::State& state) {
  const unsigned w = static_cast<unsigned>(state.range(0));
  const unsigned part_gb = state.range(1) == 0 ? 32 : 64;
  ModeResult m{};
  for (auto _ : state) {
    m = run_mode(w, part_gb);
    benchmark::DoNotOptimize(m);
  }
  state.counters["servers"] = m.servers;
  state.counters["part_GB"] = m.part_gb;
  state.counters["write_GBps"] = m.write_gbps;
  state.counters["capacity_TB"] = m.capacity_tb;
}
BENCHMARK(BM_Fig15_Scaling)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}})
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scale-out") == 0) {
      return bench::bench_main(argc, argv, "BENCH_elastic.json",
                               measure_scale_out);
    }
  }
  print_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
