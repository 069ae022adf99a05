// Retention / restore-locality trajectory (DESIGN.md §5k): an
// incremental chain ages until the newest versions reference chunks from
// a dozen generations of containers, then a MaintenanceJob round expires
// the old versions and re-sequences the survivors. Emits
// BENCH_retention.json: modeled restore throughput per version age,
// before and after the round.
//
//   bench_retention [--out <path>]     measure and write the JSON
//   bench_retention --check <path>     re-measure and gate against a
//                                      checked-in baseline
//
// The gates are declared in measure(); bench/report.hpp applies them.
// Restore time is charged on the paper's chunk-log disk model — one
// positioning cost per container switch plus sequential transfer — so
// the measurement is deterministic (a property of chunk placement, not
// of the CI runner) and the gate runs in every build configuration.
#include <cstdio>
#include <string>
#include <vector>

#include "common/sha1.hpp"
#include "core/backup_engine.hpp"
#include "core/maintenance.hpp"
#include "report.hpp"
#include "sim/disk_model.hpp"

namespace {

using namespace debar;

constexpr unsigned kVersions = 12;
constexpr std::uint64_t kChunksPerVersion = 2048;
constexpr std::uint32_t kChunkSize = 4096;
constexpr unsigned kRewritePeriod = 8;  // position i churns when v%8==i%8
constexpr std::uint32_t kKeepLast = 4;
constexpr double kAgedBar = 1.25;  // aged-after within 1.25x of fresh

/// The chunk at logical position `i` as of version `v`: rewritten
/// whenever v % kRewritePeriod == i % kRewritePeriod, so a mature
/// version interleaves chunks from kRewritePeriod generations and every
/// consecutive pair lands in containers written minutes apart.
Fingerprint chunk_fp(std::uint64_t i, unsigned v) {
  unsigned gen = 1;
  for (unsigned g = 2; g <= v; ++g) {
    if (g % kRewritePeriod == i % kRewritePeriod) gen = g;
  }
  return Sha1::hash_counter(i * 1000003 + gen);
}

struct VersionCost {
  unsigned version = 0;
  std::uint64_t container_switches = 0;
  double seconds = 0;
  double mbps = 0;
};

/// Modeled restore cost of one version: walk its chunk sequence through
/// the index, charge one positioning cost per container switch and
/// sequential transfer for the bytes.
VersionCost restore_cost(core::BackupServer& server, unsigned v) {
  const sim::DiskProfile disk = sim::DiskProfile::PaperChunkLog();
  VersionCost cost;
  cost.version = v;
  ContainerId prev{};
  bool first = true;
  for (std::uint64_t i = 0; i < kChunksPerVersion; ++i) {
    const auto cid = server.chunk_store().locate(chunk_fp(i, v));
    if (!cid.ok()) {
      std::fprintf(stderr, "v%u chunk %llu unlocatable: %s\n", v,
                   static_cast<unsigned long long>(i),
                   cid.error().to_string().c_str());
      std::exit(1);
    }
    if (first || !(cid.value() == prev)) {
      ++cost.container_switches;
      prev = cid.value();
      first = false;
    }
  }
  const double bytes = static_cast<double>(kChunksPerVersion) * kChunkSize;
  cost.seconds =
      static_cast<double>(cost.container_switches) * disk.seek_seconds +
      bytes / disk.transfer_bytes_per_sec;
  cost.mbps = bytes / cost.seconds / 1e6;
  return cost;
}

bench::Fields run_row(const char* phase, const VersionCost& cost) {
  return {{"phase", bench::label(phase)},
          {"version", bench::count(cost.version)},
          {"container_switches", bench::count(cost.container_switches)},
          {"seconds", bench::number(cost.seconds, 4)},
          {"mbps", bench::number(cost.mbps, 1)}};
}

bench::Outcome measure() {
  // Four storage nodes so mature versions also scatter across nodes —
  // the locality pass's default trigger (nodes touched > 1).
  storage::ChunkRepository repository(4);
  core::Director director({.retention = {.keep_last = kKeepLast}});
  core::BackupServerConfig config;
  config.index_params = {.prefix_bits = 10, .blocks_per_bucket = 8};
  config.chunk_store.siu_threshold = 1;
  config.container_capacity = 64 * 1024;
  core::BackupServer server(0, config, &repository, &director);

  const std::uint64_t job = director.define_job("aging-chain", "d");
  for (unsigned v = 1; v <= kVersions; ++v) {
    director.set_current_day(v);
    core::FileStore& fs = server.file_store();
    fs.begin_job(job);
    fs.begin_file({.path = "tree",
                   .size = kChunksPerVersion * kChunkSize,
                   .mtime = 0,
                   .mode = 0644});
    for (std::uint64_t i = 0; i < kChunksPerVersion; ++i) {
      const Fingerprint fp = chunk_fp(i, v);
      if (fs.offer_fingerprint(fp, kChunkSize)) {
        const auto payload =
            core::BackupEngine::synthetic_payload(fp, kChunkSize);
        if (!fs.receive_chunk(fp, ByteSpan(payload.data(), payload.size()))
                 .ok()) {
          std::fprintf(stderr, "v%u receive_chunk failed\n", v);
          std::exit(1);
        }
      }
    }
    fs.end_file();
    if (!fs.end_job().ok()) std::exit(1);
    if (const auto r = server.run_dedup2(/*force_siu=*/true); !r.ok()) {
      std::fprintf(stderr, "v%u dedup-2 failed: %s\n", v,
                   r.error().to_string().c_str());
      std::exit(1);
    }
  }

  std::vector<VersionCost> before;  // v1..vN, pre-maintenance
  for (unsigned v = 1; v <= kVersions; ++v) {
    before.push_back(restore_cost(server, v));
  }
  // v1 restored off its own sequential pass.
  const double fresh_mbps = before.front().mbps;

  core::MaintenanceJob maintenance(director, server, repository,
                                   {.container_capacity = 64 * 1024});
  if (const Status s = maintenance.execute(); !s.ok()) {
    std::fprintf(stderr, "maintenance failed: %s\n", s.to_string().c_str());
    std::exit(1);
  }
  const core::MaintenanceReport round = maintenance.report();
  if (round.versions_expired != kVersions - kKeepLast) {
    std::fprintf(stderr, "expected %u expired versions, got %llu\n",
                 kVersions - kKeepLast,
                 static_cast<unsigned long long>(round.versions_expired));
    std::exit(1);
  }

  std::vector<VersionCost> after;  // survivors only, post-maintenance
  for (unsigned v = kVersions - kKeepLast + 1; v <= kVersions; ++v) {
    after.push_back(restore_cost(server, v));
  }
  // The gated pair is the NEWEST version — the restore-critical one, and
  // the one the locality pass re-sequences first (older survivors share
  // chunks with it, so they improve but keep some interleaving; the JSON
  // carries their full curves).
  const double aged_before_mbps = before.back().mbps;
  const double aged_after_mbps = after.back().mbps;

  std::printf("fresh (v1, sequential): %.1f MB/s\n", fresh_mbps);
  std::printf("aged before round (newest version): %.1f MB/s\n",
              aged_before_mbps);
  std::printf("aged after round  (newest version): %.1f MB/s "
              "(bar: >= fresh / %.2f)\n",
              aged_after_mbps, kAgedBar);
  std::printf("round: expired %llu, rewrote %llu versions "
              "(%llu chunks), reclaimed %.1f MiB\n",
              static_cast<unsigned long long>(round.versions_expired),
              static_cast<unsigned long long>(round.versions_rewritten),
              static_cast<unsigned long long>(round.chunks_rewritten),
              static_cast<double>(round.bytes_reclaimed) / (1 << 20));

  bench::Outcome outcome;
  bench::Report& report = outcome.report;
  report.bench = "retention";
  report.workload = {{"versions", bench::count(kVersions)},
                     {"chunks_per_version", bench::count(kChunksPerVersion)},
                     {"chunk_bytes", bench::count(kChunkSize)},
                     {"rewrite_period", bench::count(kRewritePeriod)},
                     {"keep_last", bench::count(kKeepLast)}};
  for (const VersionCost& cost : before) {
    report.runs.push_back(run_row("before", cost));
  }
  for (const VersionCost& cost : after) {
    report.runs.push_back(run_row("after", cost));
  }
  report.metrics = {
      {"versions_expired", bench::count(round.versions_expired)},
      {"versions_rewritten", bench::count(round.versions_rewritten)},
      {"chunks_rewritten", bench::count(round.chunks_rewritten)},
      {"bytes_reclaimed", bench::count(round.bytes_reclaimed)},
      {"fresh_mbps", bench::number(fresh_mbps, 1)},
      {"aged_before_mbps", bench::number(aged_before_mbps, 1)},
      {"aged_after_mbps", bench::number(aged_after_mbps, 1)}};
  outcome.gates = {{.metric = "aged_after_mbps",
                    .better = bench::Better::kHigher,
                    .tolerance = 0.05,
                    .bar = fresh_mbps / kAgedBar}};
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "BENCH_retention.json", measure);
}
