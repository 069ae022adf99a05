// Multi-tenant ingest front-end trajectory (DESIGN.md §5l). Two axes,
// both measured in the deterministic inline mode (lanes == 0), so the
// numbers are properties of the protocol and the DRR arithmetic — not of
// the CI runner — and the gate runs in every build configuration:
//
//   * streaming dedup-1 efficiency: a 32-tenant fleet backs up two
//     generations of near-duplicate data; generation 2's payload bytes
//     on the wire must stay a small fraction of its logical bytes (the
//     whole point of fingerprints-first streaming);
//   * admission fairness: one hog tenant floods the queue with large
//     jobs while small tenants each want one tiny job; the worst small
//     tenant's admission latency in DRR rotations is the gated metric.
//
//   bench_ingest [--out <path>]    measure and write BENCH_ingest.json
//   bench_ingest --check <path>    re-measure and gate against the
//                                  checked-in baseline
//
// The gates are declared in measure(); bench/report.hpp applies them.
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/cluster.hpp"
#include "core/ingest_service.hpp"
#include "report.hpp"
#include "workload/tenant_mix.hpp"

namespace {

using namespace debar;

constexpr std::uint64_t kTenants = 32;
constexpr std::uint32_t kGenerations = 2;
/// Generation 2 rewrites ~1/16 of every file; dedup-1 must suppress the
/// untouched chunks, so the wire carries a small multiple of the delta.
constexpr double kReductionBar = 2.0;

core::ClusterConfig cluster_config() {
  core::ClusterConfig cfg;
  cfg.routing_bits = 1;
  cfg.repository_nodes = 2;
  cfg.server_config.index_params = {.prefix_bits = 8, .blocks_per_bucket = 4};
  cfg.server_config.chunk_store.siu_threshold = 1;
  cfg.server_config.container_capacity = 64 * 1024;
  return cfg;
}

struct GenerationRow {
  std::uint32_t generation = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t transferred_bytes = 0;
  std::uint64_t chunks = 0;
  double reduction = 0;  // logical / transferred
};

struct Measurement {
  std::vector<GenerationRow> generations;
  double gen2_reduction = 0;
  std::uint64_t small_max_rotations = 0;
  std::uint64_t hog_max_rotations = 0;
};

void fail(const char* what, const std::string& detail) {
  std::fprintf(stderr, "%s: %s\n", what, detail.c_str());
  std::exit(1);
}

/// Axis 1: streaming dedup-1 efficiency across backup generations.
void measure_dedup(Measurement& m) {
  core::Cluster cluster(cluster_config());
  // 64 KiB files against 8 KiB expected chunks: each generation's single
  // 512 B edit dirties one or two chunks of ~8, so dedup-1 should
  // suppress most of generation 2 on the wire.
  const workload::TenantMix mix({.tenants = kTenants,
                                 .files_per_tenant = 2,
                                 .file_bytes = 64 * 1024,
                                 .delta_bytes = 512,
                                 .deltas_per_file = 1,
                                 .seed = 21});
  core::IngestService::Config cfg;  // lanes == 0: inline, deterministic
  core::IngestService service(&cluster, cfg);

  for (std::uint32_t g = 0; g < kGenerations; ++g) {
    GenerationRow row;
    row.generation = g + 1;
    std::vector<std::shared_future<Result<core::IngestService::Outcome>>>
        futures;
    for (std::uint64_t t = 0; t < kTenants; ++t) {
      auto fut = service.submit(t, mix.job_id(t), mix.dataset(t, g));
      if (!fut.ok()) fail("submit", fut.error().to_string());
      futures.push_back(fut.value());
    }
    if (Status s = service.run_until_drained(); !s.ok()) {
      fail("run_until_drained", s.to_string());
    }
    for (auto& f : futures) {
      Result<core::IngestService::Outcome> r = f.get();
      if (!r.ok()) fail("job", r.error().to_string());
      row.logical_bytes += r.value().logical_bytes;
      row.transferred_bytes += r.value().transferred_bytes;
      row.chunks += r.value().chunks;
    }
    row.reduction = row.transferred_bytes == 0
                        ? 0.0
                        : static_cast<double>(row.logical_bytes) /
                              static_cast<double>(row.transferred_bytes);
    m.generations.push_back(row);
  }
  if (Status s = service.finalize(); !s.ok()) fail("finalize", s.to_string());
  service.shutdown();
  m.gen2_reduction = m.generations.back().reduction;
}

/// Unique content so the fairness axis stores fresh chunks per job.
core::Dataset unique_dataset(std::uint64_t seed, std::uint64_t bytes) {
  core::Dataset out;
  core::FileData file;
  file.path = "blob-" + std::to_string(seed);
  file.mtime = 0;
  file.content.resize(bytes);
  Xoshiro256 rng(0xB0B0 + seed);
  for (auto& b : file.content) b = static_cast<Byte>(rng());
  out.files.push_back(std::move(file));
  return out;
}

/// Axis 2: DRR fairness under a hog. Deterministic rotation counts.
void measure_fairness(Measurement& m) {
  core::Cluster cluster(cluster_config());
  core::IngestService::Config cfg;
  cfg.limits.drr_quantum = 64 * 1024;
  cfg.limits.tokens_per_rotation = 64 * 1024;
  cfg.limits.burst_bytes = 256 * 1024;
  core::IngestService service(&cluster, cfg);

  std::vector<std::shared_future<Result<core::IngestService::Outcome>>> hog;
  for (int j = 0; j < 8; ++j) {
    auto fut = service.submit(0, 100 + j, unique_dataset(100 + j, 256 * 1024));
    if (!fut.ok()) fail("hog submit", fut.error().to_string());
    hog.push_back(fut.value());
  }
  std::vector<std::shared_future<Result<core::IngestService::Outcome>>> small;
  for (std::uint64_t t = 1; t <= 12; ++t) {
    auto fut = service.submit(t, 200 + t, unique_dataset(200 + t, 4 * 1024));
    if (!fut.ok()) fail("small submit", fut.error().to_string());
    small.push_back(fut.value());
  }
  if (Status s = service.run_until_drained(); !s.ok()) {
    fail("run_until_drained", s.to_string());
  }
  for (auto& f : small) {
    Result<core::IngestService::Outcome> r = f.get();
    if (!r.ok()) fail("small job", r.error().to_string());
    m.small_max_rotations =
        std::max(m.small_max_rotations, r.value().admission_rotations);
  }
  for (auto& f : hog) {
    Result<core::IngestService::Outcome> r = f.get();
    if (!r.ok()) fail("hog job", r.error().to_string());
    m.hog_max_rotations =
        std::max(m.hog_max_rotations, r.value().admission_rotations);
  }
  service.shutdown();
}

bench::Outcome measure() {
  Measurement m;
  measure_dedup(m);
  measure_fairness(m);

  for (const GenerationRow& row : m.generations) {
    std::printf("gen %u: logical %.1f MiB, wire %.1f MiB, reduction %.2fx\n",
                row.generation,
                static_cast<double>(row.logical_bytes) / (1 << 20),
                static_cast<double>(row.transferred_bytes) / (1 << 20),
                row.reduction);
  }
  std::printf("fairness: worst small-tenant wait %llu rotations "
              "(hog tail: %llu)\n",
              static_cast<unsigned long long>(m.small_max_rotations),
              static_cast<unsigned long long>(m.hog_max_rotations));

  bench::Outcome outcome;
  bench::Report& report = outcome.report;
  report.bench = "ingest";
  report.workload = {{"tenants", bench::count(kTenants)},
                     {"generations", bench::count(kGenerations)}};
  for (const GenerationRow& row : m.generations) {
    report.runs.push_back(
        {{"generation", bench::count(row.generation)},
         {"logical_bytes", bench::count(row.logical_bytes)},
         {"transferred_bytes", bench::count(row.transferred_bytes)},
         {"chunks", bench::count(row.chunks)},
         {"reduction", bench::number(row.reduction, 2)}});
  }
  report.metrics = {
      {"gen2_reduction", bench::number(m.gen2_reduction, 2)},
      {"small_max_rotations", bench::count(m.small_max_rotations)},
      {"hog_max_rotations", bench::count(m.hog_max_rotations)}};
  outcome.gates = {
      {.metric = "gen2_reduction",
       .better = bench::Better::kHigher,
       .tolerance = 0.05,
       .bar = kReductionBar},
      // No small tenant may wait more rotations than the baseline
      // recorded, and DRR must keep every small tenant strictly ahead of
      // the hog's tail.
      {.metric = "small_max_rotations",
       .better = bench::Better::kLower,
       .tolerance = 0.0,
       .bar = static_cast<double>(m.hog_max_rotations) - 1}};
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "BENCH_ingest.json", measure);
}
