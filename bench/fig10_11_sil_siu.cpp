// Figures 10 & 11: SIL / SIU cost vs disk index size, and the lookup /
// update rates vs the Venti-style random baseline.
//
//   Fig 10: SIL and SIU wall time for 32..512 GB indexes.
//   Fig 11: fingerprints/s for SIL/SIU with 1/2/3 GB index caches,
//           against random on-disk lookup/update.
//
// Method: the real DiskIndex bulk operations execute over an in-memory
// device whose DiskModel transfer rate is scaled so that streaming the
// small physical structure charges exactly the time the paper's 200 MB/s
// RAID would charge for the full-size index (sim::DiskProfile::scaled_to).
// The fingerprint load is scaled by the same factor, so rates
// (fingerprints per modeled second) are directly comparable to the paper.
//
// Paper reference points: SIL 2.53 min @32 GB -> 38.98 min @512 GB; SIU
// 6.16 -> 97.07 min; SIL-3GB @32 GB ~917 kfp/s; SIU-3GB ~376 kfp/s;
// SIL-1GB @512 GB ~19.7 kfp/s; SIU-1GB ~7.9 kfp/s; random lookup ~522/s,
// random update ~270/s.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string_view>
#include <vector>

#include "baseline/venti_store.hpp"
#include "common/sha1.hpp"
#include "index/disk_index.hpp"
#include "sim/disk_model.hpp"
#include "storage/block_device.hpp"

namespace {

using namespace debar;

// Physical structure: 2^12 buckets x 8 KiB = 32 MiB; modeled sizes are
// multiples of 32 GiB. Fingerprint loads follow the same 1/1024 scale:
// the paper's 1 GB cache holds ~44M fingerprints -> 43K here.
constexpr unsigned kActualPrefixBits = 12;
constexpr std::uint64_t kActualBytes =
    (std::uint64_t{1} << kActualPrefixBits) * 16 * kIndexBlockSize;
constexpr double kScale =
    static_cast<double>(32 * GiB) / static_cast<double>(kActualBytes);
constexpr std::uint64_t kFpsPerGbCache =
    static_cast<std::uint64_t>(44.0e6 / kScale);  // ~43k

struct Setup {
  sim::SimClock clock;
  std::unique_ptr<sim::DiskModel> model;
  std::unique_ptr<index::DiskIndex> index;
};

/// Build an index whose modeled size is `modeled_gib` GiB, pre-loaded to
/// ~50% utilization so SIL has something to find.
Setup make_scaled_index(unsigned modeled_gib) {
  Setup s;
  const std::uint64_t modeled_bytes = std::uint64_t{modeled_gib} * GiB;
  s.model = std::make_unique<sim::DiskModel>(
      sim::DiskProfile::PaperRaid().scaled_to(modeled_bytes, kActualBytes),
      &s.clock);
  auto device = std::make_unique<storage::MemBlockDevice>();
  device->attach_model(s.model.get());
  auto idx = index::DiskIndex::create(
      std::move(device),
      {.prefix_bits = kActualPrefixBits, .blocks_per_bucket = 16});
  s.index = std::make_unique<index::DiskIndex>(std::move(idx).value());

  std::vector<IndexEntry> preload;
  const std::uint64_t count = s.index->params().entry_capacity() / 2;
  preload.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    preload.push_back({Sha1::hash_counter(i), ContainerId{i + 1}});
  }
  std::sort(preload.begin(), preload.end(),
            [](const IndexEntry& a, const IndexEntry& b) { return a.fp < b.fp; });
  const Status st =
      s.index->bulk_insert(std::span<const IndexEntry>(preload), 1024);
  if (!st.ok()) {
    std::fprintf(stderr, "preload failed: %s\n", st.to_string().c_str());
    std::exit(1);
  }
  s.clock.reset();
  return s;
}

std::vector<Fingerprint> cache_load(unsigned cache_gb, std::uint64_t base) {
  std::vector<Fingerprint> fps;
  const std::uint64_t n = cache_gb * kFpsPerGbCache;
  fps.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    fps.push_back(Sha1::hash_counter(base + i));
  }
  std::sort(fps.begin(), fps.end());
  return fps;
}

struct Fig10Row {
  unsigned index_gb;
  double sil_minutes;
  double siu_minutes;
  double sil_fps[3];  // 1/2/3 GB cache, fingerprints per modeled second
  double siu_fps[3];
};

Fig10Row measure(unsigned index_gb) {
  Fig10Row row{};
  row.index_gb = index_gb;
  const double gb_factor = index_gb / 32.0;

  for (unsigned cache_gb = 1; cache_gb <= 3; ++cache_gb) {
    // --- SIL: lookups for cache_gb worth of fingerprints (half hit). ---
    Setup s = make_scaled_index(index_gb);
    const auto queries = cache_load(
        cache_gb, s.index->params().entry_capacity() / 4);  // mixed hit/miss
    std::uint64_t found = 0;
    const Status sil = s.index->bulk_lookup(
        std::span<const Fingerprint>(queries),
        [&](std::size_t, ContainerId) { ++found; }, 1024);
    if (!sil.ok()) std::exit(2);
    const double sil_seconds = s.clock.seconds();
    if (cache_gb == 1) row.sil_minutes = sil_seconds / 60.0;
    // Rates are reported at paper scale: paper-fingerprints / second.
    row.sil_fps[cache_gb - 1] =
        static_cast<double>(queries.size()) * kScale / sil_seconds;

    // --- SIU: insert cache_gb worth of fresh fingerprints. ---
    Setup u = make_scaled_index(index_gb);
    std::vector<IndexEntry> entries;
    const auto fresh = cache_load(cache_gb, 1'000'000'000ULL);
    entries.reserve(fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      entries.push_back({fresh[i], ContainerId{i + 1}});
    }
    const Status siu =
        u.index->bulk_insert(std::span<const IndexEntry>(entries), 1024);
    if (siu.code() == Errc::kIoError) std::exit(3);
    const double siu_seconds = u.clock.seconds();
    if (cache_gb == 1) row.siu_minutes = siu_seconds / 60.0;
    row.siu_fps[cache_gb - 1] =
        static_cast<double>(entries.size()) * kScale / siu_seconds;
  }
  (void)gb_factor;
  return row;
}

const unsigned kSizes[] = {32, 64, 128, 256, 512};

// ---------------------------------------------------------------------------
// --threads axis: modeled scaling of the parallel dedup-2 pipeline.
//
// Wall-clock scaling is meaningless on a small CI container, so the axis
// reports modeled striped critical-path time: the bucket spans of one
// SIL/SIU scan are split into `threads` contiguous shards by the index's
// own index::shard_plan — the plan DiskIndex::bulk_lookup runs — and each
// shard's span accesses (index::span_geom) are replayed on its own
// DiskModel arm. The phase finishes when the slowest arm does, so
// reported seconds = max over arms. threads=1 reproduces the one-pass
// replay bit-for-bit (same spans, same accesses), matching the
// thread-count invariance of the index's modeled clock.
// ---------------------------------------------------------------------------

/// Modeled seconds for one full index scan striped over `threads` arms.
/// `rmw` charges each span twice (read-modify-write), as SIU does.
double striped_scan_seconds(unsigned index_gb, std::size_t threads,
                            bool rmw) {
  const index::DiskIndexParams params{.prefix_bits = kActualPrefixBits,
                                      .blocks_per_bucket = 16};
  const std::uint64_t nb = params.bucket_count();
  const std::uint64_t bb = params.bucket_bytes();
  const std::uint64_t io = 1024;  // io_buckets used by measure()
  const std::uint64_t modeled_bytes = std::uint64_t{index_gb} * GiB;

  double worst = 0.0;
  for (const index::ShardSpans& shard :
       index::shard_plan(index::span_count(io, nb), threads)) {
    sim::SimClock clock;
    sim::DiskModel arm(
        sim::DiskProfile::PaperRaid().scaled_to(modeled_bytes, kActualBytes),
        &clock);
    for (std::uint64_t s = shard.first; s < shard.end; ++s) {
      const index::SpanGeom g = index::span_geom(s, io, nb);
      arm.access(g.lo * bb, (g.hi - g.lo) * bb);
      if (rmw) arm.access(g.lo * bb, (g.hi - g.lo) * bb);
    }
    worst = std::max(worst, clock.seconds());
  }
  return worst;
}

void print_thread_scaling(std::size_t max_threads) {
  std::printf("\n=== Parallel dedup-2: modeled SIL+SIU scaling "
              "(--threads axis) ===\n");
  std::printf("striped critical path over contiguous span shards; output "
              "bytes are thread-count-invariant (see test_parallel)\n");
  std::printf("index (GB) | threads | SIL (min) | SIU (min) | SIL+SIU | "
              "speedup\n");
  for (const unsigned gb : {32u, 512u}) {
    const double base = striped_scan_seconds(gb, 1, false) +
                        striped_scan_seconds(gb, 1, true);
    for (std::size_t t = 1; t <= max_threads; t *= 2) {
      const double sil = striped_scan_seconds(gb, t, false);
      const double siu = striped_scan_seconds(gb, t, true);
      std::printf("%10u | %7zu | %9.2f | %9.2f | %7.2f | %6.2fx\n", gb, t,
                  sil / 60.0, siu / 60.0, (sil + siu) / 60.0,
                  base / (sil + siu));
    }
  }
  std::printf("(shards cap at the span count: %llu spans at io_buckets="
              "1024)\n",
              static_cast<unsigned long long>(index::span_count(
                  1024, std::uint64_t{1} << kActualPrefixBits)));
}

void print_tables() {
  std::printf("\n(physical structure %.0f MiB, modeled via rate-scaled "
              "device; rates at paper scale)\n",
              static_cast<double>(kActualBytes) / (1 << 20));

  std::vector<Fig10Row> rows;
  for (const unsigned gb : kSizes) rows.push_back(measure(gb));

  std::printf("\n=== Figure 10: SIL / SIU time vs index size ===\n");
  std::printf("index (GB) | SIL (min) | paper | SIU (min) | paper\n");
  const double paper_sil[] = {2.53, 4.9, 9.8, 19.5, 38.98};
  const double paper_siu[] = {6.16, 12.2, 24.4, 48.8, 97.07};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%10u | %9.2f | %5.2f | %9.2f | %5.2f\n", rows[i].index_gb,
                rows[i].sil_minutes, paper_sil[i], rows[i].siu_minutes,
                paper_siu[i]);
  }

  std::printf("\n=== Figure 11: lookup/update rates (fingerprints/s, log "
              "scale in the paper) ===\n");
  std::printf("index (GB) | SIL-1GB | SIL-2GB | SIL-3GB | SIU-1GB | "
              "SIU-2GB | SIU-3GB | rnd-lookup | rnd-update\n");
  const double rnd_lookup = baseline::VentiStore::modeled_lookups_per_second(
      sim::DiskProfile::PaperRaid(), 512);
  const double rnd_update = baseline::VentiStore::modeled_updates_per_second(
      sim::DiskProfile::PaperRaid(), 512);
  for (const Fig10Row& row : rows) {
    std::printf("%10u | %7.0f | %7.0f | %7.0f | %7.0f | %7.0f | %7.0f | "
                "%10.0f | %10.0f\n",
                row.index_gb, row.sil_fps[0], row.sil_fps[1], row.sil_fps[2],
                row.siu_fps[0], row.siu_fps[1], row.siu_fps[2], rnd_lookup,
                rnd_update);
  }
  std::printf("paper anchors: SIL-3GB@32GB ~917k, SIU-3GB@32GB ~376k, "
              "SIL-1GB@512GB ~19.7k, SIU-1GB@512GB ~7.9k, random ~522/~270\n\n");
}

void BM_Fig10_SilSiu(benchmark::State& state) {
  const unsigned gb = kSizes[state.range(0)];
  Fig10Row row{};
  for (auto _ : state) {
    row = measure(gb);
    benchmark::DoNotOptimize(row);
  }
  state.counters["index_GB"] = gb;
  state.counters["SIL_min"] = row.sil_minutes;
  state.counters["SIU_min"] = row.siu_minutes;
  state.counters["SIL1GB_fps"] = row.sil_fps[0];
  state.counters["SIU1GB_fps"] = row.siu_fps[0];
}
BENCHMARK(BM_Fig10_SilSiu)->DenseRange(0, 4)->Iterations(1)
    ->Unit(benchmark::kSecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip `--threads N` (ours, not google-benchmark's) before Initialize.
  std::size_t max_threads = 4;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--threads" && i + 1 < argc) {
      max_threads = std::max<std::size_t>(1, std::strtoull(argv[i + 1],
                                                           nullptr, 10));
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
      break;
    }
  }
  print_tables();
  print_thread_scaling(max_threads);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
