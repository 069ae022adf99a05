// Dedup-1 hot-path throughput: chunking + fingerprinting, the per-byte
// cost every DEBAR client pays, across the algorithm/lane matrix —
// scalar Rabin + streaming SHA-1 (the seed hot path) vs. gear chunking
// with the scalar/SSE2/AVX2 scans and multi-buffer SHA-1 (DESIGN.md
// §5i). Emits machine-readable BENCH_chunking.json.
//
//   bench_chunking [--out <path>]   measure and write the JSON
//   bench_chunking --check <path>   re-measure and gate against the
//                                   checked-in baseline
//
// The gates are declared in measure(); bench/report.hpp applies them.
// Absolute MB/s is machine-dependent, so the gate is on speedup RATIOS
// measured in the same process on the same corpus — those survive a CI
// runner swap; raw throughput numbers in the JSON are informational.
//
// Every lane's boundaries and fingerprints are verified identical to
// the scalar references while measuring: a lane that got fast by
// cutting different chunks fails here before any test does.
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chunking/gear_chunker.hpp"
#include "chunking/rabin_chunker.hpp"
#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "common/simd.hpp"
#include "report.hpp"
#include "workload/file_tree.hpp"

namespace {

using namespace debar;

// Size-swept seeded corpus: random segments from 256 KiB to 16 MiB plus
// one versioned-file-tree segment (real backup-shaped bytes), processed
// segment-by-segment like the engine processes files.
std::vector<std::vector<Byte>> make_corpus() {
  std::vector<std::vector<Byte>> segments;
  for (const std::size_t size :
       {256 * KiB, 1 * MiB, 4 * MiB, 16 * MiB}) {
    Xoshiro256 rng(9000 + size);
    std::vector<Byte> seg(size);
    for (auto& b : seg) b = static_cast<Byte>(rng());
    segments.push_back(std::move(seg));
  }
  workload::FileTreeParams tree;
  tree.files = 24;
  tree.mean_file_bytes = 256 * KiB;
  tree.seed = 77;
  const core::Dataset dataset = workload::make_dataset(tree);
  std::vector<Byte> trace;
  for (const auto& file : dataset.files) {
    trace.insert(trace.end(), file.content.begin(), file.content.end());
  }
  segments.push_back(std::move(trace));
  return segments;
}

struct Lane {
  std::string name;
  const char* algo;
  const char* simd;
  double mb_per_s = 0;
  double best_seconds = 0;
  std::uint64_t chunks = 0;
};

struct LaneOutput {
  std::vector<std::vector<chunking::ChunkBounds>> bounds;  // per segment
  std::vector<std::vector<Fingerprint>> fps;
};

constexpr int kReps = 5;

/// CPU time of the calling thread. A pass runs on this thread alone, so
/// CPU time counts its own work only: time a loaded host gives to other
/// processes between its instructions does not land on one lane.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// One chunk+fingerprint pass over the whole corpus; returns the thread CPU
// time it took.
template <class ChunkFn, class HashFn>
double one_pass(const std::vector<std::vector<Byte>>& corpus,
                ChunkFn&& chunk_fn, HashFn&& hash_fn, LaneOutput& out) {
  out.bounds.clear();
  out.fps.clear();
  const double start = thread_cpu_seconds();
  for (const auto& seg : corpus) {
    const ByteSpan content(seg.data(), seg.size());
    std::vector<chunking::ChunkBounds> bounds = chunk_fn(content);
    std::vector<ByteSpan> spans;
    spans.reserve(bounds.size());
    for (const auto& b : bounds) spans.push_back(content.subspan(b.offset, b.size));
    out.fps.push_back(hash_fn(spans));
    out.bounds.push_back(std::move(bounds));
  }
  return thread_cpu_seconds() - start;
}

/// One lane under measurement: its figures, one timed pass over the
/// corpus, and the output of its latest pass.
struct LaneRun {
  Lane lane;
  std::function<double(LaneOutput&)> pass;
  LaneOutput out;
};

template <class ChunkFn, class HashFn>
LaneRun make_lane(const std::string& name, const char* algo,
                  const char* simd,
                  const std::vector<std::vector<Byte>>& corpus,
                  ChunkFn chunk_fn, HashFn hash_fn) {
  LaneRun run;
  run.lane.name = name;
  run.lane.algo = algo;
  run.lane.simd = simd;
  run.lane.best_seconds = 1e30;
  run.pass = [&corpus, chunk_fn, hash_fn](LaneOutput& out) {
    return one_pass(corpus, chunk_fn, hash_fn, out);
  };
  return run;
}

/// The acceptance bar the best gear lane must clear, here and in CI.
constexpr double kMinSpeedup = 3.0;

bench::Outcome measure() {
  const std::vector<std::vector<Byte>> corpus = make_corpus();
  std::vector<LaneRun> runs;

  // The seed hot path: byte-at-a-time Rabin + one streaming SHA-1 per
  // chunk (exactly what BackupEngine did before this lane existed).
  chunking::RabinChunker rabin;
  runs.push_back(make_lane(
      "rabin-scalar", "rabin", "scalar", corpus,
      [&](ByteSpan data) { return rabin.chunk(data); },
      [](const std::vector<ByteSpan>& spans) {
        std::vector<Fingerprint> fps;
        fps.reserve(spans.size());
        for (const ByteSpan s : spans) fps.push_back(Sha1::hash(s));
        return fps;
      }));

  // Gear lanes: scalar reference first, then each supported SIMD lane,
  // all with the matching hash_batch policy.
  std::vector<SimdPolicy> policies = {SimdPolicy::kScalar};
  for (SimdPolicy p : {SimdPolicy::kSse2, SimdPolicy::kAvx2}) {
    if (simd_supported(p)) policies.push_back(p);
  }
  std::vector<std::unique_ptr<chunking::GearChunker>> gears;
  for (const SimdPolicy policy : policies) {
    chunking::GearParams params;
    params.simd = policy;
    gears.push_back(std::make_unique<chunking::GearChunker>(params));
    chunking::GearChunker* gear = gears.back().get();
    runs.push_back(make_lane(
        std::string("gear-") + simd_name(policy), "gear", simd_name(policy),
        corpus, [gear](ByteSpan data) { return gear->chunk(data); },
        [policy](const std::vector<ByteSpan>& spans) {
          return Sha1::hash_batch(spans, policy);
        }));
  }

  // Interleaved repetitions: each rep runs every lane once, so every
  // lane's best-of sees the same stretches of host load and a noisy
  // neighbour cannot land on one lane's reps only.
  for (int rep = 0; rep < kReps; ++rep) {
    for (LaneRun& run : runs) {
      const double secs = run.pass(run.out);
      if (secs < run.lane.best_seconds) run.lane.best_seconds = secs;
    }
  }

  std::uint64_t total_bytes = 0;
  for (const auto& seg : corpus) total_bytes += seg.size();
  const LaneRun& gear_ref = runs[1];  // gear-scalar, the first gear lane
  bench::Outcome outcome;
  bench::Report& report = outcome.report;
  report.bench = "chunking";
  report.workload = {
      {"segments",
       bench::label("256K/1M/4M/16M seeded random + 24-file versioned tree")},
      {"reps", bench::count(kReps)},
      {"measure", bench::label("chunk+fingerprint, best-of-reps")}};
  for (LaneRun& run : runs) {
    Lane& lane = run.lane;
    lane.mb_per_s =
        static_cast<double>(total_bytes) / (1e6 * lane.best_seconds);
    for (const auto& b : run.out.bounds) lane.chunks += b.size();
    std::printf("%-12s %8.1f MB/s  (%llu chunks, best of %d)\n",
                lane.name.c_str(), lane.mb_per_s,
                static_cast<unsigned long long>(lane.chunks), kReps);
    if (std::string(lane.algo) == "gear" &&
        (run.out.bounds != gear_ref.out.bounds ||
         run.out.fps != gear_ref.out.fps)) {
      // The equivalence battery's acceptance bar, enforced on the bench
      // corpus too: lanes may only differ in speed.
      std::fprintf(stderr, "%s: boundaries/fingerprints differ from scalar\n",
                   lane.name.c_str());
      std::exit(1);
    }
    report.runs.push_back({{"lane", bench::label(lane.name)},
                           {"algo", bench::label(lane.algo)},
                           {"simd", bench::label(lane.simd)},
                           {"mb_per_s", bench::number(lane.mb_per_s, 1)},
                           {"chunks", bench::count(lane.chunks)}});
  }

  const double rabin_mbs = runs.front().lane.mb_per_s;
  const double gear_scalar_mbs = gear_ref.lane.mb_per_s;
  double best_speedup = 0;  // best gear lane vs rabin-scalar
  double simd_speedup = 0;  // best gear lane vs gear-scalar
  std::string best_lane;
  for (const LaneRun& run : runs) {
    const Lane& lane = run.lane;
    if (std::string(lane.algo) != "gear") continue;
    const double speedup = lane.mb_per_s / rabin_mbs;
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_lane = lane.name;
      simd_speedup = lane.mb_per_s / gear_scalar_mbs;
    }
  }
  std::printf("best gear lane %s: %.2fx vs rabin-scalar, %.2fx vs "
              "gear-scalar\n",
              best_lane.c_str(), best_speedup, simd_speedup);
  report.metrics = {
      {"gear_best_lane", bench::label(best_lane)},
      {"gear_best_vs_rabin_scalar", bench::number(best_speedup, 3)},
      {"gear_best_vs_gear_scalar", bench::number(simd_speedup, 3)}};
  outcome.gates = {{.metric = "gear_best_vs_rabin_scalar",
                    .better = bench::Better::kHigher,
                    .tolerance = 0.05,
                    .bar = kMinSpeedup}};
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::bench_main(argc, argv, "BENCH_chunking.json", measure);
}
