// DEBAR disk index (Section 4).
//
// A hash table of 2^n fixed-size buckets laid out contiguously on a block
// device. The bucket number is simply the first n bits of the SHA-1
// fingerprint (after skipping the w routing bits consumed by performance
// scaling), which yields the four properties the paper builds on:
//
//  * uniform fingerprint distribution   (SHA-1 uniformity)
//  * number-ordered distribution        (enables SIL/SIU streaming)
//  * simple capacity scaling            (2^n -> 2^{n+1} bucket copy)
//  * simple performance scaling         (split on the first w bits)
//
// A bucket is `blocks_per_bucket` 512-byte disk blocks; each block holds a
// u16 occupancy count plus up to 20 25-byte entries (fingerprint[20] +
// 40-bit container ID), exactly the paper's format. When a bucket
// overflows, one of its (at most two) adjacent buckets is chosen at random
// for the spilled entry; if the home bucket and both neighbours are full,
// the insert reports kFull — the signal to run capacity scaling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "storage/block_device.hpp"

namespace debar {
class ThreadPool;
}  // namespace debar

namespace debar::index {

/// Bounded look-ahead, in io_buckets spans, of bulk_insert's prefetch
/// stage (and, in batches, of BackupServer::run_dedup2's SIL -> store
/// hand-off).
inline constexpr std::size_t kPipelineDepth = 4;

struct DiskIndexParams {
  /// n: the index has 2^n buckets.
  unsigned prefix_bits = 10;
  /// w: bits already consumed by server routing (performance scaling).
  /// Bucket number = fingerprint bits [skip_bits, skip_bits + prefix_bits).
  unsigned skip_bits = 0;
  /// Bucket size in 512-byte blocks. Paper default: 16 blocks = 8 KiB,
  /// giving capacity b = 320 entries per bucket.
  unsigned blocks_per_bucket = 16;
  /// Seed for the random adjacent-bucket choice on overflow.
  std::uint64_t seed = 0xDEBA2009;

  [[nodiscard]] std::uint64_t bucket_count() const noexcept {
    return std::uint64_t{1} << prefix_bits;
  }
  [[nodiscard]] std::uint64_t bucket_bytes() const noexcept {
    return std::uint64_t{blocks_per_bucket} * kIndexBlockSize;
  }
  [[nodiscard]] std::uint64_t bucket_capacity() const noexcept {
    return std::uint64_t{blocks_per_bucket} * kEntriesPerIndexBlock;
  }
  [[nodiscard]] std::uint64_t index_bytes() const noexcept {
    return bucket_count() * bucket_bytes();
  }
  /// Maximum entries the whole index can hold (b * 2^n).
  [[nodiscard]] std::uint64_t entry_capacity() const noexcept {
    return bucket_count() * bucket_capacity();
  }
  [[nodiscard]] bool valid() const noexcept {
    return prefix_bits >= 1 && prefix_bits + skip_bits <= 60 &&
           blocks_per_bucket >= 1;
  }
};

/// In-memory image of one bucket.
struct Bucket {
  std::vector<IndexEntry> entries;

  [[nodiscard]] std::optional<ContainerId> find(
      const Fingerprint& fp) const noexcept {
    for (const IndexEntry& e : entries) {
      if (e.fp == fp) return e.container;
    }
    return std::nullopt;
  }
};

/// Aggregate occupancy statistics (drives Table-2 style reporting and the
/// examples' live utilization display).
struct IndexStats {
  std::uint64_t entries = 0;
  std::uint64_t buckets = 0;
  std::uint64_t full_buckets = 0;
  std::uint64_t overflowed_entries = 0;  // entries not in their home bucket
  double utilization = 0.0;              // entries / entry_capacity
  double full_fraction = 0.0;            // full_buckets / buckets (rho)
};

/// Geometry of span `span` of a sequential scan in `io_buckets`-bucket
/// reads: it homes buckets [a, home_end) and is read (and, for SIU,
/// written) as [lo, hi), one margin bucket wider on each side so every
/// overflow neighbour is in memory.
struct SpanGeom {
  std::uint64_t a = 0;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  std::uint64_t home_end = 0;
};
[[nodiscard]] SpanGeom span_geom(std::uint64_t span, std::uint64_t io_buckets,
                                 std::uint64_t bucket_count) noexcept;

/// Number of `io_buckets` spans one scan of `bucket_count` buckets takes.
[[nodiscard]] std::uint64_t span_count(std::uint64_t io_buckets,
                                       std::uint64_t bucket_count) noexcept;

/// Spans [first, end) of one SIL shard.
struct ShardSpans {
  std::uint64_t first = 0;
  std::uint64_t end = 0;
};

/// The sharded SIL's plan: `spans` cut into min(workers, spans)
/// contiguous shards of near-equal span counts (at least one shard).
[[nodiscard]] std::vector<ShardSpans> shard_plan(std::uint64_t spans,
                                                 std::size_t workers);

class DiskIndex {
 public:
  /// Format `device` (resized and zeroed) as an empty index.
  [[nodiscard]] static Result<DiskIndex> create(
      std::unique_ptr<storage::BlockDevice> device, DiskIndexParams params);

  /// Re-open an already-formatted device (restart path): the device must
  /// be exactly the size `params` implies; the entry count is recovered
  /// with one sequential scan. kCorrupt on a size mismatch.
  [[nodiscard]] static Result<DiskIndex> open(
      std::unique_ptr<storage::BlockDevice> device, DiskIndexParams params);

  DiskIndex(DiskIndex&&) = default;
  DiskIndex& operator=(DiskIndex&&) = default;

  // ---- Random access (restore path; also the Venti-style baseline) ----

  /// Point lookup: reads the home bucket and, on a miss there, both
  /// neighbours (whether or not the home bucket is full), since the entry
  /// may have overflowed.
  [[nodiscard]] Result<ContainerId> lookup(const Fingerprint& fp) const;

  /// Point insert with adjacent-bucket overflow. kFull means the home
  /// bucket and both neighbours are full: run capacity scaling.
  /// Duplicate fingerprints are rejected with kInvalidArgument.
  [[nodiscard]] Status insert(const Fingerprint& fp, ContainerId id);

  // ---- Sequential bulk operations (SIL / SIU, Section 5.2/5.4) ----
  //
  // Each pass has one engine. With a `pool` its stages fan out onto the
  // workers; without one they run on the caller. Results are the same for
  // every pool size (index image, RNG-driven overflow placement, kFull and
  // `failed` reporting). The device runs unmetered and the disk model is
  // then charged the one-pass span sequence, so modeled seconds are the
  // same too. See DESIGN.md §5d.

  /// Sequential index lookup (SIL) over `fingerprints`, which MUST be
  /// sorted ascending. Streams the whole index once in `io_buckets`-bucket
  /// reads; `on_found(i, container)` fires for each fingerprint present,
  /// where i indexes into `fingerprints`. Unsorted input ->
  /// kInvalidArgument. The span stream is cut into shard_plan() shards,
  /// one per pool worker (PSIL mirrored inside one index part); a single
  /// shard runs on the caller. `on_found` may fire from worker threads,
  /// concurrently across shards but never for the same index twice.
  [[nodiscard]] Status bulk_lookup(
      std::span<const Fingerprint> fingerprints,
      const std::function<void(std::size_t, ContainerId)>& on_found,
      std::uint64_t io_buckets = 1024, ThreadPool* pool = nullptr) const;

  /// Sequential index update (SIU): insert `entries` (sorted ascending by
  /// fingerprint, fingerprints distinct and not already present) in one
  /// read-modify-write pass over the index. If some bucket neighbourhood
  /// fills up, returns kFull after inserting everything that fits;
  /// `inserted` (if non-null) receives the number of entries applied and
  /// `failed` (if non-null) the indices of entries that could not be
  /// placed — the caller re-applies them after capacity scaling.
  ///
  /// A pipeline: with a pool, spans are prefetched up to kPipelineDepth
  /// ahead on its workers, while ONE merge stage (the caller) places
  /// entries span by span in bucket order — the paper's tie-breaks and RNG
  /// draw sequence — and writes each span back. The two margin buckets a
  /// span shares with the next are carried to it in memory and written
  /// with it.
  [[nodiscard]] Status bulk_insert(std::span<const IndexEntry> entries,
                                   std::uint64_t io_buckets = 1024,
                                   std::uint64_t* inserted = nullptr,
                                   std::vector<std::size_t>* failed = nullptr,
                                   ThreadPool* pool = nullptr);

  // ---- Scaling (Section 4.1) ----

  /// Capacity scaling: build a 2^{n+1}-bucket index on `new_device` by one
  /// sequential copy pass. Every entry is re-placed by the first n+1 bits
  /// of its fingerprint (which also re-homes previously overflowed ones).
  [[nodiscard]] Result<DiskIndex> scaled(
      std::unique_ptr<storage::BlockDevice> new_device) const;

  /// Performance scaling: split into 2^w equal parts across `devices`
  /// (devices.size() must be a power of two, <= 2^n). Part k receives the
  /// fingerprints whose first w bits (after this index's own skip_bits)
  /// equal k; each part keeps bucket size and covers n - w prefix bits.
  [[nodiscard]] Result<std::vector<DiskIndex>> split(
      std::vector<std::unique_ptr<storage::BlockDevice>> devices) const;

  // ---- Introspection ----

  [[nodiscard]] const DiskIndexParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] std::uint64_t entry_count() const noexcept {
    return entry_count_;
  }
  /// True once an insert has failed with kFull.
  [[nodiscard]] bool needs_scaling() const noexcept { return needs_scaling_; }

  /// Full scan producing occupancy statistics.
  [[nodiscard]] Result<IndexStats> stats() const;

  /// Bucket number for a fingerprint under this index's addressing.
  [[nodiscard]] std::uint64_t bucket_of(const Fingerprint& fp) const noexcept {
    return fp.prefix_bits(params_.skip_bits + params_.prefix_bits) &
           (params_.bucket_count() - 1);
  }

  [[nodiscard]] storage::BlockDevice& device() noexcept { return *device_; }
  [[nodiscard]] const storage::BlockDevice& device() const noexcept {
    return *device_;
  }

  /// Read one bucket into memory (exposed for tests and the LPC-miss path).
  [[nodiscard]] Result<Bucket> read_bucket(std::uint64_t idx) const;

 private:
  DiskIndex(std::unique_ptr<storage::BlockDevice> device,
            DiskIndexParams params)
      : device_(std::move(device)), params_(params), rng_(params.seed) {}

  [[nodiscard]] bool bucket_full(const Bucket& b) const noexcept {
    return b.entries.size() >= params_.bucket_capacity();
  }

  [[nodiscard]] Status write_bucket(std::uint64_t idx, const Bucket& b);

  /// Parse/serialize one bucket image at `data` (bucket_bytes long).
  [[nodiscard]] Bucket parse_bucket(ByteSpan data) const;
  void serialize_bucket(const Bucket& b, std::span<Byte> out) const;

  /// Match `fingerprints[qi..)` whose home bucket falls in [a, home_end)
  /// against an in-memory span of buckets [lo, ...). Every SIL shard runs
  /// it.
  [[nodiscard]] Status match_fingerprints_in_span(
      std::span<const Fingerprint> fingerprints,
      const std::vector<Bucket>& span_buckets, std::uint64_t lo,
      std::uint64_t a, std::uint64_t home_end, std::size_t& qi,
      const std::function<void(std::size_t, ContainerId)>& on_found) const;

  /// Place `entries[qi..)` homed in [a, home_end) into the in-memory span
  /// [lo, ...): duplicate-neighbourhood check, random-order overflow, and
  /// kFull bookkeeping. Mutates rng_/entry_count_/needs_scaling_ — must
  /// run on exactly one thread, in ascending span order (bulk_insert's
  /// single merge stage).
  [[nodiscard]] Status place_entries_in_span(
      std::span<const IndexEntry> entries, std::vector<Bucket>& span_buckets,
      std::uint64_t lo, std::uint64_t a, std::uint64_t home_end,
      std::size_t& qi, bool& overflow_failure, std::uint64_t* inserted,
      std::vector<std::size_t>* failed);

  /// Charge the disk model the one-pass scan's access sequence: a read of
  /// [lo, hi) per span, plus its write-back for RMW passes. The bulk
  /// operations run their device I/O unmetered and then replay this, so
  /// modeled time is identical for every worker count.
  void replay_serial_scan_metering(sim::DiskModel* model,
                                   std::uint64_t io_buckets, bool rmw) const;

  /// Read `count` consecutive buckets with one device access.
  [[nodiscard]] Status read_bucket_range(std::uint64_t first,
                                         std::uint64_t count,
                                         std::vector<Bucket>& out) const;
  [[nodiscard]] Status write_bucket_range(std::uint64_t first,
                                          std::span<const Bucket> buckets);

  std::unique_ptr<storage::BlockDevice> device_;
  DiskIndexParams params_;
  mutable Xoshiro256 rng_;
  std::uint64_t entry_count_ = 0;
  bool needs_scaling_ = false;
};

/// Full scan of an index (one bucket read at a time), sorted by
/// fingerprint — the canonical entry stream a copy is rebuilt from by
/// scaled(), split(), migration and maintenance. Bucket order is not
/// fingerprint order (overflow entries live in neighbour buckets), hence
/// the sort before bulk-loading fresh devices.
[[nodiscard]] Result<std::vector<IndexEntry>> extract_sorted_entries(
    const DiskIndex& idx);

}  // namespace debar::index
