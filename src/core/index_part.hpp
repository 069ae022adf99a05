// Index-part service — one copy of one fingerprint partition (Sections
// 4.1 and 5.2-5.4, DESIGN.md §5g).
//
// A copy is a DiskIndex plus the checking set of entries stored to
// containers but not yet registered, and it offers the batched index
// primitives PSIL/PSIU run on the part's host:
//
//   sil()               sequential index lookup over the copy, then the
//                       checking-fingerprint pass that shields
//                       asynchronous SIU from duplicate storage;
//   add_pending()/siu() queue entries and flush them to the disk index
//                       with one sequential read-modify-write pass,
//                       scaling capacity when bucket neighbourhoods fill;
//   locate()            the restore-path lookup.
//
// Every copy runs this code: the ChunkStore on a server is the copy its
// chunk log feeds, and the backup copies a server hosts for other parts
// are bare IndexParts. All of them are created with the same
// DiskIndexParams (hash seed included) and apply the same entry batches
// through the same bulk scans, so the copies of a part stay
// byte-identical while both live.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "index/disk_index.hpp"
#include "storage/block_device.hpp"

namespace debar::core {

/// Execution knobs for the parallel dedup-2 pipeline (sharded SIL,
/// SIL/store overlap, pipelined SIU). All outputs — container IDs, index
/// image, metadata, modeled seconds — are byte-identical for every value
/// of `threads`; the knob only changes how many cores chase them.
struct Dedup2Options {
  /// Worker threads. 0 = one per hardware thread; 1 = no pool: every
  /// stage of SIL, store and SIU runs on the calling thread, in turn.
  std::size_t threads = 0;

  [[nodiscard]] std::size_t resolved_threads() const noexcept {
    if (threads != 0) return threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
};

/// The dedup-2 worker pool every index copy on one server shares. The
/// pool starts on first use, and only when the plan resolves to more
/// than one thread; without it the bulk scans run on the caller.
class Dedup2Pool {
 public:
  explicit Dedup2Pool(Dedup2Options plan) : plan_(plan) {}

  /// The pool's workers, started on first call; nullptr when the plan
  /// resolves to one thread. Thread-safe.
  [[nodiscard]] ThreadPool* workers();

 private:
  Dedup2Options plan_;
  std::once_flag started_;
  std::unique_ptr<ThreadPool> pool_;
};

struct SilResult {
  std::uint64_t queried = 0;
  std::uint64_t found_on_disk = 0;   // duplicates resolved by the index
  std::uint64_t found_pending = 0;   // duplicates resolved by checking set
  double seconds = 0.0;              // modeled index-device time
};

struct SiuResult {
  std::uint64_t inserted = 0;
  std::uint64_t scalings = 0;  // capacity-scaling passes triggered
  double seconds = 0.0;        // modeled index-device time
};

class IndexPart {
 public:
  /// Mints fresh block devices for capacity scaling (attached to the
  /// same disk model as the current index device).
  using DeviceFactory =
      std::function<std::unique_ptr<storage::BlockDevice>()>;

  /// `io_buckets` is the bucket count per SIL/SIU device read; SIU is due
  /// once `siu_threshold` entries are pending ("one PSIU servicing more
  /// than one PSIL", Section 5.4).
  IndexPart(index::DiskIndex idx, std::uint64_t io_buckets,
            std::uint64_t siu_threshold, DeviceFactory device_factory,
            std::shared_ptr<Dedup2Pool> pool);

  /// Sequential index lookup. `sorted_fps` must be ascending and within
  /// this part's routing prefix. `found[i]` is set true when fps[i] is a
  /// duplicate (on disk or pending SIU).
  [[nodiscard]] Result<SilResult> sil(
      const std::vector<Fingerprint>& sorted_fps,
      std::vector<std::uint8_t>& found);

  /// Queue freshly stored entries for a later SIU; they are immediately
  /// visible to sil() and locate() via the checking set.
  void add_pending(std::span<const IndexEntry> entries);

  /// Sequential index update: flush all pending entries. Runs capacity
  /// scaling automatically if bucket neighbourhoods fill.
  [[nodiscard]] Result<SiuResult> siu();

  /// Insert fingerprint-sorted entries straight into the index, doubling
  /// its capacity (Section 4.1) whenever a bucket neighbourhood fills and
  /// retrying what did not fit. SIU runs it on the checking set; staged
  /// rebuilds run it to bulk-load a fresh copy.
  [[nodiscard]] Result<SiuResult> insert_sorted(
      std::vector<IndexEntry> entries);

  [[nodiscard]] std::uint64_t pending_count() const;
  [[nodiscard]] bool siu_due() const;

  /// Restore-path lookup: the checking set first, then the disk index
  /// (one random modeled I/O).
  [[nodiscard]] Result<ContainerId> locate(const Fingerprint& fp) const;

  [[nodiscard]] const index::DiskIndex& index() const noexcept {
    return index_;
  }
  [[nodiscard]] index::DiskIndex& index() noexcept { return index_; }

 protected:
  [[nodiscard]] Dedup2Pool& dedup2_pool() const noexcept { return *pool_; }

 private:
  [[nodiscard]] double index_clock_seconds() const;

  index::DiskIndex index_;
  std::uint64_t io_buckets_;
  std::uint64_t siu_threshold_;
  DeviceFactory device_factory_;
  std::shared_ptr<Dedup2Pool> pool_;

  /// The checking-fingerprint file: entries stored to containers but not
  /// yet registered in the disk index (pending SIU). Guarded by
  /// pending_mutex_: the pipelined run_dedup2 reads it from the SIL stage
  /// while the store stage appends via add_pending.
  mutable std::mutex pending_mutex_;
  std::unordered_map<Fingerprint, ContainerId, FingerprintHash> pending_;
};

}  // namespace debar::core
