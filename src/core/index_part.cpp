#include "core/index_part.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <utility>

#include "common/log.hpp"

namespace debar::core {

index::ParallelIoOptions Dedup2Pool::io_options() {
  return {workers(), plan_.resolved_threads(), plan_.pipeline_depth};
}

ThreadPool* Dedup2Pool::workers() {
  const std::size_t threads = plan_.resolved_threads();
  if (threads > 1) {
    std::call_once(started_,
                   [&] { pool_ = std::make_unique<ThreadPool>(threads); });
  }
  return pool_.get();
}

IndexPart::IndexPart(index::DiskIndex idx, std::uint64_t io_buckets,
                     std::uint64_t siu_threshold, DeviceFactory device_factory,
                     std::shared_ptr<Dedup2Pool> pool)
    : index_(std::move(idx)),
      io_buckets_(io_buckets),
      siu_threshold_(siu_threshold),
      device_factory_(std::move(device_factory)),
      pool_(std::move(pool)) {
  assert(device_factory_ != nullptr);
  assert(pool_ != nullptr);
}

double IndexPart::index_clock_seconds() const {
  const sim::DiskModel* model = index_.device().model();
  return model == nullptr ? 0.0 : model->clock()->seconds();
}

Result<SilResult> IndexPart::sil(const std::vector<Fingerprint>& sorted_fps,
                                 std::vector<std::uint8_t>& found) {
  SilResult result;
  result.queried = sorted_fps.size();
  found.assign(sorted_fps.size(), 0);

  const double t0 = index_clock_seconds();
  // Shard workers hit disjoint input indices (found[i] writes never
  // collide); only the counter needs to be atomic.
  std::atomic<std::uint64_t> found_on_disk{0};
  Status s = index_.bulk_lookup_sharded(
      std::span<const Fingerprint>(sorted_fps),
      [&found, &found_on_disk](std::size_t i, ContainerId) {
        found[i] = 1;
        found_on_disk.fetch_add(1, std::memory_order_relaxed);
      },
      io_buckets_, pool_->io_options());
  if (!s.ok()) return Error{s.code(), s.message()};
  result.found_on_disk = found_on_disk.load();
  result.seconds = index_clock_seconds() - t0;

  // Checking-fingerprint pass (Section 5.4): fingerprints already stored
  // by an earlier SIL round but still awaiting SIU must not be stored
  // again. This is an in-memory set, no device time.
  {
    std::lock_guard lock(pending_mutex_);
    for (std::size_t i = 0; i < sorted_fps.size(); ++i) {
      if (found[i] == 0 && pending_.contains(sorted_fps[i])) {
        found[i] = 1;
        ++result.found_pending;
      }
    }
  }
  return result;
}

void IndexPart::add_pending(std::span<const IndexEntry> entries) {
  std::lock_guard lock(pending_mutex_);
  for (const IndexEntry& e : entries) {
    // Last writer wins: normal dedup-2 never re-adds a pending
    // fingerprint, but the defragmenter re-maps pending entries to their
    // new containers through this path, and catch-up resync may
    // re-deliver entries a copy already holds.
    pending_.insert_or_assign(e.fp, e.container);
  }
}

Result<SiuResult> IndexPart::siu() {
  std::vector<IndexEntry> entries;
  {
    std::lock_guard lock(pending_mutex_);
    if (pending_.empty()) return SiuResult{};
    entries.reserve(pending_.size());
    for (const auto& [fp, cid] : pending_) entries.push_back({fp, cid});
  }
  std::sort(
      entries.begin(), entries.end(),
      [](const IndexEntry& a, const IndexEntry& b) { return a.fp < b.fp; });

  Result<SiuResult> result = insert_sorted(std::move(entries));
  if (result.ok()) {
    std::lock_guard lock(pending_mutex_);
    pending_.clear();
  }
  return result;
}

Result<SiuResult> IndexPart::insert_sorted(std::vector<IndexEntry> entries) {
  SiuResult result;
  const index::ParallelIoOptions par = pool_->io_options();
  const double t0 = index_clock_seconds();
  while (!entries.empty()) {
    std::uint64_t inserted = 0;
    std::vector<std::size_t> failed;
    Status s = index_.bulk_insert_pipelined(
        std::span<const IndexEntry>(entries), io_buckets_, par, &inserted,
        &failed);
    result.inserted += inserted;
    if (s.ok()) break;
    if (s.code() != Errc::kFull) return Error{s.code(), s.message()};

    // Capacity scaling (Section 4.1): rebuild at 2^{n+1} buckets, then
    // re-apply only the entries that could not be placed.
    DEBAR_LOG_INFO("disk index full at {} entries; scaling capacity",
                   index_.entry_count());
    Result<index::DiskIndex> scaled = index_.scaled(device_factory_());
    if (!scaled.ok()) return scaled.error();
    index_ = std::move(scaled).value();
    ++result.scalings;

    std::vector<IndexEntry> retry;
    retry.reserve(failed.size());
    for (const std::size_t i : failed) retry.push_back(entries[i]);
    entries = std::move(retry);
  }
  result.seconds = index_clock_seconds() - t0;
  return result;
}

std::uint64_t IndexPart::pending_count() const {
  std::lock_guard lock(pending_mutex_);
  return pending_.size();
}

bool IndexPart::siu_due() const { return pending_count() >= siu_threshold_; }

Result<ContainerId> IndexPart::locate(const Fingerprint& fp) const {
  {
    std::lock_guard lock(pending_mutex_);
    if (const auto it = pending_.find(fp); it != pending_.end()) {
      return it->second;
    }
  }
  return index_.lookup(fp);
}

}  // namespace debar::core
