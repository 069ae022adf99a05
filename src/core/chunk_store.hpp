// Chunk Store — the dedup-2 engine on a backup server (Sections 5.2-5.4).
//
// A ChunkStore is the server's own copy of its index part (IndexPart:
// sil(), add_pending()/siu(), locate()) plus the data service that copy
// is fed from:
//
//   store_new_chunks() replay the chunk log, write genuinely new chunks
//                      to containers in SISL order, and emit the
//                      <fingerprint, containerID> entries;
//   restore()          planned restore of a recipe through the LPC, with
//                      the container of the next miss read ahead and
//                      only the chunks the recipe still needs read, its
//                      misses located here or by the caller's Locate;
//   read_chunk()       one chunk through the LPC, its container read whole
//                      on a miss (tests' per-chunk twin, verify jobs).
//
// A single-server dedup-2 is sil -> store -> add_pending -> (maybe) siu;
// the Cluster interleaves routing exchanges between the same calls for
// PSIL/PSIU.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cache/index_cache.hpp"
#include "cache/lpc_cache.hpp"
#include "chunking/chunker_config.hpp"
#include "common/result.hpp"
#include "common/types.hpp"
#include "core/index_part.hpp"
#include "core/metadata.hpp"
#include "core/restore_sink.hpp"
#include "index/disk_index.hpp"
#include "storage/chunk_log.hpp"
#include "storage/container_manager.hpp"

namespace debar::core {

struct ChunkStoreConfig {
  cache::IndexCacheParams cache_params;
  /// Capacity of the containers this store seals (Section 3.4: 8 MB).
  std::uint64_t container_capacity = kContainerSize;
  /// Buckets per SIL/SIU device read.
  std::uint64_t io_buckets = 1024;
  /// Run SIU when the pending set reaches this many entries ("one PSIU
  /// servicing more than one PSIL", Section 5.4). Forced SIU ignores it.
  std::uint64_t siu_threshold = 1 << 20;
  /// LPC read-cache capacity in containers.
  std::size_t lpc_containers = 16;
  /// Parallel dedup-2 execution plan.
  Dedup2Options dedup2;
  /// Chunking policy for the clients of this store (DESIGN.md §5i).
  /// The store itself never chunks — dedup-1 is client-side — but the
  /// deployment-wide algorithm choice lives here so engines built
  /// against a server inherit it (BackupEngine's ChunkerConfig ctor)
  /// and the figure benches can ablate Rabin vs. gear in one place.
  chunking::ChunkerConfig chunker;
};

struct StoreResult {
  std::uint64_t new_chunks = 0;
  std::uint64_t new_bytes = 0;
  std::uint64_t discarded = 0;  // log records resolved as duplicates
  std::uint64_t orphans = 0;    // new fingerprints with no chunk in the log
  std::vector<IndexEntry> entries;  // fp -> container, sorted by fingerprint
};

class ChunkStore : public IndexPart {
 public:
  /// `device_factory` mints the devices capacity scaling grows the index
  /// onto. `pool` is the server's shared dedup-2 pool; a standalone store
  /// passes none and gets its own for `config.dedup2`.
  ChunkStore(index::DiskIndex idx, ChunkStoreConfig config,
             storage::ChunkRepository* repository, storage::ChunkLog* log,
             DeviceFactory device_factory,
             std::shared_ptr<Dedup2Pool> pool = nullptr);

  // ---- Data service (chunk-log owner) ----

  /// Chunk storing (Section 5.3): replay the chunk log and write the
  /// chunks whose fingerprints are in `new_fps` (SIL survivors) to
  /// containers in SISL order. Does NOT clear the log — the caller clears
  /// it once every batch of the round has been stored.
  [[nodiscard]] Result<StoreResult> store_new_chunks(
      const std::vector<Fingerprint>& new_fps);

  void clear_log() { log_->clear(); }

  // ---- Restore path ----

  /// Where a restore finds the container of a chunk the LPC misses.
  using Locate = std::function<Result<ContainerId>(const Fingerprint&)>;

  /// Planned restore (DESIGN.md §5o): pass every chunk of `files`, in
  /// recipe order, to `sink` as a span of the container the LPC caches.
  /// A chunk whose size is not the one its record keeps stops the restore
  /// with kCorrupt. Misses are located with `locate`, else with locate().
  /// Locates, repository charges, LPC hits and misses and every modeled
  /// clock come in the order a read_chunk() loop over the same recipe
  /// makes them, and the first error stops the restore as it would stop
  /// that loop. From a persistent repository a miss reads its container's
  /// header and metadata, then only the payloads of chunks the recipe asks
  /// for at or after the miss; the model is still charged for the whole
  /// container. With a multi-thread dedup-2 pool, the container of the
  /// next LPC miss is located and charged on the caller and read on the
  /// pool while the hits before it are served; at most one such read is
  /// in flight, and it has finished when this returns.
  [[nodiscard]] Status restore(std::span<const FileRecord> files,
                               RestoreSink& sink, const Locate& locate = {});

  /// Read one chunk via the LPC. A hit completes a container read in part
  /// first (if that fails, the chunk is read as on a miss); a miss locates
  /// the container, reads it whole and prefetches it.
  [[nodiscard]] Result<std::vector<Byte>> read_chunk(const Fingerprint& fp);

  // ---- Introspection ----

  /// Swap in a rebuilt index partition (elastic repartitioning commit).
  /// Pure in-memory: the replacement was fully built and verified by the
  /// prepare stage, so this cannot fail. The index cache's routing bits
  /// must keep agreeing with the index, so they are rebased together.
  void rebase_index(index::DiskIndex idx) noexcept {
    index() = std::move(idx);
    config_.cache_params.skip_bits = index().params().skip_bits;
  }
  [[nodiscard]] const cache::LpcCache& lpc() const noexcept { return lpc_; }
  [[nodiscard]] const ChunkStoreConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] storage::ContainerManager& container_manager() noexcept {
    return containers_;
  }

 private:
  /// A recipe position: chunk `chunk` of file `file`, the recipe's
  /// `pos`-th chunk.
  struct Cursor {
    std::size_t file = 0;
    std::size_t chunk = 0;
    std::uint64_t pos = 0;
    friend bool operator==(const Cursor&, const Cursor&) = default;
  };
  /// Each fingerprint of a recipe and its last position there.
  using LastUse =
      std::unordered_map<Fingerprint, std::uint64_t, FingerprintHash>;
  struct ReadAhead;

  /// Where the next LPC miss after `from` is: the first later chunk the
  /// LPC does not hold, or nullopt.
  [[nodiscard]] std::optional<Cursor> next_miss(
      std::span<const FileRecord> files, Cursor from) const;
  /// Locate (by `find` if set) and charge the container of the miss at `at`,
  /// and read what the recipe needs of it into the spare frame on `pool`.
  void read_ahead(const Fingerprint& fp, Cursor at, const LastUse& last_use,
                  const Locate& find, ThreadPool& pool,
                  std::optional<ReadAhead>& ahead);
  /// The container of the miss on `fp` at recipe position `pos`: the one
  /// `ahead` read for it, or the error `ahead` met, or, with no
  /// read-ahead, a locate and a read.
  [[nodiscard]] Result<storage::Container> fetch_miss(
      const Fingerprint& fp, std::uint64_t pos, const LastUse& last_use,
      const Locate& find, std::optional<ReadAhead>& ahead);
  /// Read the container `read` charged into `buffer`: its header and
  /// metadata, then the payload runs of the chunks whose last use is at or
  /// after `pos`. Touches nothing but the repository's devices, so it
  /// runs on the pool.
  [[nodiscard]] Result<storage::Container> read_needed(
      const storage::ChunkRepository::PendingRead& read,
      storage::FrameBuffer buffer, const LastUse& last_use,
      std::uint64_t pos) const;
  /// Cache the container fetched for a miss on `fp` in the LPC and return
  /// the chunk's span there. With `refill_spare`, a frame for the next
  /// read-ahead is taken from the pool first.
  [[nodiscard]] Result<ByteSpan> cache_container(
      const Fingerprint& fp, Result<storage::Container> container,
      bool refill_spare);
  /// Read the chunks of a cached container that a restore's miss did not
  /// read, with one device read that charges nothing.
  [[nodiscard]] Status complete(storage::Container& c) const;

  ChunkStoreConfig config_;
  storage::ChunkRepository* repository_;
  storage::ContainerManager containers_;
  storage::ChunkLog* log_;
  cache::LpcCache lpc_;
  /// The frame the next read-ahead reads into, held between restores.
  storage::FrameBuffer spare_;
};

}  // namespace debar::core
