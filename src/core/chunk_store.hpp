// Chunk Store — the dedup-2 engine on a backup server (Sections 5.2-5.4).
//
// A ChunkStore is the server's own copy of its index part (IndexPart:
// sil(), add_pending()/siu(), locate()) plus the data service that copy
// is fed from:
//
//   store_new_chunks() replay the chunk log, write genuinely new chunks
//                      to containers in SISL order, and emit the
//                      <fingerprint, containerID> entries;
//   restore()          planned restore of a recipe through the LPC: a
//                      walk over the recipe serves up to kReadAheadDepth
//                      misses ahead of the sink, their containers read on
//                      the dedup-2 pool, and only the chunks the recipe
//                      still needs read; misses are located here or by
//                      the caller's Locate;
//   read_chunk()       one chunk through the LPC, its container read whole
//                      on a miss (tests' per-chunk twin, verify jobs).
//
// A single-server dedup-2 is sil -> store -> add_pending -> (maybe) siu;
// the Cluster interleaves routing exchanges between the same calls for
// PSIL/PSIU.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <future>
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

  /// How many LPC misses a restore may serve ahead of its sink (DESIGN.md
  /// §5o). A constant, like index::kPipelineDepth.
  static constexpr std::size_t kReadAheadDepth = 4;

  /// Planned restore (DESIGN.md §5o): pass every chunk of `files`, in
  /// recipe order, to `sink` as a span of the container the LPC caches.
  /// A chunk whose size is not the one its record keeps stops the restore
  /// with kCorrupt. Misses are located with `locate`, else with locate().
  /// One walk over the recipe makes the LPC lookups, locates, repository
  /// charges and inserts in the order a read_chunk() loop over the same
  /// recipe makes them, so LPC hits and misses and every modeled clock
  /// are that loop's; the sink trails the walk. From a persistent
  /// repository a miss reads its container's header and metadata, then
  /// only the payloads of chunks the recipe asks for at or after the
  /// miss; the model is still charged for the whole container. With a
  /// multi-thread dedup-2 pool the walk runs up to kReadAheadDepth misses
  /// ahead of the sink: it reads and parses each miss's header on the
  /// caller and the pool reads its payloads, which the sink awaits at that
  /// miss. At most kReadAheadDepth such reads are in flight, and all have
  /// finished when this returns. The first error stops the restore where
  /// it would stop that loop, but the walk may by then have served up to
  /// kReadAheadDepth later misses (and the hits between them): only a
  /// failed restore's LPC counters and clocks can differ from the loop's.
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
  /// Frames held for the next restores' read-aheads: at most
  /// kReadAheadDepth between restores.
  [[nodiscard]] std::size_t spare_frames() const noexcept {
    return spares_.size();
  }
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
  };
  /// Each fingerprint of a recipe and its last position there.
  using LastUse =
      std::unordered_map<Fingerprint, std::uint64_t, FingerprintHash>;
  /// A restore's walk over its recipe (chunk_store.cpp).
  struct Walk;
  /// One chunk of the recipe as the walk looked it up: the container
  /// that holds it and its index there, and whether the walk missed on
  /// it. No container: the walk's error stops the restore at this chunk.
  struct Step {
    storage::Container* container = nullptr;
    std::uint32_t index = 0;
    bool miss = false;
  };
  /// A miss the walk served ahead of the sink: the container it cached,
  /// the one its insert evicted or replaced (which steps before the miss
  /// may still view), and the pool's reads of its payloads.
  struct Miss {
    std::shared_ptr<storage::Container> container;
    std::shared_ptr<storage::Container> evicted;
    std::future<Status> payload;  // valid while its reads are in flight
  };

  /// Look up the chunk at the walk's cursor and step past it. A miss is
  /// located, charged and cached here. With no pool its container is read
  /// here; with `pool` its header is read and parsed here, its payloads
  /// are read on the pool, and it joins the window's misses.
  [[nodiscard]] Step walk_one(Walk& walk, ThreadPool* pool);
  /// Walk on ahead of the sink, into the window, up to the next miss that
  /// finds the window's misses at kReadAheadDepth or no spare frame.
  void walk_ahead(Walk& walk, ThreadPool& pool);
  /// The sink is at the window's oldest miss: await its payload reads,
  /// top the spare frames up and release what its insert evicted.
  [[nodiscard]] Status settle_miss();
  /// Take frames of `bytes` from the pool until the spares and the reads
  /// in flight number kReadAheadDepth.
  void top_up_spares(std::size_t bytes);
  /// Await every read in flight and empty the window.
  void settle_all();
  /// Read the header and metadata of the container `read` charged into
  /// `buffer` and parse them; no chunk is loaded yet.
  [[nodiscard]] Result<storage::Container> read_head(
      const storage::ChunkRepository::PendingRead& read,
      storage::FrameBuffer buffer) const;
  /// Read into `c` the payload runs of its chunks whose last use is at or
  /// after `pos`. Touches nothing but `c` and the repository's devices,
  /// so it runs on the pool.
  [[nodiscard]] Status read_needed(storage::Container& c,
                                   const LastUse& last_use,
                                   std::uint64_t pos) const;
  /// Read the chunks of a cached container that a restore's miss did not
  /// read, with one device read that charges nothing.
  [[nodiscard]] Status complete(storage::Container& c) const;

  ChunkStoreConfig config_;
  storage::ChunkRepository* repository_;
  storage::ContainerManager containers_;
  storage::ChunkLog* log_;
  cache::LpcCache lpc_;
  /// Frames the next read-aheads read into, held between restores.
  std::vector<storage::FrameBuffer> spares_;
  /// The steps the walk made that the sink has not reached, from
  /// window_[window_head_]; kept between restores for its capacity.
  std::vector<Step> window_;
  std::size_t window_head_ = 0;
  /// The window's misses, oldest at misses_[miss_head_].
  std::array<Miss, kReadAheadDepth> misses_;
  std::size_t miss_head_ = 0;
  std::size_t miss_count_ = 0;
};

}  // namespace debar::core
