// Chunk repository: the global de-duplication storage pool (Section 3.4).
//
// A cluster of storage nodes, each holding an append-only container log.
// Containers get a global 40-bit ID; placement stripes containers across
// nodes round-robin (ID determines the node, so reads need no directory).
// Each node has its own DiskModel so aggregate read/write bandwidth scales
// with node count, as in the paper's 16-node repository.
//
// A persistent repository keeps only a frame directory in memory; every
// read() fetches its container's image from the node device into a buffer
// recycled through the repository's FramePool and parses it in place. A
// memory-only repository holds each sealed container itself.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "sim/disk_model.hpp"
#include "storage/block_device.hpp"
#include "storage/container.hpp"
#include "storage/frame_pool.hpp"

namespace debar::storage {

class ChunkRepository {
 public:
  /// `nodes`: number of storage nodes; each gets its own clock + model
  /// using `profile`.
  explicit ChunkRepository(std::size_t nodes = 1,
                           sim::DiskProfile profile = sim::DiskProfile::PaperRaid());

  /// Persistent mode: one backing block device per storage node. Every
  /// container is written through to its node's device as a framed log
  /// record ([magic][length][image]); removals tombstone the frame in
  /// place. Backing devices must NOT carry a sim::DiskModel — modeled
  /// time is charged by the per-node models, the backing I/O is real.
  explicit ChunkRepository(
      std::vector<std::unique_ptr<BlockDevice>> node_devices,
      sim::DiskProfile profile = sim::DiskProfile::PaperRaid());

  /// Re-open a persistent repository: scans each node's container log,
  /// skipping tombstoned frames, and rebuilds the directory (IDs, node
  /// placement, payload accounting) from frame and container headers
  /// alone; payloads are not read.
  [[nodiscard]] static Result<std::unique_ptr<ChunkRepository>> open(
      std::vector<std::unique_ptr<BlockDevice>> node_devices,
      sim::DiskProfile profile = sim::DiskProfile::PaperRaid());

  /// Seal and store a container; assigns and returns its global ID.
  /// Thread-safe: multiple backup servers store containers concurrently.
  /// Placement is round-robin by ID unless `node` pins a specific
  /// storage node (used by the defragmenter to co-locate a version's
  /// chunks, Section 6.3).
  [[nodiscard]] ContainerId append(Container container,
                                   std::optional<std::size_t> node =
                                       std::nullopt);

  /// Pre-assign the next container ID without storing anything. A
  /// maintenance prepare stage reserves IDs for the containers it stages
  /// so the later commit (append_reserved) is infallible and the staged
  /// index images can reference final IDs before anything is published.
  /// A crash between reserve and commit merely burns the IDs — the
  /// counter is in-memory and re-derived from the log on open().
  [[nodiscard]] ContainerId reserve_id();

  /// Store a container under a previously reserved ID. Same placement
  /// rule as append(): round-robin by ID unless `node` pins one.
  void append_reserved(ContainerId id, Container container,
                       std::optional<std::size_t> node = std::nullopt);

  /// IDs of every stored container, ascending. Used by index recovery
  /// (Section 4.1: rebuild a corrupted index by scanning the repository).
  [[nodiscard]] std::vector<ContainerId> container_ids() const;

  /// Delete a container (space reclamation). kNotFound if absent.
  [[nodiscard]] Status remove(ContainerId id);

  /// Fetch a container image by ID and parse it. A persistent repository
  /// reads the image from its node device with one device read, outside
  /// the repository lock; the container owns the pooled buffer it was
  /// read into until it is destroyed. It is charge_read(), then
  /// read_range() of the whole image into a buffer from frame_pool(),
  /// then Container::parse().
  [[nodiscard]] Result<Container> read(ContainerId id) const;

  /// A container read charged to its node's DiskModel but not fetched.
  struct PendingRead {
    std::uint64_t image_bytes = 0;
    std::uint32_t chunk_count = 0;
    /// Set when the repository holds the container in memory (memory-only
    /// mode, or a failed write-through): there is nothing to fetch, and
    /// Container::deserialize(held->image()) reads it.
    std::shared_ptr<const Container> held;
    Container::Source source;  // of the image, when not held

    [[nodiscard]] std::size_t buffer_bytes() const {
      return Container::buffer_bytes(image_bytes);
    }
  };

  /// The first step of read(): find the container and charge its node's
  /// model one seek plus the image's transfer. kNotFound if absent.
  [[nodiscard]] Result<PendingRead> charge_read(ContainerId id) const;

  /// Read bytes [begin, begin + out.size()) of the image at `source` into
  /// `out` with one device read, outside the repository lock. It charges
  /// nothing (charge_read() charges a container whole) and does not
  /// consult the directory, so it still reads a removed container's
  /// tombstoned frame. Thread-safe; the repository must outlive the call.
  [[nodiscard]] Status read_range(const Container::Source& source,
                                  std::uint64_t begin,
                                  std::span<Byte> out) const;

  /// Whether containers live on node devices (and reads go to them).
  [[nodiscard]] bool persistent() const noexcept { return !backing_.empty(); }

  /// Idle frame buffers the pool keeps: the default LPC's 16 containers
  /// plus the dedup-2 stores that may be sealing at once.
  static constexpr std::size_t kIdleFrames = 20;

  /// The pool that read() and open containers (ContainerManager) draw
  /// frame buffers from.
  [[nodiscard]] FramePool& frame_pool() const noexcept { return *pool_; }

  [[nodiscard]] bool contains(ContainerId id) const;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] std::uint64_t container_count() const;

  /// Total payload bytes stored across all containers (physical data).
  [[nodiscard]] std::uint64_t stored_bytes() const;

  /// Simulated busy time of the most-loaded node — the repository-side
  /// critical path of a parallel phase.
  [[nodiscard]] double max_node_seconds() const;

  /// Sum of all node clocks (for serial composition accounting).
  [[nodiscard]] double total_node_seconds() const;

  void reset_clocks();

  /// Storage node holding a container (round-robin unless pinned).
  [[nodiscard]] std::size_t node_of(ContainerId id) const;

  /// Durability status of the persistent write-through path: the first
  /// container-frame or tombstone write that failed even after bounded
  /// retries, Ok otherwise. Reading clears it. append() cannot widen its
  /// signature for every in-memory caller, so the dedup-2 chunk-storing
  /// step polls this after sealing a batch and fails the round — turning
  /// silent durability loss into an unacked backup. Always Ok for
  /// memory-only repositories.
  [[nodiscard]] Status take_backing_error();

 private:
  struct Node {
    sim::SimClock clock;
    sim::DiskModel model;
    std::uint64_t appended_bytes = 0;

    explicit Node(sim::DiskProfile profile) : model(profile, &clock) {}
  };

  [[nodiscard]] std::size_t node_of_locked(ContainerId id) const;

  /// Shared tail of append/append_reserved: seal, place, write through.
  void store_locked(ContainerId id, Container container,
                    std::optional<std::size_t> pin);

  /// Write `data` to node `node`'s device with retries; a failure is
  /// logged, parked in backing_error_ and returned as false.
  [[nodiscard]] bool write_through_locked(std::size_t node,
                                          std::uint64_t offset, ByteSpan data,
                                          const char* what);

  /// One stored container. A persisted one is found by its frame offset
  /// on its node's device; a memory-only one — or one whose write-through
  /// failed — is held whole.
  struct Entry {
    std::uint64_t image_bytes = 0;
    std::uint64_t data_bytes = 0;
    std::uint32_t chunk_count = 0;
    std::uint64_t offset = 0;  // of the frame header, when not held
    std::shared_ptr<const Container> held;
  };

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  /// Containers placed off the round-robin pattern (defragmentation).
  std::unordered_map<std::uint64_t, std::size_t> pinned_nodes_;
  std::uint64_t next_id_ = 1;  // 0 is kNullContainer
  std::shared_ptr<FramePool> pool_ = std::make_shared<FramePool>(kIdleFrames);

  /// Persistent mode state (empty vectors when memory-only).
  std::vector<std::unique_ptr<BlockDevice>> backing_;
  std::vector<std::uint64_t> tails_;
  Status backing_error_;  // sticky until take_backing_error()
  /// Orders read_range()'s device reads, taken outside mutex_, against the
  /// writes made under it: a device need not allow a read to race a write
  /// that grows it.
  mutable std::shared_mutex io_mutex_;

  std::uint64_t stored_payload_bytes_ = 0;
};

}  // namespace debar::storage
