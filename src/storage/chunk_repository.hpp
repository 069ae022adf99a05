// Chunk repository: the global de-duplication storage pool (Section 3.4).
//
// A cluster of storage nodes, each holding an append-only container log.
// Containers get a global 40-bit ID; placement stripes containers across
// nodes round-robin (ID determines the node, so reads need no directory).
// Each node has its own DiskModel so aggregate read/write bandwidth scales
// with node count, as in the paper's 16-node repository.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "sim/disk_model.hpp"
#include "storage/block_device.hpp"
#include "storage/container.hpp"

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
  /// placement, payload accounting).
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

  /// Fetch a container image by ID and parse it.
  [[nodiscard]] Result<Container> read(ContainerId id) const;

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

  /// Shared tail of append/append_reserved: serialize, place, write through.
  void store_locked(ContainerId id, Container container,
                    std::optional<std::size_t> pin);

  /// Frame location of a persisted container on its node's device.
  struct Frame {
    std::size_t node = 0;
    std::uint64_t offset = 0;  // of the frame header
  };

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Each container's frame, [magic][length][image] exactly as a
  /// persistent node log holds it; the image starts at byte 8.
  std::unordered_map<std::uint64_t, std::vector<Byte>> containers_;
  /// Containers placed off the round-robin pattern (defragmentation).
  std::unordered_map<std::uint64_t, std::size_t> pinned_nodes_;
  std::uint64_t next_id_ = 1;  // 0 is kNullContainer

  /// Persistent mode state (empty vectors when memory-only).
  std::vector<std::unique_ptr<BlockDevice>> backing_;
  std::vector<std::uint64_t> tails_;
  std::unordered_map<std::uint64_t, Frame> frames_;
  Status backing_error_;  // sticky until take_backing_error()

  std::uint64_t stored_payload_bytes_ = 0;
};

}  // namespace debar::storage
