// Epoch-versioned ownership map: which server holds each index partition.
//
// DEBAR routes a fingerprint to index partition fp.prefix_bits(w) and, since
// the replication PR, keeps a second copy of every partition on another
// server. Before this map existed the placement was implicit modulo
// arithmetic re-derived at every call site (backup on server (p+1) mod 2^w,
// replica part (k-1) mod 2^w); that breaks down the moment the fleet grows
// or shrinks, because after a live w -> w+1 split or a server drain the
// placement is an explicit permutation that no closed formula reproduces.
//
// PartitionMap is the single source of truth: for each partition it names an
// ordered pair of copies (copies[0] is the preferred serving copy, copies[1]
// the backup), each copy naming a server slot and whether that server serves
// the partition through its ChunkStore or through a copy it hosts for another
// server's part (both are core::IndexPart). A monotonically increasing epoch versions the map; wire
// batches carry the epoch so a node holding a stale map rejects traffic from
// the future (and vice versa) instead of silently mis-routing fingerprints.
//
// Transitions (each returns a NEW map with epoch + 1; the cluster applies it
// with prepare/commit semantics so a crashed migration leaves the old map
// and its images untouched):
//   split()        w -> w+1: every partition p splits into 2p (stays on the
//                  old primary's ChunkStore) and 2p+1 (ChunkStore of brand-new
//                  server slot m+p, m = old server count). Backups rotate:
//                  the backup of partition q is the primary server of
//                  partition (q+1) mod 2m, holding it as a replica. Splitting
//                  identity(0) yields exactly identity(1); at larger widths
//                  the result is a permutation of the identity layout, which
//                  is why clusters must be constructible from an explicit map.
//   drained(s)     server slot s leaves: for every partition it held, the
//                  surviving copy is promoted to copies[0] (keeping its
//                  via_store flag) and a fresh replica is placed on the
//                  least-loaded live server (lowest slot id on ties, never
//                  the survivor). The slot stays allocated but not live.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace debar::core {

/// One placement of a partition: which server slot holds it and whether that
/// server serves it via its ChunkStore (via_store) or via a hosted IndexPart.
struct PartitionCopy {
  std::size_t server = 0;
  bool via_store = true;

  friend bool operator==(const PartitionCopy&, const PartitionCopy&) = default;
};

class PartitionMap {
 public:
  /// Default map is empty (no partitions); Cluster treats it as "build the
  /// identity layout for the configured routing width".
  PartitionMap() = default;

  /// The classic DEBAR layout at width w: 2^w partitions, partition p served
  /// by server p's ChunkStore with a replica on server (p+1) mod 2^w. At
  /// w == 0 there is a single unreplicated partition.
  static PartitionMap identity(unsigned routing_bits);

  // The historical closed-form placement helpers, consolidated here from
  // their former scattered copies. Identity maps obey them; post-transition
  // maps do not, which is the whole point of carrying the map explicitly.
  /// Server holding the backup copy of partition `part` in an identity map.
  static constexpr std::size_t backup_of(std::size_t part,
                                         std::size_t server_count) noexcept {
    return server_count < 2 ? part : (part + 1) % server_count;
  }
  /// Inverse: the partition whose backup lands on `server` in an identity map.
  static constexpr std::size_t replica_part_of(
      std::size_t server, std::size_t server_count) noexcept {
    return server_count < 2 ? server
                            : (server + server_count - 1) % server_count;
  }

  [[nodiscard]] unsigned routing_bits() const noexcept { return routing_bits_; }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::size_t part_count() const noexcept {
    return copies_.size();
  }
  /// Total server slots ever allocated (live or drained). Slot index ==
  /// endpoint id == Cluster::server(k) index.
  [[nodiscard]] std::size_t server_slots() const noexcept {
    return live_.size();
  }
  [[nodiscard]] bool is_live(std::size_t slot) const noexcept {
    return slot < live_.size() && live_[slot] != 0;
  }
  [[nodiscard]] std::size_t live_count() const noexcept;
  /// True when every partition has two copies on distinct servers.
  [[nodiscard]] bool replicated() const noexcept { return replicated_; }
  [[nodiscard]] bool empty() const noexcept { return copies_.empty(); }

  /// Partition owning fingerprint `fp` (its first routing_bits bits).
  [[nodiscard]] std::size_t owner_of(const Fingerprint& fp) const noexcept {
    return static_cast<std::size_t>(fp.prefix_bits(routing_bits_));
  }

  /// Copy `which` (0 = preferred, 1 = backup) of partition `part`. In an
  /// unreplicated map both indices name the same copy.
  [[nodiscard]] const PartitionCopy& copy(std::size_t part,
                                          std::size_t which) const {
    return copies_[part][replicated_ ? which : 0];
  }
  [[nodiscard]] std::size_t copy_count() const noexcept {
    return replicated_ ? 2 : 1;
  }
  /// The server holding the copy of `part` that `slot` does not hold.
  [[nodiscard]] std::size_t other_holder(std::size_t part,
                                         std::size_t slot) const {
    return copy(part, 0).server == slot ? copy(part, 1).server
                                        : copy(part, 0).server;
  }

  /// Sorted, deduplicated list of partitions with a copy on server `slot`.
  [[nodiscard]] std::vector<std::size_t> parts_hosted_by(
      std::size_t slot) const;

  /// The copy of `part` hosted on `slot`, or nullptr if none is.
  [[nodiscard]] const PartitionCopy* copy_on(std::size_t part,
                                             std::size_t slot) const;

  [[nodiscard]] Result<PartitionMap> split() const;
  [[nodiscard]] Result<PartitionMap> drained(std::size_t slot) const;

  friend bool operator==(const PartitionMap&, const PartitionMap&) = default;

 private:
  unsigned routing_bits_ = 0;
  std::uint32_t epoch_ = 0;
  bool replicated_ = false;
  std::vector<std::array<PartitionCopy, 2>> copies_;
  std::vector<char> live_;  // per slot; char so the vector stays addressable
};

}  // namespace debar::core
