// Locality-preserved caching (LPC) for the restore path [Zhu08, Section 3.3].
//
// Chunk reads during restore first consult this cache. On a miss, the
// caller looks the fingerprint up in the disk index, reads the whole
// container that holds it, and inserts the container here — so one disk
// read prefetches ~1K neighbouring fingerprints that SISL wrote in stream
// order. Eviction is LRU at container granularity.
//
// A cached container may hold only some of its chunks' payloads (a
// restore reads just the chunks its recipe still needs, DESIGN.md §5o).
// The cache does not care: membership, hits and misses follow the
// metadata, and the owner completes a container before it hands out a
// chunk that was not read (lookup()).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/types.hpp"
#include "storage/container.hpp"

namespace debar::cache {

class LpcCache {
 public:
  /// `max_containers`: capacity in containers (memory budget / 8 MB).
  explicit LpcCache(std::size_t max_containers);

  /// Not copyable: a copy's fingerprint map would point into the
  /// source's slots. Moving keeps every slot where it is (node-based
  /// containers keep their elements' addresses), so the map stays valid.
  LpcCache(const LpcCache&) = delete;
  LpcCache& operator=(const LpcCache&) = delete;
  LpcCache(LpcCache&&) = default;
  LpcCache& operator=(LpcCache&&) = default;

  /// Where a cached chunk is: the container holding it and its index
  /// there.
  struct Hit {
    storage::Container* container;
    std::uint32_t index;
  };

  /// Look up a chunk. A hit refreshes the owning container's recency and
  /// returns where the chunk is (valid until the next insert/evict); a
  /// hit or a miss is counted.
  [[nodiscard]] std::optional<Hit> lookup(const Fingerprint& fp);

  /// lookup(), then a view of the chunk, which must be loaded.
  [[nodiscard]] std::optional<ByteSpan> find(const Fingerprint& fp);

  /// Insert a container fetched on a miss; evicts the LRU container when
  /// full. Replaces any cached copy with the same ID. Returns the
  /// container it evicted or replaced, if any, so that a caller still
  /// viewing it can keep it alive; dropping the result frees it.
  std::shared_ptr<storage::Container> insert(
      std::shared_ptr<storage::Container> container);

  /// Whether a chunk is cached. Unlike find() it counts neither a hit nor
  /// a miss and leaves recency alone, so probing never changes what the
  /// cache does next (restore's read-ahead finds the next miss with it).
  [[nodiscard]] bool holds(const Fingerprint& fp) const {
    return fp_to_chunk_.contains(fp);
  }

  [[nodiscard]] bool contains_container(ContainerId id) const {
    return by_id_.contains(id.value);
  }

  [[nodiscard]] std::size_t container_count() const noexcept {
    return by_id_.size();
  }
  [[nodiscard]] std::size_t max_containers() const noexcept { return cap_; }

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] double hit_rate() const noexcept {
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / total;
  }

  void clear();

 private:
  struct Slot {
    std::shared_ptr<storage::Container> container;
    std::list<std::uint64_t>::iterator lru_pos;
  };
  /// Where a cached fingerprint's payload is: the newest inserted
  /// container holding it, and its first slot there. Slots are stable:
  /// unordered_map never moves its elements.
  struct Location {
    Slot* slot;
    std::uint32_t index;
  };

  void touch(Slot& slot);
  [[nodiscard]] std::shared_ptr<storage::Container> evict_lru();

  std::size_t cap_;
  std::list<std::uint64_t> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, Slot> by_id_;
  std::unordered_map<Fingerprint, Location, FingerprintHash> fp_to_chunk_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace debar::cache
