// Fixed-size self-describing container (Section 3.4).
//
// The container is the storage unit of the chunk repository: 8 MB, with a
// metadata section (per-chunk fingerprint, size, offset) preceding the
// data section. Self-description allows the disk index to be rebuilt by
// scanning the repository, and lets LPC prefetch a container's whole
// fingerprint set on one read.
//
// On-disk layout (little-endian):
//   [0..4)    magic 'DBRC'
//   [4..9)    container ID (40-bit)
//   [9..13)   chunk count (u32)
//   [13..17)  data bytes used (u32)
//   [17..)    metadata entries: {fingerprint[20], size u32, offset u32}
//   [data_offset..) chunk payloads, back to back
// The whole image is padded to exactly `capacity` bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"

namespace debar::storage {

/// Metadata describing one chunk inside a container.
struct ChunkMeta {
  Fingerprint fp;
  std::uint32_t size = 0;
  std::uint32_t offset = 0;  // within the container's data section

  static constexpr std::size_t kSerializedSize = Fingerprint::kSize + 4 + 4;

  friend bool operator==(const ChunkMeta&, const ChunkMeta&) = default;
};

class Container {
 public:
  static constexpr std::uint32_t kMagic = 0x43524244;  // 'DBRC'
  static constexpr std::size_t kHeaderSize = 4 + 5 + 4 + 4;

  explicit Container(std::uint64_t capacity = kContainerSize);

  /// Try to add a chunk. Returns false when the chunk (payload + metadata
  /// entry) doesn't fit — the caller then seals this container and opens a
  /// new one. Appending preserves arrival order (SISL).
  [[nodiscard]] bool try_append(const Fingerprint& fp, ByteSpan chunk);

  /// True when fewer than `kMinChunkSize` payload bytes remain; used by
  /// writers that want to seal mostly-full containers eagerly.
  [[nodiscard]] bool nearly_full() const noexcept;

  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return metadata_.size();
  }
  [[nodiscard]] std::uint64_t data_bytes() const noexcept {
    return data_.size();
  }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const std::vector<ChunkMeta>& metadata() const noexcept {
    return metadata_;
  }

  /// Payload of the chunk with fingerprint `fp`, or nullopt. Linear scan of
  /// the metadata — containers hold ~1K chunks, and restore goes through
  /// the LPC cache anyway.
  [[nodiscard]] std::optional<ByteSpan> find(const Fingerprint& fp) const;

  /// Payload of chunk `i` in arrival order.
  [[nodiscard]] ByteSpan chunk_at(std::size_t i) const;

  [[nodiscard]] ContainerId id() const noexcept { return id_; }
  void set_id(ContainerId id) noexcept { id_ = id; }

  /// Serialize to exactly `capacity()` bytes.
  [[nodiscard]] std::vector<Byte> serialize() const;

  /// Append the same `capacity()` bytes to `out`, after whatever it
  /// already holds (e.g. a frame header).
  void serialize_into(std::vector<Byte>& out) const;

  /// Parse a serialized image; validates magic, counts, and bounds.
  [[nodiscard]] static Result<Container> deserialize(ByteSpan image);

 private:
  std::uint64_t capacity_;
  ContainerId id_;
  std::vector<ChunkMeta> metadata_;
  std::vector<Byte> data_;
};

}  // namespace debar::storage
