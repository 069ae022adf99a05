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
//
// In memory a container lives in one FrameBuffer laid out as the
// repository's frame: kFrameRoom bytes for the frame header, then the
// image. An open container packs each chunk's payload straight into the
// buffer, behind room reserved for the metadata it will need; seal()
// writes the header and metadata just in front of the payload, so the
// image is never copied. A container read back from a device is parsed in
// place and views its payload inside the buffer it was read into.
//
// A container may also be read in part: its header and metadata, then
// only some chunks' payloads, each at its place in the image. It records
// which chunks are loaded and where its image lies on the device, so the
// rest can be read later (DESIGN.md §5n).
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "storage/frame_pool.hpp"

namespace debar::storage {

class BlockDevice;

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
  /// Bytes a container's buffer keeps in front of its image for the
  /// repository's frame header.
  static constexpr std::size_t kFrameRoom = 8;

  /// The fixed header of an image.
  struct Header {
    ContainerId id;
    std::uint32_t chunk_count = 0;
    std::uint32_t data_bytes = 0;
  };

  /// Where an image lies on a device.
  struct Source {
    BlockDevice* device = nullptr;
    std::uint64_t offset = 0;  // of the image's first byte
  };

  /// Bytes of an image's header and metadata: where its payload starts.
  [[nodiscard]] static constexpr std::uint64_t head_bytes(
      std::uint64_t chunk_count) {
    return kHeaderSize + chunk_count * ChunkMeta::kSerializedSize;
  }

  /// An open, empty container. Its buffer is taken on the first append:
  /// from `pool` when one is given (it must outlive the open container),
  /// else freshly allocated.
  explicit Container(std::uint64_t capacity = kContainerSize,
                     FramePool* pool = nullptr);

  /// Move-only: a container owns an ~8 MB buffer.
  Container(Container&&) noexcept = default;
  Container& operator=(Container&&) noexcept = default;

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
    return data_bytes_;
  }
  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] const std::vector<ChunkMeta>& metadata() const noexcept {
    return metadata_;
  }

  /// Payload of the first chunk with fingerprint `fp`, or nullopt. Linear
  /// scan of the metadata; restore hits go through the LPC's index.
  [[nodiscard]] std::optional<ByteSpan> find(const Fingerprint& fp) const;
  /// Index of the first chunk with fingerprint `fp`, or nullopt. Reads
  /// only the metadata, so it never races a read of the payload.
  [[nodiscard]] std::optional<std::uint32_t> index_of(
      const Fingerprint& fp) const;

  /// Payload of chunk `i` in arrival order. The chunk must be loaded.
  [[nodiscard]] ByteSpan chunk_at(std::size_t i) const {
    assert(i < metadata_.size());
    assert(loaded(i) && "span of a chunk that was not read");
    const ChunkMeta& m = metadata_[i];
    return ByteSpan(buffer_.data() + data_pos_ + m.offset, m.size);
  }

  /// Whether chunk `i`'s payload is in the buffer. Every chunk is, except
  /// in a container read in part (parse_head()) and not yet completed.
  [[nodiscard]] bool loaded(std::size_t i) const {
    return missing_ == 0 || loaded_[i];
  }
  /// Whether every chunk's payload is in the buffer.
  [[nodiscard]] bool whole() const noexcept { return missing_ == 0; }
  /// Mark chunks [first, last) loaded: their payloads were read into
  /// image_span().
  void set_loaded(std::size_t first, std::size_t last);
  /// Where the image of a container read in part lies, to read the rest.
  [[nodiscard]] const Source& source() const noexcept { return source_; }

  /// The bytes [begin, end) of the image in the buffer, to read a run of
  /// a container parsed in part into.
  [[nodiscard]] std::span<Byte> image_span(std::uint64_t begin,
                                           std::uint64_t end);

  [[nodiscard]] ContainerId id() const noexcept { return id_; }
  void set_id(ContainerId id) noexcept { id_ = id; }

  /// Size of the buffer that holds a container of `capacity` bytes: the
  /// frame room, the image, and slack that lets the metadata grow in
  /// front of the packed payload without moving it.
  [[nodiscard]] static std::size_t buffer_bytes(std::uint64_t capacity);

  /// Lay the image out in place and return [kFrameRoom bytes][image] —
  /// the repository writes its frame header into the room. A sealed
  /// container takes no more appends.
  [[nodiscard]] std::span<Byte> seal();

  /// The image of a sealed or parsed whole container, in place.
  [[nodiscard]] ByteSpan image() const noexcept {
    assert(whole());
    return ByteSpan(image_start(), capacity_);
  }

  /// A copy of the image: exactly `capacity()` bytes.
  [[nodiscard]] std::vector<Byte> serialize() const;

  /// Parse a serialized image into a container of its own (copies it);
  /// validates magic, counts, and bounds.
  [[nodiscard]] static Result<Container> deserialize(ByteSpan image);

  /// Parse, in place, the `image_bytes`-byte image at kFrameRoom in
  /// `buffer`: the container takes the buffer and views its payload.
  /// Validates exactly as deserialize() does.
  [[nodiscard]] static Result<Container> parse(FrameBuffer buffer,
                                               std::uint64_t image_bytes);

  /// Parse, in place, only the header and metadata of the image at
  /// kFrameRoom in `buffer`, which lies at `source`: no chunk is loaded
  /// yet. Validates exactly as parse() does.
  [[nodiscard]] static Result<Container> parse_head(FrameBuffer buffer,
                                                    std::uint64_t image_bytes,
                                                    Source source);

  /// Parse the first kHeaderSize bytes of an image of `image_bytes` bytes
  /// and check that its sections fit in the image.
  [[nodiscard]] static Result<Header> parse_header(ByteSpan header,
                                                   std::uint64_t image_bytes);

 private:
  void ensure_buffer();
  [[nodiscard]] static Result<Container> parse_in_place(
      FrameBuffer buffer, std::uint64_t image_bytes);
  [[nodiscard]] const Byte* image_start() const noexcept {
    return buffer_.data() + data_pos_ - head_bytes(metadata_.size());
  }
  [[nodiscard]] ByteSpan payload() const noexcept {
    return ByteSpan(buffer_.data() + data_pos_, data_bytes_);
  }
  void write_header_and_metadata(std::vector<Byte>& out) const;

  std::uint64_t capacity_;
  FramePool* pool_;
  ContainerId id_;
  std::vector<ChunkMeta> metadata_;
  FrameBuffer buffer_;
  std::size_t data_pos_ = 0;     // payload start within buffer_
  std::uint64_t data_bytes_ = 0;
  std::size_t meta_slots_ = 0;   // metadata entries room in front of data_pos_
  bool sealed_ = false;
  // A container read in part: a flag per chunk and the count still unread.
  std::vector<bool> loaded_;
  std::size_t missing_ = 0;
  Source source_;
};

}  // namespace debar::storage
