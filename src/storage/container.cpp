#include "storage/container.hpp"

#include <cassert>
#include "common/fmt.hpp"

#include "common/serial.hpp"

namespace debar::storage {

Container::Container(std::uint64_t capacity) : capacity_(capacity) {
  assert(capacity_ > kHeaderSize + ChunkMeta::kSerializedSize);
}

bool Container::try_append(const Fingerprint& fp, ByteSpan chunk) {
  const std::uint64_t used = kHeaderSize +
                             (metadata_.size() + 1) *
                                 ChunkMeta::kSerializedSize +
                             data_.size() + chunk.size();
  if (used > capacity_) return false;

  metadata_.push_back({.fp = fp,
                       .size = static_cast<std::uint32_t>(chunk.size()),
                       .offset = static_cast<std::uint32_t>(data_.size())});
  data_.insert(data_.end(), chunk.begin(), chunk.end());
  return true;
}

bool Container::nearly_full() const noexcept {
  const std::uint64_t used = kHeaderSize +
                             (metadata_.size() + 1) *
                                 ChunkMeta::kSerializedSize +
                             data_.size();
  return used + kMinChunkSize > capacity_;
}

std::optional<ByteSpan> Container::find(const Fingerprint& fp) const {
  for (const ChunkMeta& m : metadata_) {
    if (m.fp == fp) {
      return ByteSpan(data_.data() + m.offset, m.size);
    }
  }
  return std::nullopt;
}

ByteSpan Container::chunk_at(std::size_t i) const {
  assert(i < metadata_.size());
  const ChunkMeta& m = metadata_[i];
  return ByteSpan(data_.data() + m.offset, m.size);
}

std::vector<Byte> Container::serialize() const {
  std::vector<Byte> out;
  out.reserve(capacity_);
  serialize_into(out);
  return out;
}

void Container::serialize_into(std::vector<Byte>& out) const {
  const std::size_t start = out.size();
  ByteWriter w(out);
  w.u32(kMagic);
  w.container_id(id_);
  w.u32(static_cast<std::uint32_t>(metadata_.size()));
  w.u32(static_cast<std::uint32_t>(data_.size()));
  for (const ChunkMeta& m : metadata_) {
    w.fingerprint(m.fp);
    w.u32(m.size);
    w.u32(m.offset);
  }
  w.bytes(ByteSpan(data_.data(), data_.size()));
  out.resize(start + capacity_, 0);
}

Result<Container> Container::deserialize(ByteSpan image) {
  ByteReader r(image);
  const std::uint32_t magic = r.u32();
  if (!r.ok() || magic != kMagic) {
    return Error{Errc::kCorrupt, "bad container magic"};
  }
  Container c(image.size());
  c.id_ = r.container_id();
  const std::uint32_t count = r.u32();
  const std::uint32_t data_bytes = r.u32();
  if (!r.ok()) return Error{Errc::kCorrupt, "truncated container header"};

  const std::uint64_t meta_bytes =
      std::uint64_t{count} * ChunkMeta::kSerializedSize;
  if (kHeaderSize + meta_bytes + data_bytes > image.size()) {
    return Error{Errc::kCorrupt,
                 debar::format("container sections overflow image: {} chunks, "
                             "{} data bytes, {} image bytes",
                             count, data_bytes, image.size())};
  }

  c.metadata_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ChunkMeta m;
    m.fp = r.fingerprint();
    m.size = r.u32();
    m.offset = r.u32();
    if (!r.ok() ||
        std::uint64_t{m.offset} + m.size > data_bytes) {
      return Error{Errc::kCorrupt,
                   debar::format("chunk {} metadata out of bounds", i)};
    }
    c.metadata_.push_back(m);
  }
  ByteSpan data = r.view(data_bytes);
  if (!r.ok()) return Error{Errc::kCorrupt, "truncated container data"};
  c.data_.assign(data.begin(), data.end());
  return c;
}

}  // namespace debar::storage
