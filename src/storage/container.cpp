#include "storage/container.hpp"

#include <algorithm>
#include <cstring>

#include "common/fmt.hpp"
#include "common/serial.hpp"

namespace debar::storage {

namespace {
/// Metadata entries an open container reserves in front of its payload:
/// enough for chunks averaging half the 8 KB target, so the payload of a
/// typical container never moves.
std::size_t reserve_slots(std::uint64_t capacity) {
  return std::max<std::size_t>(16, capacity / 4096);
}
}  // namespace

Container::Container(std::uint64_t capacity, FramePool* pool)
    : capacity_(capacity), pool_(pool) {}

std::size_t Container::buffer_bytes(std::uint64_t capacity) {
  return kFrameRoom + capacity +
         reserve_slots(capacity) * ChunkMeta::kSerializedSize;
}

void Container::ensure_buffer() {
  if (buffer_) return;
  assert(capacity_ > kHeaderSize + ChunkMeta::kSerializedSize);
  const std::size_t bytes = buffer_bytes(capacity_);
  buffer_ = pool_ != nullptr ? pool_->acquire(bytes) : FrameBuffer(bytes);
  meta_slots_ = reserve_slots(capacity_);
  data_pos_ = kFrameRoom + kHeaderSize + meta_slots_ * ChunkMeta::kSerializedSize;
}

bool Container::try_append(const Fingerprint& fp, ByteSpan chunk) {
  assert(!sealed_ && "append to a sealed container");
  const std::size_t n = metadata_.size();
  const std::uint64_t used = kHeaderSize +
                             (n + 1) * ChunkMeta::kSerializedSize +
                             data_bytes_ + chunk.size();
  if (used > capacity_) return false;

  ensure_buffer();
  if (n + 1 > meta_slots_) {
    // More chunks than the metadata room: move the payload back. Half a
    // reserve of headroom keeps this rare and keeps seal()'s frame inside
    // the buffer's slack.
    const std::size_t slots = n + 1 + reserve_slots(capacity_) / 2;
    const std::size_t pos =
        kFrameRoom + kHeaderSize + slots * ChunkMeta::kSerializedSize;
    std::memmove(buffer_.data() + pos, buffer_.data() + data_pos_,
                 data_bytes_);
    data_pos_ = pos;
    meta_slots_ = slots;
  }
  metadata_.push_back({.fp = fp,
                       .size = static_cast<std::uint32_t>(chunk.size()),
                       .offset = static_cast<std::uint32_t>(data_bytes_)});
  if (!chunk.empty()) {
    std::memcpy(buffer_.data() + data_pos_ + data_bytes_, chunk.data(),
                chunk.size());
  }
  data_bytes_ += chunk.size();
  return true;
}

bool Container::nearly_full() const noexcept {
  const std::uint64_t used = kHeaderSize +
                             (metadata_.size() + 1) *
                                 ChunkMeta::kSerializedSize +
                             data_bytes_;
  return used + kMinChunkSize > capacity_;
}

std::optional<ByteSpan> Container::find(const Fingerprint& fp) const {
  const std::optional<std::uint32_t> i = index_of(fp);
  if (!i.has_value()) return std::nullopt;
  return chunk_at(*i);
}

std::optional<std::uint32_t> Container::index_of(const Fingerprint& fp) const {
  for (std::uint32_t i = 0; i < metadata_.size(); ++i) {
    if (metadata_[i].fp == fp) return i;
  }
  return std::nullopt;
}

void Container::write_header_and_metadata(std::vector<Byte>& out) const {
  ByteWriter w(out);
  w.u32(kMagic);
  w.container_id(id_);
  w.u32(static_cast<std::uint32_t>(metadata_.size()));
  w.u32(static_cast<std::uint32_t>(data_bytes_));
  for (const ChunkMeta& m : metadata_) {
    w.fingerprint(m.fp);
    w.u32(m.size);
    w.u32(m.offset);
  }
}

std::span<Byte> Container::seal() {
  ensure_buffer();
  std::vector<Byte> head;
  head.reserve(kHeaderSize + metadata_.size() * ChunkMeta::kSerializedSize);
  write_header_and_metadata(head);
  // The header and metadata end exactly where the payload starts.
  std::size_t frame = data_pos_ - kFrameRoom - head.size();
  if (frame + kFrameRoom + capacity_ > buffer_.size()) {
    // Only a deserialize()d container, whose buffer holds just the image's
    // used bytes, lacks room for its frame: give it a full-size buffer.
    FrameBuffer full(buffer_bytes(capacity_));
    frame = 0;
    std::memcpy(full.data() + kFrameRoom + head.size(), payload().data(),
                data_bytes_);
    buffer_ = std::move(full);
    data_pos_ = kFrameRoom + head.size();
  }
  const std::size_t frame_end = frame + kFrameRoom + capacity_;
  std::memcpy(buffer_.data() + frame + kFrameRoom, head.data(), head.size());
  const std::size_t data_end = data_pos_ + data_bytes_;
  std::memset(buffer_.data() + data_end, 0, frame_end - data_end);
  sealed_ = true;
  return std::span<Byte>(buffer_.data() + frame, kFrameRoom + capacity_);
}

std::vector<Byte> Container::serialize() const {
  assert(whole());
  std::vector<Byte> out;
  out.reserve(capacity_);
  write_header_and_metadata(out);
  const ByteSpan data = payload();
  out.insert(out.end(), data.begin(), data.end());
  out.resize(capacity_, 0);
  return out;
}

Result<Container::Header> Container::parse_header(ByteSpan header,
                                                   std::uint64_t image_bytes) {
  ByteReader r(header);
  const std::uint32_t magic = r.u32();
  if (!r.ok() || magic != kMagic) {
    return Error{Errc::kCorrupt, "bad container magic"};
  }
  Header h;
  h.id = r.container_id();
  h.chunk_count = r.u32();
  h.data_bytes = r.u32();
  if (!r.ok()) return Error{Errc::kCorrupt, "truncated container header"};

  const std::uint64_t meta_bytes =
      std::uint64_t{h.chunk_count} * ChunkMeta::kSerializedSize;
  if (kHeaderSize + meta_bytes + h.data_bytes > image_bytes) {
    return Error{Errc::kCorrupt,
                 debar::format("container sections overflow image: {} chunks, "
                             "{} data bytes, {} image bytes",
                             h.chunk_count, h.data_bytes, image_bytes)};
  }
  return h;
}

Result<Container> Container::deserialize(ByteSpan image) {
  Result<Header> header = parse_header(image, image.size());
  if (!header.ok()) return header.error();
  // Copy only the used bytes; the zero padding is implied by capacity().
  const std::size_t used = kHeaderSize +
                           header.value().chunk_count *
                               ChunkMeta::kSerializedSize +
                           header.value().data_bytes;
  FrameBuffer buffer(kFrameRoom + used);
  std::memcpy(buffer.data() + kFrameRoom, image.data(), used);
  return parse(std::move(buffer), image.size());
}

Result<Container> Container::parse(FrameBuffer buffer,
                                   std::uint64_t image_bytes) {
  Result<Container> c = parse_in_place(std::move(buffer), image_bytes);
  assert(!c.ok() ||
         c.value().buffer_.size() - kFrameRoom >=
             head_bytes(c.value().chunk_count()) + c.value().data_bytes_);
  return c;
}

Result<Container> Container::parse_head(FrameBuffer buffer,
                                        std::uint64_t image_bytes,
                                        Source source) {
  Result<Container> parsed = parse_in_place(std::move(buffer), image_bytes);
  if (!parsed.ok()) return parsed;
  Container& c = parsed.value();
  c.missing_ = c.metadata_.size();
  c.loaded_.assign(c.missing_, false);
  c.source_ = source;
  return parsed;
}

Result<Container> Container::parse_in_place(FrameBuffer buffer,
                                            std::uint64_t image_bytes) {
  // The buffer holds at least the image's header and metadata;
  // parse_header() bounds its sections by `image_bytes`.
  const ByteSpan held(buffer.data() + kFrameRoom,
                      std::min<std::uint64_t>(buffer.size() - kFrameRoom,
                                              image_bytes));
  Result<Header> header = parse_header(held, image_bytes);
  if (!header.ok()) return header.error();
  const Header& h = header.value();

  Container c(image_bytes);
  c.id_ = h.id;
  ByteReader r(held.subspan(kHeaderSize));
  c.metadata_.reserve(h.chunk_count);
  for (std::uint32_t i = 0; i < h.chunk_count; ++i) {
    ChunkMeta m;
    m.fp = r.fingerprint();
    m.size = r.u32();
    m.offset = r.u32();
    if (!r.ok() || std::uint64_t{m.offset} + m.size > h.data_bytes) {
      return Error{Errc::kCorrupt,
                   debar::format("chunk {} metadata out of bounds", i)};
    }
    c.metadata_.push_back(m);
  }
  c.data_pos_ = kFrameRoom + head_bytes(h.chunk_count);
  c.data_bytes_ = h.data_bytes;
  c.meta_slots_ = h.chunk_count;
  c.buffer_ = std::move(buffer);
  c.sealed_ = true;
  return c;
}

void Container::set_loaded(std::size_t first, std::size_t last) {
  assert(first <= last && last <= metadata_.size());
  if (missing_ == 0) return;
  for (std::size_t i = first; i < last; ++i) {
    if (!loaded_[i]) {
      loaded_[i] = true;
      --missing_;
    }
  }
  if (missing_ == 0) loaded_ = {};
}

std::span<Byte> Container::image_span(std::uint64_t begin,
                                      std::uint64_t end) {
  assert(begin <= end && end <= capacity_);
  const std::size_t at = data_pos_ - head_bytes(metadata_.size()) + begin;
  assert(at + (end - begin) <= buffer_.size());
  return std::span<Byte>(buffer_.data() + at, end - begin);
}

}  // namespace debar::storage
