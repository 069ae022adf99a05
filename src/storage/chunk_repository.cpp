#include "storage/chunk_repository.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include "common/fmt.hpp"
#include "common/log.hpp"
#include "common/serial.hpp"
#include "storage/io_retry.hpp"

namespace debar::storage {

namespace {
// Persistent container-log frame: [u32 magic][u32 image length][image].
constexpr std::uint32_t kFrameMagic = 0x4C434244;      // 'DBCL'
constexpr std::uint32_t kFrameTombstone = 0x58434244;  // 'DBCX'
constexpr std::size_t kFrameHeader = 8;
static_assert(kFrameHeader == Container::kFrameRoom);

void put_u32(Byte* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<Byte>(v >> (8 * i));
}
}  // namespace

ChunkRepository::ChunkRepository(std::size_t nodes, sim::DiskProfile profile) {
  assert(nodes > 0);
  nodes_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(profile));
  }
}

ChunkRepository::ChunkRepository(
    std::vector<std::unique_ptr<BlockDevice>> node_devices,
    sim::DiskProfile profile)
    : ChunkRepository(node_devices.size(), profile) {
  backing_ = std::move(node_devices);
  tails_.assign(backing_.size(), 0);
}

Result<std::unique_ptr<ChunkRepository>> ChunkRepository::open(
    std::vector<std::unique_ptr<BlockDevice>> node_devices,
    sim::DiskProfile profile) {
  if (node_devices.empty()) {
    return Error{Errc::kInvalidArgument, "no node devices"};
  }
  auto repo = std::unique_ptr<ChunkRepository>(
      new ChunkRepository(std::move(node_devices), profile));

  for (std::size_t node = 0; node < repo->backing_.size(); ++node) {
    BlockDevice& device = *repo->backing_[node];
    std::uint64_t pos = 0;
    // One read per frame: its header and its container's fixed header.
    std::array<Byte, kFrameHeader + Container::kHeaderSize> header{};
    while (pos + kFrameHeader <= device.size()) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(header.size(), device.size() - pos));
      if (Status s = device.read(pos, std::span<Byte>(header.data(), want));
          !s.ok()) {
        return Error{s.code(), s.message()};
      }
      ByteReader r(ByteSpan(header.data(), kFrameHeader));
      const std::uint32_t magic = r.u32();
      const std::uint32_t length = r.u32();
      if (magic != kFrameMagic && magic != kFrameTombstone) break;  // tail
      if (pos + kFrameHeader + length > device.size()) {
        // A frame that overruns the device can only be the torn tail of a
        // crashed append (frames are written whole, so mid-log frames are
        // always complete). Everything before it is intact; the partial
        // frame's container was never acknowledged, so drop it and stop.
        DEBAR_LOG_WARN(
            "torn tail frame at node {} offset {} ({} of {} bytes); "
            "discarding",
            node, pos, device.size() - pos - kFrameHeader, length);
        break;
      }
      if (magic == kFrameMagic) {
        const ByteSpan image_head =
            ByteSpan(header.data(), want)
                .subspan(kFrameHeader)
                .first(std::min<std::size_t>(want - kFrameHeader, length));
        Result<Container::Header> parsed =
            Container::parse_header(image_head, length);
        if (!parsed.ok()) return parsed.error();
        const std::uint64_t id = parsed.value().id.value;
        repo->next_id_ = std::max(repo->next_id_, id + 1);
        repo->stored_payload_bytes_ += parsed.value().data_bytes;
        Entry& entry = repo->entries_[id];
        entry.image_bytes = length;
        entry.data_bytes = parsed.value().data_bytes;
        entry.chunk_count = parsed.value().chunk_count;
        entry.offset = pos;
        // Record off-pattern placement so node_of stays correct.
        if ((id - 1) % repo->nodes_.size() != node) {
          repo->pinned_nodes_[id] = node;
        }
      }
      pos += kFrameHeader + length;
    }
    repo->tails_[node] = pos;
  }
  return repo;
}

ContainerId ChunkRepository::append(Container container,
                                    std::optional<std::size_t> pin) {
  std::lock_guard lock(mutex_);
  const ContainerId id{next_id_++ & ContainerId::kMask};
  store_locked(id, std::move(container), pin);
  return id;
}

ContainerId ChunkRepository::reserve_id() {
  std::lock_guard lock(mutex_);
  return ContainerId{next_id_++ & ContainerId::kMask};
}

void ChunkRepository::append_reserved(ContainerId id, Container container,
                                      std::optional<std::size_t> pin) {
  std::lock_guard lock(mutex_);
  assert(id.value != 0 && id.value < next_id_ && "ID must come from reserve_id");
  assert(!entries_.contains(id.value) && "reserved ID already stored");
  store_locked(id, std::move(container), pin);
}

void ChunkRepository::store_locked(ContainerId id, Container container,
                                   std::optional<std::size_t> pin) {
  container.set_id(id);
  // The image is laid out in the container's own buffer, behind room for
  // the frame header: that buffer is the write-through frame.
  const std::span<Byte> frame = container.seal();
  const std::uint64_t image_bytes = container.capacity();
  put_u32(frame.data(), kFrameMagic);
  put_u32(frame.data() + 4, static_cast<std::uint32_t>(image_bytes));

  if (pin.has_value()) {
    assert(*pin < nodes_.size());
    pinned_nodes_.emplace(id.value, *pin);
  }
  const std::size_t node_idx = node_of_locked(id);
  Node& node = *nodes_[node_idx];
  // Appends to a node's container log are sequential.
  node.model.stream(image_bytes);
  node.appended_bytes += image_bytes;
  stored_payload_bytes_ += container.data_bytes();

  Entry entry;
  entry.image_bytes = image_bytes;
  entry.data_bytes = container.data_bytes();
  entry.chunk_count = static_cast<std::uint32_t>(container.chunk_count());
  if (!backing_.empty()) {
    // Write-through to the node's persistent container log.
    const std::uint64_t offset = tails_[node_idx];
    if (write_through_locked(node_idx, offset, frame, "container")) {
      entry.offset = offset;
      tails_[node_idx] = offset + frame.size();
      // The container dies here and its buffer goes back to the pool.
      entries_.emplace(id.value, std::move(entry));
      return;
    }
    // The container stays readable from memory until the failed round is
    // dealt with.
  }
  entry.held = std::make_shared<const Container>(std::move(container));
  entries_.emplace(id.value, std::move(entry));
}

bool ChunkRepository::write_through_locked(std::size_t node,
                                           std::uint64_t offset, ByteSpan data,
                                           const char* what) {
  Status s;
  {
    std::unique_lock io(io_mutex_);
    s = write_with_retry(*backing_[node], offset, data);
  }
  if (s.ok()) return true;
  // Surfacing write failures through append's signature would change
  // every store path for a condition only the persistent mode can hit;
  // log loudly and park the failure in backing_error_ so the
  // chunk-storing step can fail its round (take_backing_error()).
  DEBAR_LOG_ERROR("persistent {} write failed: {}", what, s.to_string());
  if (backing_error_.ok()) backing_error_ = s;
  return false;
}

Result<Container> ChunkRepository::read(ContainerId id) const {
  Result<PendingRead> pending = charge_read(id);
  if (!pending.ok()) return pending.error();
  const PendingRead& read = pending.value();
  // Memory-only: parse a copy of the held image, as deserialize() makes.
  if (read.held != nullptr) return Container::deserialize(read.held->image());
  FrameBuffer buffer = pool_->acquire(read.buffer_bytes());
  if (Status s = read_range(read.source, 0,
                            std::span<Byte>(buffer.data() + kFrameHeader,
                                            read.image_bytes));
      !s.ok()) {
    return Error{s.code(), s.message()};
  }
  return Container::parse(std::move(buffer), read.image_bytes);
}

Result<ChunkRepository::PendingRead> ChunkRepository::charge_read(
    ContainerId id) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(id.value);
  if (it == entries_.end()) {
    return Error{Errc::kNotFound,
                 debar::format("container {} not in repository", id.value)};
  }
  const Entry& entry = it->second;
  const std::size_t node_idx = node_of_locked(id);
  // Container reads land at arbitrary log positions: one seek + transfer.
  nodes_[node_idx]->model.seek();
  nodes_[node_idx]->model.stream(entry.image_bytes);
  PendingRead read;
  read.image_bytes = entry.image_bytes;
  read.chunk_count = entry.chunk_count;
  read.held = entry.held;
  if (entry.held == nullptr) {
    read.source = {.device = backing_[node_idx].get(),
                   .offset = entry.offset + kFrameHeader};
  }
  return read;
}

Status ChunkRepository::read_range(const Container::Source& source,
                                   std::uint64_t begin,
                                   std::span<Byte> out) const {
  assert(source.device != nullptr);
  std::shared_lock io(io_mutex_);
  return read_with_retry(*source.device, source.offset + begin, out);
}

std::size_t ChunkRepository::node_of(ContainerId id) const {
  std::lock_guard lock(mutex_);
  return node_of_locked(id);
}

std::size_t ChunkRepository::node_of_locked(ContainerId id) const {
  const auto it = pinned_nodes_.find(id.value);
  if (it != pinned_nodes_.end()) return it->second;
  return static_cast<std::size_t>((id.value - 1) % nodes_.size());
}

std::vector<ContainerId> ChunkRepository::container_ids() const {
  std::lock_guard lock(mutex_);
  std::vector<ContainerId> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(ContainerId{id});
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status ChunkRepository::remove(ContainerId id) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(id.value);
  if (it == entries_.end()) {
    return {Errc::kNotFound,
            debar::format("container {} not in repository", id.value)};
  }
  stored_payload_bytes_ -= it->second.data_bytes;
  if (it->second.held == nullptr) {
    // Tombstone the persistent frame in place; open() will skip it.
    std::array<Byte, 4> magic{};
    put_u32(magic.data(), kFrameTombstone);
    (void)write_through_locked(node_of_locked(id), it->second.offset, magic,
                               "tombstone");
  }
  entries_.erase(it);
  pinned_nodes_.erase(id.value);
  return Status::Ok();
}

bool ChunkRepository::contains(ContainerId id) const {
  std::lock_guard lock(mutex_);
  return entries_.contains(id.value);
}

std::uint64_t ChunkRepository::container_count() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::uint64_t ChunkRepository::stored_bytes() const {
  std::lock_guard lock(mutex_);
  return stored_payload_bytes_;
}

double ChunkRepository::max_node_seconds() const {
  std::lock_guard lock(mutex_);
  double m = 0;
  for (const auto& n : nodes_) m = std::max(m, n->clock.seconds());
  return m;
}

double ChunkRepository::total_node_seconds() const {
  std::lock_guard lock(mutex_);
  double s = 0;
  for (const auto& n : nodes_) s += n->clock.seconds();
  return s;
}

Status ChunkRepository::take_backing_error() {
  std::lock_guard lock(mutex_);
  Status out = backing_error_;
  backing_error_ = Status::Ok();
  return out;
}

void ChunkRepository::reset_clocks() {
  std::lock_guard lock(mutex_);
  for (auto& n : nodes_) n->clock.reset();
}

}  // namespace debar::storage
