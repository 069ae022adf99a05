#include "storage/chunk_repository.hpp"

#include <algorithm>
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

/// The container image inside a held frame.
ByteSpan image_of(const std::vector<Byte>& frame) {
  return ByteSpan(frame.data(), frame.size()).subspan(kFrameHeader);
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
    std::vector<Byte> header(kFrameHeader);
    while (pos + kFrameHeader <= device.size()) {
      if (Status s = device.read(pos, std::span<Byte>(header)); !s.ok()) {
        return Error{s.code(), s.message()};
      }
      ByteReader r(ByteSpan(header.data(), header.size()));
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
        // Keep the whole frame, header included, as the in-memory copy.
        std::vector<Byte> frame(kFrameHeader + length);
        std::copy(header.begin(), header.end(), frame.begin());
        if (Status s = device.read(
                pos + kFrameHeader,
                std::span<Byte>(frame.data() + kFrameHeader, length));
            !s.ok()) {
          return Error{s.code(), s.message()};
        }
        Result<Container> parsed = Container::deserialize(image_of(frame));
        if (!parsed.ok()) return parsed.error();
        const std::uint64_t id = parsed.value().id().value;
        repo->next_id_ = std::max(repo->next_id_, id + 1);
        repo->stored_payload_bytes_ += parsed.value().data_bytes();
        repo->frames_[id] = {node, pos};
        // Record off-pattern placement so node_of stays correct.
        if ((id - 1) % repo->nodes_.size() != node) {
          repo->pinned_nodes_[id] = node;
        }
        repo->containers_.emplace(id, std::move(frame));
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
  assert(!containers_.contains(id.value) && "reserved ID already stored");
  store_locked(id, std::move(container), pin);
}

void ChunkRepository::store_locked(ContainerId id, Container container,
                                   std::optional<std::size_t> pin) {
  container.set_id(id);
  // Serialize once, straight after the frame header: the one buffer is
  // both the write-through frame and the in-memory copy.
  const std::uint64_t image_bytes = container.capacity();
  std::vector<Byte> frame;
  frame.reserve(kFrameHeader + image_bytes);
  ByteWriter w(frame);
  w.u32(kFrameMagic);
  w.u32(static_cast<std::uint32_t>(image_bytes));
  container.serialize_into(frame);
  assert(frame.size() == kFrameHeader + image_bytes);

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

  if (!backing_.empty()) {
    // Write-through to the node's persistent container log.
    const std::uint64_t offset = tails_[node_idx];
    if (Status s = write_with_retry(*backing_[node_idx], offset,
                                    ByteSpan(frame.data(), frame.size()));
        !s.ok()) {
      // Surfacing write failures through append's signature would change
      // every store path for a condition only the persistent mode can
      // hit; log loudly and park the failure in backing_error_ so the
      // chunk-storing step can fail its round (take_backing_error()).
      DEBAR_LOG_ERROR("persistent container write failed: {}", s.to_string());
      if (backing_error_.ok()) backing_error_ = s;
    } else {
      frames_[id.value] = {node_idx, offset};
      tails_[node_idx] = offset + frame.size();
    }
  }
  containers_.emplace(id.value, std::move(frame));
}

Result<Container> ChunkRepository::read(ContainerId id) const {
  std::lock_guard lock(mutex_);
  const auto it = containers_.find(id.value);
  if (it == containers_.end()) {
    return Error{Errc::kNotFound,
                 debar::format("container {} not in repository", id.value)};
  }
  Node& node = *nodes_[node_of_locked(id)];
  const ByteSpan image = image_of(it->second);
  // Container reads land at arbitrary log positions: one seek + transfer.
  node.model.seek();
  node.model.stream(image.size());
  return Container::deserialize(image);
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
  ids.reserve(containers_.size());
  for (const auto& [id, image] : containers_) ids.push_back(ContainerId{id});
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status ChunkRepository::remove(ContainerId id) {
  std::lock_guard lock(mutex_);
  const auto it = containers_.find(id.value);
  if (it == containers_.end()) {
    return {Errc::kNotFound,
            debar::format("container {} not in repository", id.value)};
  }
  // Account the payload bytes leaving the pool. Parsing just for the
  // data-bytes field is cheap (header only).
  Result<Container> parsed = Container::deserialize(image_of(it->second));
  if (parsed.ok()) {
    stored_payload_bytes_ -= parsed.value().data_bytes();
  }
  containers_.erase(it);
  pinned_nodes_.erase(id.value);

  if (const auto frame = frames_.find(id.value); frame != frames_.end()) {
    // Tombstone the persistent frame in place; open() will skip it.
    std::vector<Byte> magic;
    ByteWriter w(magic);
    w.u32(kFrameTombstone);
    if (Status s = write_with_retry(*backing_[frame->second.node],
                                    frame->second.offset,
                                    ByteSpan(magic.data(), magic.size()));
        !s.ok()) {
      DEBAR_LOG_ERROR("persistent tombstone write failed: {}", s.to_string());
      if (backing_error_.ok()) backing_error_ = s;
    }
    frames_.erase(frame);
  }
  return Status::Ok();
}

bool ChunkRepository::contains(ContainerId id) const {
  std::lock_guard lock(mutex_);
  return containers_.contains(id.value);
}

std::uint64_t ChunkRepository::container_count() const {
  std::lock_guard lock(mutex_);
  return containers_.size();
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
