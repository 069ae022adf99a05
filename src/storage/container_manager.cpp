#include "storage/container_manager.hpp"

#include <cassert>
#include <utility>

namespace debar::storage {

ContainerManager::ContainerManager(ChunkRepository* repository,
                                   std::uint64_t container_capacity)
    : repository_(repository),
      capacity_(container_capacity),
      open_(container_capacity, &repository->frame_pool()) {
  assert(repository_ != nullptr);
}

void ContainerManager::append(const Fingerprint& fp, ByteSpan chunk,
                              const SealCallback& on_seal) {
  if (open_.try_append(fp, chunk)) return;
  flush(on_seal);
  const bool ok = open_.try_append(fp, chunk);
  assert(ok && "chunk larger than an empty container");
  (void)ok;
}

void ContainerManager::flush(const SealCallback& on_seal) {
  if (open_.chunk_count() == 0) return;
  // Capture metadata before the move; the repository assigns the ID.
  std::vector<ChunkMeta> metadata = open_.metadata();
  const ContainerId id = repository_->append(std::move(open_));
  ++sealed_;
  open_ = Container(capacity_, &repository_->frame_pool());
  if (on_seal) on_seal(id, metadata);
}

Result<Container> ContainerManager::read(ContainerId id) const {
  return repository_->read(id);
}

}  // namespace debar::storage
