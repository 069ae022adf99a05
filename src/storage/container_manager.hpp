// Container Manager (Section 3.3/3.4).
//
// Owns the open container a backup server is currently filling in SISL
// (stream-informed segment layout) order, seals full containers into the
// chunk repository, and serves container reads for restore/LPC prefetch.
// The open container packs chunks straight into a frame buffer from the
// repository's pool, and sealing writes that buffer through as it is.
#pragma once

#include <functional>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "storage/chunk_repository.hpp"
#include "storage/container.hpp"

namespace debar::storage {

class ContainerManager {
 public:
  /// Invoked when a container is sealed: global ID plus the metadata of
  /// every chunk the container holds (the chunk-storing step uses this to
  /// back-fill container IDs into the index cache, Section 5.3).
  using SealCallback =
      std::function<void(ContainerId, const std::vector<ChunkMeta>&)>;

  ContainerManager(ChunkRepository* repository,
                   std::uint64_t container_capacity = kContainerSize);

  /// Append one chunk in stream order. If it doesn't fit in the open
  /// container, the open container is sealed (callback fires) and a fresh
  /// one started.
  void append(const Fingerprint& fp, ByteSpan chunk, const SealCallback& on_seal);

  /// Seal the open container if it holds any chunks.
  void flush(const SealCallback& on_seal);

  /// Read a sealed container from the repository.
  [[nodiscard]] Result<Container> read(ContainerId id) const;

  [[nodiscard]] std::size_t open_chunk_count() const noexcept {
    return open_.chunk_count();
  }
  [[nodiscard]] std::uint64_t containers_sealed() const noexcept {
    return sealed_;
  }

 private:
  ChunkRepository* repository_;
  std::uint64_t capacity_;
  Container open_;
  std::uint64_t sealed_ = 0;
};

}  // namespace debar::storage
