// Recycled container-frame buffers.
//
// A persistent chunk repository reads each container it serves from its
// node device into a buffer of about 8 MB, and the open container of a
// ContainerManager packs chunks straight into one. Allocating those per
// container would page-fault a fresh 8 MB every time; a FramePool keeps a
// few released buffers for the next request instead. Each repository
// owns its pool: the idle buffers are freed with the repository, and a
// buffer released after that is simply freed.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/types.hpp"

namespace debar::storage {

class FramePool;

/// A heap byte buffer that returns to the pool that lent it when
/// destroyed. Its contents are uninitialised when handed out.
class FrameBuffer {
 public:
  FrameBuffer() = default;
  /// A buffer owned by no pool.
  explicit FrameBuffer(std::size_t size);
  ~FrameBuffer();

  FrameBuffer(FrameBuffer&& other) noexcept;
  FrameBuffer& operator=(FrameBuffer&& other) noexcept;
  FrameBuffer(const FrameBuffer&) = delete;
  FrameBuffer& operator=(const FrameBuffer&) = delete;

  [[nodiscard]] Byte* data() noexcept { return bytes_.get(); }
  [[nodiscard]] const Byte* data() const noexcept { return bytes_.get(); }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return bytes_ != nullptr;
  }

 private:
  friend class FramePool;
  void release() noexcept;

  std::unique_ptr<Byte[]> bytes_;
  std::size_t size_ = 0;
  std::weak_ptr<FramePool> pool_;
};

class FramePool : public std::enable_shared_from_this<FramePool> {
 public:
  /// Keeps at most `max_idle` released buffers; buffers handed out are
  /// not limited.
  explicit FramePool(std::size_t max_idle) : max_idle_(max_idle) {}

  /// A buffer of exactly `size` bytes: a released one of that size if the
  /// pool holds one, else a fresh allocation. Thread-safe.
  [[nodiscard]] FrameBuffer acquire(std::size_t size);

  [[nodiscard]] std::size_t idle() const;
  [[nodiscard]] std::size_t max_idle() const noexcept { return max_idle_; }

 private:
  friend class FrameBuffer;
  void give_back(std::unique_ptr<Byte[]> bytes, std::size_t size);

  struct Idle {
    std::unique_ptr<Byte[]> bytes;
    std::size_t size;
  };

  const std::size_t max_idle_;
  mutable std::mutex mutex_;
  std::vector<Idle> idle_;  // back = most recently released
};

}  // namespace debar::storage
