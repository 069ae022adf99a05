#include "storage/frame_pool.hpp"

#include <utility>

namespace debar::storage {

FrameBuffer::FrameBuffer(std::size_t size)
    : bytes_(new Byte[size]), size_(size) {}

FrameBuffer::~FrameBuffer() { release(); }

FrameBuffer::FrameBuffer(FrameBuffer&& other) noexcept
    : bytes_(std::move(other.bytes_)),
      size_(std::exchange(other.size_, 0)),
      pool_(std::move(other.pool_)) {}

FrameBuffer& FrameBuffer::operator=(FrameBuffer&& other) noexcept {
  if (this != &other) {
    release();
    bytes_ = std::move(other.bytes_);
    size_ = std::exchange(other.size_, 0);
    pool_ = std::move(other.pool_);
  }
  return *this;
}

void FrameBuffer::release() noexcept {
  if (bytes_ == nullptr) return;
  if (const std::shared_ptr<FramePool> pool = pool_.lock()) {
    pool->give_back(std::move(bytes_), size_);
  }
  bytes_.reset();
  size_ = 0;
}

FrameBuffer FramePool::acquire(std::size_t size) {
  FrameBuffer out;
  {
    std::lock_guard lock(mutex_);
    for (auto it = idle_.rbegin(); it != idle_.rend(); ++it) {
      if (it->size == size) {
        out.bytes_ = std::move(it->bytes);
        idle_.erase(std::next(it).base());
        break;
      }
    }
  }
  if (out.bytes_ == nullptr) out.bytes_.reset(new Byte[size]);
  out.size_ = size;
  out.pool_ = weak_from_this();
  return out;
}

void FramePool::give_back(std::unique_ptr<Byte[]> bytes, std::size_t size) {
  std::lock_guard lock(mutex_);
  if (idle_.size() < max_idle_) idle_.push_back({std::move(bytes), size});
  // Over the bound, `bytes` is freed on return.
}

std::size_t FramePool::idle() const {
  std::lock_guard lock(mutex_);
  return idle_.size();
}

}  // namespace debar::storage
