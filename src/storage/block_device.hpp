// Block device abstraction.
//
// The DEBAR disk index and the dedup-1 chunk log live on raw block devices
// in the paper. Here a device is a flat byte address space with explicit
// read/write-at-offset, optionally bound to a sim::DiskModel that accounts
// the time each access would take on the modeled hardware (sequential
// continuation vs seek). Two implementations: growable in-memory and
// file-backed.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "sim/disk_model.hpp"

namespace debar::storage {

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Read exactly out.size() bytes at `offset`. Fails with kIoError if the
  /// range extends past the device size.
  [[nodiscard]] virtual Status read(std::uint64_t offset,
                                    std::span<Byte> out) = 0;

  /// Write data at `offset`, growing the device if needed.
  [[nodiscard]] virtual Status write(std::uint64_t offset, ByteSpan data) = 0;

  /// Current device size in bytes.
  [[nodiscard]] virtual std::uint64_t size() const = 0;

  /// Truncate / resize to `bytes` (zero-fill on growth).
  [[nodiscard]] virtual Status resize(std::uint64_t bytes) = 0;

  /// Attach a timing model; nullptr detaches. Not owned.
  void attach_model(sim::DiskModel* model) noexcept { model_ = model; }
  [[nodiscard]] sim::DiskModel* model() const noexcept { return model_; }

 protected:
  void account(std::uint64_t offset, std::uint64_t bytes) noexcept {
    if (model_ != nullptr) model_->access(offset, bytes);
  }

 private:
  sim::DiskModel* model_ = nullptr;
};

/// Growable in-memory device.
class MemBlockDevice final : public BlockDevice {
 public:
  explicit MemBlockDevice(std::uint64_t initial_size = 0)
      : data_(initial_size, 0) {}

  [[nodiscard]] Status read(std::uint64_t offset,
                            std::span<Byte> out) override;
  [[nodiscard]] Status write(std::uint64_t offset, ByteSpan data) override;
  [[nodiscard]] std::uint64_t size() const override { return data_.size(); }
  [[nodiscard]] Status resize(std::uint64_t bytes) override;

  /// Direct view for zero-copy test assertions.
  [[nodiscard]] ByteSpan contents() const noexcept {
    return ByteSpan(data_.data(), data_.size());
  }

 private:
  std::vector<Byte> data_;
};

/// File-backed device: a raw file descriptor driven by pread/pwrite.
/// Positional I/O carries no shared seek cursor, so the parallel dedup-2
/// scans read and write disjoint ranges from several threads with no
/// device lock. The size is an atomic high-water mark; a write past the
/// end leaves a hole that reads back as zeros. resize() must not race
/// with I/O.
class FileBlockDevice final : public BlockDevice {
 public:
  /// Open (creating if absent) the backing file. Fails unless it is a
  /// regular file.
  [[nodiscard]] static Result<std::unique_ptr<FileBlockDevice>> open(
      const std::filesystem::path& path);

  ~FileBlockDevice() override;
  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;

  [[nodiscard]] Status read(std::uint64_t offset,
                            std::span<Byte> out) override;
  [[nodiscard]] Status write(std::uint64_t offset, ByteSpan data) override;
  [[nodiscard]] std::uint64_t size() const override { return size_.load(); }
  [[nodiscard]] Status resize(std::uint64_t bytes) override;

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

 private:
  FileBlockDevice(std::filesystem::path path, int fd, std::uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::filesystem::path path_;
  int fd_;
  std::atomic<std::uint64_t> size_;
};

}  // namespace debar::storage
