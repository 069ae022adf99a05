#include "storage/block_device.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <system_error>

#include "common/fmt.hpp"

namespace debar::storage {

namespace {

std::string errno_text() {
  return std::error_code(errno, std::generic_category()).message();
}

}  // namespace

Status MemBlockDevice::read(std::uint64_t offset, std::span<Byte> out) {
  if (offset + out.size() > data_.size()) {
    return {Errc::kIoError,
            debar::format("read [{}, {}) past device size {}", offset,
                        offset + out.size(), data_.size())};
  }
  // An empty span or device may hand memcpy a null pointer.
  if (!out.empty()) {
    std::memcpy(out.data(), data_.data() + offset, out.size());
  }
  account(offset, out.size());
  return Status::Ok();
}

Status MemBlockDevice::write(std::uint64_t offset, ByteSpan data) {
  const std::uint64_t end = offset + data.size();
  if (end > data_.size()) data_.resize(end, 0);
  if (!data.empty()) {
    std::memcpy(data_.data() + offset, data.data(), data.size());
  }
  account(offset, data.size());
  return Status::Ok();
}

Status MemBlockDevice::resize(std::uint64_t bytes) {
  data_.resize(bytes, 0);
  return Status::Ok();
}

Result<std::unique_ptr<FileBlockDevice>> FileBlockDevice::open(
    const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0666);
  if (fd < 0) {
    return Error{Errc::kIoError, debar::format("cannot open {}: {}",
                                               path.string(), errno_text())};
  }
  // Pipes and char devices have no size and are not valid backing stores.
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return Error{Errc::kIoError,
                 debar::format("cannot size {}: not a regular file",
                               path.string())};
  }
  return std::unique_ptr<FileBlockDevice>(new FileBlockDevice(
      path, fd, static_cast<std::uint64_t>(st.st_size)));
}

FileBlockDevice::~FileBlockDevice() { ::close(fd_); }

Status FileBlockDevice::read(std::uint64_t offset, std::span<Byte> out) {
  const std::uint64_t size = this->size();
  if (offset + out.size() > size) {
    return {Errc::kIoError,
            debar::format("read [{}, {}) past device size {}", offset,
                        offset + out.size(), size)};
  }
  for (std::size_t done = 0; done < out.size();) {
    const ssize_t n = ::pread(fd_, out.data() + done, out.size() - done,
                              static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return {Errc::kIoError,
              debar::format("read at {}: {}", offset + done, errno_text())};
    }
    // EOF inside the range: the file shrank behind the device's back.
    if (n == 0) {
      return {Errc::kIoError, debar::format("short read at {}", offset)};
    }
    done += static_cast<std::size_t>(n);
  }
  account(offset, out.size());
  return Status::Ok();
}

Status FileBlockDevice::write(std::uint64_t offset, ByteSpan data) {
  for (std::size_t done = 0; done < data.size();) {
    const ssize_t n = ::pwrite(fd_, data.data() + done, data.size() - done,
                               static_cast<off_t>(offset + done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return {Errc::kIoError,
              debar::format("short write at {}: {}", offset + done,
                            n < 0 ? errno_text() : "no progress")};
    }
    done += static_cast<std::size_t>(n);
  }
  // Raise the high-water mark; a zero-length write transfers nothing and
  // leaves it alone.
  if (!data.empty()) {
    const std::uint64_t end = offset + data.size();
    std::uint64_t seen = size_.load();
    while (end > seen && !size_.compare_exchange_weak(seen, end)) {
    }
  }
  account(offset, data.size());
  return Status::Ok();
}

Status FileBlockDevice::resize(std::uint64_t bytes) {
  // By path, not ftruncate(fd_): a backing file removed behind the
  // device's back must fail the resize rather than grow an orphan inode.
  std::error_code ec;
  std::filesystem::resize_file(path_, bytes, ec);
  if (ec) {
    return {Errc::kIoError,
            debar::format("resize {} to {}: {}", path_.string(), bytes,
                        ec.message())};
  }
  size_.store(bytes);
  return Status::Ok();
}

}  // namespace debar::storage
