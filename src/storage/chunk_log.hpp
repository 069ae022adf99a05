// Dedup-1 chunk log (Section 5.1).
//
// Chunks that survive the preliminary filter are appended to this local
// on-disk log as <F, D(F)> groups; dedup-2's chunk-storing step later
// replays the log sequentially, consulting the SIL results to decide which
// chunks are genuinely new. Both the append and the replay are strictly
// sequential — that is the point of the design.
//
// Record layout: fingerprint[20] | size u32 | payload[size]
#pragma once

#include <functional>
#include <memory>

#include "common/result.hpp"
#include "common/types.hpp"
#include "storage/block_device.hpp"

namespace debar::storage {

class ChunkLog {
 public:
  explicit ChunkLog(std::unique_ptr<BlockDevice> device);

  /// Append one <F, D(F)> group at the tail.
  [[nodiscard]] Status append(const Fingerprint& fp, ByteSpan chunk);

  /// Sequentially replay every record in append order. The log is read
  /// in aligned 1 MiB windows, each continuing where the last ended, so
  /// the device sees one stream of `bytes()` bytes. The span passed to
  /// the callback is valid only until it returns. A read failure is
  /// returned and no later record reaches the callback.
  using ScanCallback = std::function<void(const Fingerprint&, ByteSpan)>;
  [[nodiscard]] Status scan(const ScanCallback& cb) const;

  /// Discard all records (dedup-2 finished consuming them).
  void clear();

  [[nodiscard]] std::uint64_t record_count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t bytes() const noexcept { return tail_; }
  [[nodiscard]] BlockDevice& device() noexcept { return *device_; }

 private:
  std::unique_ptr<BlockDevice> device_;
  std::uint64_t tail_ = 0;
  std::uint64_t count_ = 0;
};

}  // namespace debar::storage
