// Counting BlockDevice decorator for the end-to-end bench's traced runs.
//
// Wraps the device a factory (or a repository node) would have used and
// counts ops, bytes and wall time per call into a shared DeviceCounters
// (one per device role: chunk log, index, repository). The wrapped device
// never carries a sim::DiskModel: the server attaches its model to the
// decorator, which charges it exactly as the inner device would have —
// account(offset, size) after a successful read or write, nothing for a
// failed op, a resize, or a zero-filled gap — so modeled seconds are the
// same with and without the decorator.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "storage/block_device.hpp"

namespace debar::bench {

/// Cumulative counters of one device role. Atomic: the parallel SIL/SIU
/// scans issue index I/O from several pool threads at once.
struct DeviceCounters {
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> read_bytes{0};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> write_bytes{0};
  /// Summed wall time inside the wrapped device's read/write calls.
  /// Concurrent calls each count, so this can exceed elapsed wall time.
  std::atomic<std::uint64_t> busy_ns{0};
};

/// Plain-value snapshot of DeviceCounters, for per-iteration deltas.
struct DeviceTotals {
  std::uint64_t reads = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t writes = 0;
  std::uint64_t write_bytes = 0;
  std::uint64_t busy_ns = 0;

  [[nodiscard]] static DeviceTotals of(const DeviceCounters& c) noexcept;
  [[nodiscard]] DeviceTotals operator-(const DeviceTotals& o) const noexcept;
};

class CountingDevice final : public storage::BlockDevice {
 public:
  /// `counters` is not owned and must outlive the device.
  CountingDevice(std::unique_ptr<storage::BlockDevice> inner,
                 DeviceCounters* counters);

  [[nodiscard]] Status read(std::uint64_t offset,
                            std::span<Byte> out) override;
  [[nodiscard]] Status write(std::uint64_t offset, ByteSpan data) override;
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }
  [[nodiscard]] Status resize(std::uint64_t bytes) override {
    return inner_->resize(bytes);
  }

 private:
  std::unique_ptr<storage::BlockDevice> inner_;
  DeviceCounters* counters_;
};

}  // namespace debar::bench
