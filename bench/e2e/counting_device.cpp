#include "counting_device.hpp"

#include <cassert>

#include "trace.hpp"

namespace debar::bench {

DeviceTotals DeviceTotals::of(const DeviceCounters& c) noexcept {
  return {c.reads.load(), c.read_bytes.load(), c.writes.load(),
          c.write_bytes.load(), c.busy_ns.load()};
}

DeviceTotals DeviceTotals::operator-(const DeviceTotals& o) const noexcept {
  return {reads - o.reads, read_bytes - o.read_bytes, writes - o.writes,
          write_bytes - o.write_bytes, busy_ns - o.busy_ns};
}

CountingDevice::CountingDevice(std::unique_ptr<storage::BlockDevice> inner,
                               DeviceCounters* counters)
    : inner_(std::move(inner)), counters_(counters) {
  assert(inner_ != nullptr && inner_->model() == nullptr);
  assert(counters_ != nullptr);
}

Status CountingDevice::read(std::uint64_t offset, std::span<Byte> out) {
  const std::int64_t t0 = now_ns();
  Status s = inner_->read(offset, out);
  counters_->busy_ns += static_cast<std::uint64_t>(now_ns() - t0);
  if (s.ok()) {
    counters_->reads += 1;
    counters_->read_bytes += out.size();
    account(offset, out.size());
  }
  return s;
}

Status CountingDevice::write(std::uint64_t offset, ByteSpan data) {
  const std::int64_t t0 = now_ns();
  Status s = inner_->write(offset, data);
  counters_->busy_ns += static_cast<std::uint64_t>(now_ns() - t0);
  if (s.ok()) {
    counters_->writes += 1;
    counters_->write_bytes += data.size();
    account(offset, data.size());
  }
  return s;
}

}  // namespace debar::bench
