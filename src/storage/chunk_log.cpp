#include "storage/chunk_log.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "common/fmt.hpp"
#include "common/serial.hpp"
#include "storage/io_retry.hpp"

namespace debar::storage {

namespace {
/// Replay read size: the log is read in aligned windows of this many bytes.
constexpr std::uint64_t kReplayWindow = 1 << 20;
}  // namespace

ChunkLog::ChunkLog(std::unique_ptr<BlockDevice> device)
    : device_(std::move(device)) {
  assert(device_ != nullptr);
}

Status ChunkLog::append(const Fingerprint& fp, ByteSpan chunk) {
  std::vector<Byte> record;
  record.reserve(Fingerprint::kSize + 4 + chunk.size());
  ByteWriter w(record);
  w.fingerprint(fp);
  w.u32(static_cast<std::uint32_t>(chunk.size()));
  w.bytes(chunk);

  // Retried: a torn or failed append leaves the tail unadvanced, so the
  // re-issued record overwrites its own debris.
  if (Status s = write_with_retry(*device_, tail_,
                                  ByteSpan(record.data(), record.size()));
      !s.ok()) {
    return s;
  }
  tail_ += record.size();
  ++count_;
  return Status::Ok();
}

Status ChunkLog::scan(const ScanCallback& cb) const {
  constexpr std::size_t kHeader = Fingerprint::kSize + 4;
  // buf[begin, end) holds log bytes not yet replayed; `next` is the log
  // offset of the first byte not yet read. Each read continues exactly
  // where the previous one ended, so the device sees every byte once, in
  // order: one positioning, then a stream.
  std::vector<Byte> buf;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t next = 0;
  // Make `need` unreplayed bytes available at buf[begin]. The partial
  // record at the window end moves to the front of the buffer; a record
  // larger than the window spans several window reads.
  const auto fill = [&](std::size_t need, std::uint64_t record) -> Status {
    if (end - begin >= need) return Status::Ok();
    if (begin > 0) {
      std::memmove(buf.data(), buf.data() + begin, end - begin);
      end -= begin;
      begin = 0;
    }
    while (end < need) {
      const std::uint64_t n = std::min<std::uint64_t>(
          kReplayWindow - next % kReplayWindow, tail_ - next);
      if (n == 0) {
        return {Errc::kCorrupt,
                debar::format("chunk-log record {} overruns tail", record)};
      }
      if (buf.size() < end + n) buf.resize(end + n);
      if (Status s = read_with_retry(*device_, next,
                                     std::span<Byte>(buf.data() + end, n));
          !s.ok()) {
        return s;
      }
      next += n;
      end += n;
    }
    return Status::Ok();
  };

  for (std::uint64_t i = 0; i < count_; ++i) {
    if (Status s = fill(kHeader, i); !s.ok()) return s;
    ByteReader r(ByteSpan(buf.data() + begin, kHeader));
    const Fingerprint fp = r.fingerprint();
    const std::uint32_t size = r.u32();
    const std::uint64_t record_pos = next - (end - begin);
    if (record_pos + kHeader + size > tail_) {
      return {Errc::kCorrupt,
              debar::format("chunk-log record {} overruns tail", i)};
    }
    if (Status s = fill(kHeader + size, i); !s.ok()) return s;
    cb(fp, ByteSpan(buf.data() + begin + kHeader, size));
    begin += kHeader + size;
  }
  return Status::Ok();
}

void ChunkLog::clear() {
  tail_ = 0;
  count_ = 0;
}

}  // namespace debar::storage
