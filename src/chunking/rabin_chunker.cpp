#include "chunking/rabin_chunker.hpp"

#include <bit>
#include <cassert>

namespace debar::chunking {

bool CdcParams::valid() const noexcept {
  return expected_size >= 2 && std::has_single_bit(expected_size) &&
         min_size >= window_size && min_size <= expected_size &&
         expected_size <= max_size && window_size > 0;
}

RabinChunker::RabinChunker(CdcParams params)
    : params_(params),
      window_(params.window_size, params.poly),
      anchor_mask_(params.expected_size - 1) {
  assert(params_.valid());
}

std::vector<ChunkBounds> RabinChunker::chunk(ByteSpan data) {
  std::vector<ChunkBounds> out;
  if (data.empty()) return out;
  out.reserve(data.size() / params_.expected_size + 1);

  // The window restarts from all zeros at every boundary so each chunk's
  // boundaries depend only on its own content (required for dedup of
  // shifted content). Once a chunk holds `window` bytes, the fingerprint
  // is therefore a pure function of its last `window` bytes, and no cut
  // is eligible before `min_size >= window` bytes. So each chunk skips
  // straight to min_size - window, warms the hash on one window, and
  // slides from there: the same fingerprints at every eligible position
  // as sliding byte by byte from the chunk start, at a fraction of the
  // bytes for small chunks.
  const std::uint64_t n = data.size();
  const std::uint64_t w = params_.window_size;
  const std::uint64_t min = params_.min_size;
  const std::uint64_t mask = anchor_mask_;
  const std::uint64_t anchor = params_.anchor_value & mask;
  const RabinHash& hash = window_.hash();

  std::uint64_t start = 0;
  while (n - start >= min) {
    // Cuts are forced at max_size; the data may end first.
    const std::uint64_t limit = std::min(n, start + params_.max_size);
    std::uint64_t p = start + min;
    std::uint64_t fp = 0;
    for (std::uint64_t i = p - w; i < p; ++i) fp = hash.append(fp, data[i]);
    while ((fp & mask) != anchor && p < limit) {
      fp = window_.roll(fp, data[p - w], data[p]);
      ++p;
    }
    out.push_back({start, p - start});
    start = p;
  }
  if (start < n) out.push_back({start, n - start});
  return out;
}

}  // namespace debar::chunking
