// Content-defined chunking (CDC) with Rabin anchors [LBFS, Section 3.2].
//
// A 48-byte window slides over the input; wherever the low-order k bits of
// the window's Rabin fingerprint equal a fixed constant, the position is an
// anchor and ends the current chunk. Expected chunk size is 2^k bytes
// (paper: k=13 → 8 KB) with hard bounds of 2 KB and 64 KB to suppress the
// pathological cases LBFS describes.
#pragma once

#include <cstdint>

#include "chunking/chunker.hpp"
#include "common/rabin.hpp"

namespace debar::chunking {

struct CdcParams {
  std::uint64_t min_size = kMinChunkSize;
  std::uint64_t expected_size = kExpectedChunkSize;  // must be a power of two
  std::uint64_t max_size = kMaxChunkSize;
  std::size_t window_size = RabinWindow::kDefaultWindowSize;
  std::uint64_t poly = kDefaultRabinPoly;
  /// The "predetermined constant" the low-order k bits must equal.
  std::uint64_t anchor_value = 0x78;

  [[nodiscard]] bool valid() const noexcept;
};

class RabinChunker final : public Chunker {
 public:
  explicit RabinChunker(CdcParams params = {});

  /// Re-entrant: reads only the window's const tables, never its ring
  /// buffer, so concurrent calls on one instance are safe.
  [[nodiscard]] std::vector<ChunkBounds> chunk(ByteSpan data) override;

  [[nodiscard]] std::uint64_t expected_chunk_size() const override {
    return params_.expected_size;
  }

  [[nodiscard]] std::unique_ptr<Chunker> clone() const override {
    return std::make_unique<RabinChunker>(*this);
  }

  [[nodiscard]] const CdcParams& params() const noexcept { return params_; }

 private:
  CdcParams params_;
  RabinWindow window_;  // tables only (RabinWindow::roll)
  std::uint64_t anchor_mask_;  // 2^k - 1
};

}  // namespace debar::chunking
