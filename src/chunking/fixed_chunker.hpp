// Fixed-size blocking baseline (Venti-style). Exists so tests and benches
// can demonstrate the boundary-shift problem CDC solves (Section 3.2).
#pragma once

#include "chunking/chunker.hpp"

namespace debar::chunking {

class FixedChunker final : public Chunker {
 public:
  explicit FixedChunker(std::uint64_t block_size = kExpectedChunkSize);

  [[nodiscard]] std::vector<ChunkBounds> chunk(ByteSpan data) override;

  [[nodiscard]] std::uint64_t expected_chunk_size() const override {
    return block_size_;
  }

  [[nodiscard]] std::unique_ptr<Chunker> clone() const override {
    return std::make_unique<FixedChunker>(*this);
  }

 private:
  std::uint64_t block_size_;
};

}  // namespace debar::chunking
