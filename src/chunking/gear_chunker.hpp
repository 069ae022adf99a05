// Gear-hash content-defined chunking with normalized cut discipline
// [FastCDC, Xia et al.; "A Thorough Investigation of CDC Algorithms"]
// and a runtime-dispatched SIMD anchor scan (DESIGN.md §5i).
//
// The gear rolling hash replaces Rabin's two table lookups + xor chain
// with one lookup + shift + add per byte, and — because the hash at a
// position depends on exactly the last 32 bytes of content, never on
// where previous chunks ended — the anchor scan parallelizes across
// SIMD lanes with bit-identical results (see gear_simd.hpp).
//
// Cut discipline (same min/expected/max parameters as RabinChunker):
// anchors are positions where the top bits of the hash are zero. Up to
// the normalization point — min + expected, the Rabin discipline's
// realized mean — a *hard* mask (k + norm_level bits) must match; past
// it an *easy* mask (k - norm_level bits) suffices; at max_size a cut
// is forced. This is FastCDC's normalized chunking: it pulls the size
// distribution toward the normalization point from both sides, so
// fewer chunks hit the dedup-hostile forced cut than with a single
// k-bit mask, while the realized average matches Rabin's at identical
// parameters (the dedup-ratio ablation pins this to ±2%).
#pragma once

#include <cstdint>
#include <vector>

#include "chunking/chunker.hpp"
#include "chunking/gear_simd.hpp"
#include "common/simd.hpp"

namespace debar::chunking {

struct GearParams {
  std::uint64_t min_size = kMinChunkSize;
  std::uint64_t expected_size = kExpectedChunkSize;  // must be a power of two
  std::uint64_t max_size = kMaxChunkSize;
  /// Normalization level: the small side of the expected size demands
  /// k + norm_level zero bits, the large side k - norm_level. 0 turns
  /// normalization off (plain gear CDC with a k-bit mask).
  unsigned norm_level = 2;
  /// Which anchor-scan lane to run. The choice NEVER moves a boundary
  /// — all lanes are bit-identical — it only changes throughput.
  SimdPolicy simd = SimdPolicy::kAuto;

  [[nodiscard]] bool valid() const noexcept;
};

class GearChunker final : public Chunker {
 public:
  explicit GearChunker(GearParams params = {});

  [[nodiscard]] std::vector<ChunkBounds> chunk(ByteSpan data) override;

  [[nodiscard]] std::uint64_t expected_chunk_size() const override {
    return params_.expected_size;
  }

  [[nodiscard]] std::unique_ptr<Chunker> clone() const override {
    return std::make_unique<GearChunker>(*this);
  }

  [[nodiscard]] const GearParams& params() const noexcept { return params_; }

  /// Masks actually applied (top bits of the 32-bit gear hash).
  [[nodiscard]] std::uint32_t easy_mask() const noexcept { return easy_mask_; }
  [[nodiscard]] std::uint32_t hard_mask() const noexcept { return hard_mask_; }

 private:
  GearParams params_;
  std::uint32_t easy_mask_;
  std::uint32_t hard_mask_;
  std::vector<detail::GearCandidate> candidates_;  // scratch, reused per call
};

}  // namespace debar::chunking
