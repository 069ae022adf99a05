// Two-Threshold Two-Divisor (TTTD) chunking [Eshghi & Tang, HP Labs 2005]
// — the CDC refinement the paper's related-work section points to.
//
// Plain CDC cuts wherever the window fingerprint matches the main divisor
// D, forcing a cut at the max threshold when no anchor appears — and a
// forced cut has no content alignment, so it cascades re-chunking after
// edits in anchor-sparse regions. TTTD additionally tracks the last
// position matching a smaller *backup divisor* D' (more frequent
// matches); when the max threshold is hit, it cuts at that remembered
// backup anchor instead of the arbitrary max position. The result is the
// same expected chunk size with much lower variance and better edit
// resilience near forced cuts.
#pragma once

#include <cstdint>

#include "chunking/chunker.hpp"
#include "common/rabin.hpp"

namespace debar::chunking {

struct TttdParams {
  std::uint64_t min_size = kMinChunkSize;
  /// Main divisor: expected spacing of primary anchors (power of two).
  std::uint64_t main_divisor = kExpectedChunkSize;
  /// Backup divisor: more frequent anchors used only at the max
  /// threshold. The TTTD paper recommends D' = D / 2.
  std::uint64_t backup_divisor = kExpectedChunkSize / 2;
  std::uint64_t max_size = kMaxChunkSize;
  std::size_t window_size = RabinWindow::kDefaultWindowSize;
  std::uint64_t poly = kDefaultRabinPoly;
  std::uint64_t anchor_value = 0x78;

  [[nodiscard]] bool valid() const noexcept;
};

class TttdChunker final : public Chunker {
 public:
  explicit TttdChunker(TttdParams params = {});

  [[nodiscard]] std::vector<ChunkBounds> chunk(ByteSpan data) override;

  [[nodiscard]] std::uint64_t expected_chunk_size() const override {
    return params_.main_divisor;
  }

  [[nodiscard]] std::unique_ptr<Chunker> clone() const override {
    return std::make_unique<TttdChunker>(*this);
  }

  [[nodiscard]] const TttdParams& params() const noexcept { return params_; }

  /// How often the last chunk() call fell back to a backup anchor or a
  /// hard max-size cut (diagnostics for the ablation bench).
  struct CutStats {
    std::uint64_t primary = 0;
    std::uint64_t backup = 0;
    std::uint64_t forced = 0;
    std::uint64_t tail = 0;
  };
  [[nodiscard]] const CutStats& last_stats() const noexcept { return stats_; }

 private:
  TttdParams params_;
  RabinWindow window_;
  std::uint64_t main_mask_;
  std::uint64_t backup_mask_;
  CutStats stats_;
};

}  // namespace debar::chunking
