// Rabin fingerprinting over GF(2) [Rabin81, Broder93].
//
// This is the primitive under content-defined chunking (Section 3.2 of the
// paper): the chunker computes the Rabin fingerprint of every overlapping
// 48-byte substring of a file and declares an anchor wherever the low-order
// k bits equal a chosen constant. Polynomial arithmetic follows the classic
// LBFS construction: strings are polynomials over GF(2), reduced modulo an
// irreducible polynomial P, with 256-entry tables making both append and
// sliding-window removal O(1) per byte.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace debar {

/// Degree-63 irreducible polynomial used by LBFS; the default modulus.
inline constexpr std::uint64_t kDefaultRabinPoly = 0xbfe6b8a5bf378d83ULL;

namespace poly_gf2 {

/// Degree of polynomial `p` (index of the most significant set bit), or -1
/// for the zero polynomial.
int degree(std::uint64_t p) noexcept;

/// (nh * 2^64 + nl) mod d over GF(2).
std::uint64_t mod(std::uint64_t nh, std::uint64_t nl, std::uint64_t d) noexcept;

/// (x * y) mod d over GF(2).
std::uint64_t mulmod(std::uint64_t x, std::uint64_t y,
                     std::uint64_t d) noexcept;

/// True iff p is irreducible over GF(2) (Ben-Or style check via repeated
/// squaring: x^(2^i) mod p). Used by tests to validate the default modulus.
bool irreducible(std::uint64_t p) noexcept;

}  // namespace poly_gf2

/// Incremental Rabin hash: fingerprint of a growing byte string.
class RabinHash {
 public:
  explicit RabinHash(std::uint64_t poly = kDefaultRabinPoly);

  /// Append one byte to the hashed string; returns the new fingerprint.
  std::uint64_t append(std::uint64_t fp, Byte b) const noexcept {
    return ((fp << 8) | b) ^ append_table_[fp >> shift_];
  }

  [[nodiscard]] std::uint64_t hash(ByteSpan data) const noexcept;

  [[nodiscard]] std::uint64_t poly() const noexcept { return poly_; }
  [[nodiscard]] int shift() const noexcept { return shift_; }

 private:
  std::uint64_t poly_;
  int shift_;  // degree(poly) - 8
  std::array<std::uint64_t, 256> append_table_;
};

/// Sliding-window Rabin fingerprint over the last `window_size` bytes.
/// This is the object the CDC chunker drives byte-by-byte.
class RabinWindow {
 public:
  static constexpr std::size_t kDefaultWindowSize = 48;

  explicit RabinWindow(std::size_t window_size = kDefaultWindowSize,
                       std::uint64_t poly = kDefaultRabinPoly);

  /// Push one byte; the oldest byte falls out of the window. Returns the
  /// fingerprint of the current window contents.
  std::uint64_t slide(Byte b) noexcept {
    const Byte out = window_[pos_];
    window_[pos_] = b;
    pos_ = (pos_ + 1 == window_.size()) ? 0 : pos_ + 1;
    fp_ = hash_.append(fp_ ^ remove_table_[out], b);
    return fp_;
  }

  /// The stateless form of slide(): `fp` is the fingerprint of a full
  /// window whose oldest byte is `out`; returns it with `out` dropped and
  /// `in` appended. Reads only the tables, so it is safe to share.
  [[nodiscard]] std::uint64_t roll(std::uint64_t fp, Byte out,
                                   Byte in) const noexcept {
    return hash_.append(fp ^ remove_table_[out], in);
  }

  [[nodiscard]] const RabinHash& hash() const noexcept { return hash_; }

  /// Reset to the all-zero window state (used at each chunk boundary so
  /// chunking is a pure function of content, independent of prior chunks).
  void reset() noexcept;

  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fp_; }
  [[nodiscard]] std::size_t window_size() const noexcept {
    return window_.size();
  }

 private:
  RabinHash hash_;
  std::vector<Byte> window_;
  std::size_t pos_ = 0;
  std::uint64_t fp_ = 0;
  std::array<std::uint64_t, 256> remove_table_;
};

}  // namespace debar
