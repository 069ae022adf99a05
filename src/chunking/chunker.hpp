// Chunker interface: split a byte stream into chunks for de-duplication.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace debar::chunking {

/// A chunk boundary decision: [offset, offset + size) within the input.
struct ChunkBounds {
  std::uint64_t offset = 0;
  std::uint64_t size = 0;

  friend bool operator==(const ChunkBounds&, const ChunkBounds&) = default;
};

/// Splits byte buffers into chunks. Implementations must be pure functions
/// of content: the same bytes always produce the same boundaries, and for
/// content-defined chunkers a boundary decision must not depend on where
/// previous chunk boundaries fell more than one window back.
class Chunker {
 public:
  virtual ~Chunker() = default;

  /// Chunk an entire in-memory buffer. The returned bounds tile `data`
  /// exactly: contiguous, non-overlapping, covering every byte.
  [[nodiscard]] virtual std::vector<ChunkBounds> chunk(ByteSpan data) = 0;

  /// Expected (average) chunk size this chunker targets, in bytes.
  [[nodiscard]] virtual std::uint64_t expected_chunk_size() const = 0;

  /// A fresh chunker with the same parameters, for another thread:
  /// chunkers may keep scratch state, so concurrent chunk() calls need
  /// one instance each.
  [[nodiscard]] virtual std::unique_ptr<Chunker> clone() const = 0;
};

}  // namespace debar::chunking
