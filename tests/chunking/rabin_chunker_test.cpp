#include "chunking/rabin_chunker.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "workload/file_tree.hpp"

namespace debar::chunking {
namespace {

std::vector<Byte> random_data(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  std::vector<Byte> data(n);
  for (auto& b : data) b = static_cast<Byte>(rng());
  return data;
}

void expect_tiles(const std::vector<ChunkBounds>& bounds, std::size_t total) {
  ASSERT_FALSE(bounds.empty());
  EXPECT_EQ(bounds.front().offset, 0u);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i].offset,
              bounds[i - 1].offset + bounds[i - 1].size);
  }
  EXPECT_EQ(bounds.back().offset + bounds.back().size, total);
}

TEST(RabinChunkerTest, EmptyInputYieldsNoChunks) {
  RabinChunker chunker;
  EXPECT_TRUE(chunker.chunk(ByteSpan{}).empty());
}

TEST(RabinChunkerTest, ChunksTileTheInput) {
  RabinChunker chunker;
  const auto data = random_data(1, 1 << 20);
  const auto bounds = chunker.chunk(ByteSpan(data.data(), data.size()));
  expect_tiles(bounds, data.size());
}

TEST(RabinChunkerTest, RespectsSizeBounds) {
  RabinChunker chunker;
  const auto data = random_data(2, 4 << 20);
  const auto bounds = chunker.chunk(ByteSpan(data.data(), data.size()));
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {  // last may be short
    EXPECT_GE(bounds[i].size, kMinChunkSize);
    EXPECT_LE(bounds[i].size, kMaxChunkSize);
  }
  EXPECT_LE(bounds.back().size, kMaxChunkSize);
}

TEST(RabinChunkerTest, MeanChunkSizeNearExpected) {
  RabinChunker chunker;
  const auto data = random_data(3, 16 << 20);
  const auto bounds = chunker.chunk(ByteSpan(data.data(), data.size()));
  const double mean =
      static_cast<double>(data.size()) / static_cast<double>(bounds.size());
  // Expected size with min/max clamping lands near 2^k for random data;
  // accept a generous band (the clamps shift the mean upward).
  EXPECT_GT(mean, 4.0 * 1024);
  EXPECT_LT(mean, 16.0 * 1024);
}

TEST(RabinChunkerTest, DeterministicAcrossCalls) {
  RabinChunker chunker;
  const auto data = random_data(4, 1 << 20);
  const auto a = chunker.chunk(ByteSpan(data.data(), data.size()));
  const auto b = chunker.chunk(ByteSpan(data.data(), data.size()));
  EXPECT_EQ(a, b);

  RabinChunker other;  // fresh chunker: no hidden state
  EXPECT_EQ(other.chunk(ByteSpan(data.data(), data.size())), a);
}

TEST(RabinChunkerTest, InsertionOnlyShiftsLocalChunks) {
  // The whole point of CDC: inserting bytes near the front must leave the
  // vast majority of chunk boundaries (hence fingerprints) intact.
  RabinChunker chunker;
  const auto base = random_data(5, 4 << 20);

  std::vector<Byte> edited = base;
  const std::vector<Byte> insert = {1, 2, 3, 4, 5, 6, 7};
  edited.insert(edited.begin() + 1000, insert.begin(), insert.end());

  const auto a = chunker.chunk(ByteSpan(base.data(), base.size()));
  const auto b = chunker.chunk(ByteSpan(edited.data(), edited.size()));

  // Compare chunk content signatures by (size) sequences from the tail:
  // all but a handful of leading chunks must match exactly.
  std::size_t ai = a.size(), bi = b.size(), matched = 0;
  while (ai > 0 && bi > 0 && a[ai - 1].size == b[bi - 1].size) {
    --ai;
    --bi;
    ++matched;
  }
  EXPECT_GT(matched, a.size() * 9 / 10)
      << "only " << matched << " of " << a.size() << " chunks survived";
}

TEST(RabinChunkerTest, FixedChunkingWouldNotSurviveInsertion) {
  // Contrast case documenting why DEBAR uses CDC (Section 3.2).
  const auto base = random_data(6, 1 << 20);
  std::vector<Byte> edited = base;
  edited.insert(edited.begin(), Byte{0x42});

  std::size_t matching_blocks = 0;
  const std::size_t blocks = base.size() / kExpectedChunkSize;
  for (std::size_t i = 0; i < blocks; ++i) {
    if (std::equal(base.begin() + i * kExpectedChunkSize,
                   base.begin() + (i + 1) * kExpectedChunkSize,
                   edited.begin() + i * kExpectedChunkSize)) {
      ++matching_blocks;
    }
  }
  EXPECT_EQ(matching_blocks, 0u);  // every fixed block shifted
}

TEST(RabinChunkerTest, ParamsValidation) {
  CdcParams p;
  EXPECT_TRUE(p.valid());
  p.expected_size = 3000;  // not a power of two
  EXPECT_FALSE(p.valid());
  p = CdcParams{};
  p.min_size = 16;  // smaller than the window
  EXPECT_FALSE(p.valid());
  p = CdcParams{};
  p.max_size = p.expected_size / 2;
  EXPECT_FALSE(p.valid());
}

TEST(RabinChunkerTest, AllZeroInputHitsMaxSize) {
  // Pathological constant input never anchors (fp of zero window with
  // anchor 0x78 never matches), so every chunk is forced at max size.
  RabinChunker chunker;
  const std::vector<Byte> zeros(512 * 1024, 0);
  const auto bounds = chunker.chunk(ByteSpan(zeros.data(), zeros.size()));
  expect_tiles(bounds, zeros.size());
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    EXPECT_EQ(bounds[i].size, kMaxChunkSize);
  }
}

class RabinChunkerParamTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RabinChunkerParamTest, MeanTracksExpectedSize) {
  const std::uint64_t expected = GetParam();
  CdcParams p;
  p.expected_size = expected;
  p.min_size = expected / 4;
  p.max_size = expected * 8;
  ASSERT_TRUE(p.valid());
  RabinChunker chunker(p);

  const auto data = random_data(99, 8 << 20);
  const auto bounds = chunker.chunk(ByteSpan(data.data(), data.size()));
  const double mean =
      static_cast<double>(data.size()) / static_cast<double>(bounds.size());
  EXPECT_GT(mean, static_cast<double>(expected) * 0.6);
  EXPECT_LT(mean, static_cast<double>(expected) * 2.0);
}

INSTANTIATE_TEST_SUITE_P(ExpectedSizes, RabinChunkerParamTest,
                         ::testing::Values(2048, 4096, 8192, 16384));

// ---- Byte-identity oracle ---------------------------------------------------
//
// RabinChunker::chunk skips each chunk's first min_size - window bytes and
// warms the hash on one window. The reference below is the textbook loop
// it replaced: slide every byte through RabinWindow's ring buffer, reset
// the window at every cut. The two must agree on every boundary.

std::vector<ChunkBounds> reference_chunk(ByteSpan data, const CdcParams& p) {
  RabinWindow window(p.window_size, p.poly);
  const std::uint64_t mask = p.expected_size - 1;
  const std::uint64_t anchor = p.anchor_value & mask;
  std::vector<ChunkBounds> out;
  std::uint64_t chunk_start = 0;
  std::uint64_t pos = 0;
  while (pos < data.size()) {
    const std::uint64_t fp = window.slide(data[pos]);
    ++pos;
    const std::uint64_t len = pos - chunk_start;
    if ((len >= p.min_size && (fp & mask) == anchor) || len >= p.max_size) {
      out.push_back({chunk_start, len});
      chunk_start = pos;
      window.reset();
    }
  }
  if (chunk_start < data.size()) {
    out.push_back({chunk_start, data.size() - chunk_start});
  }
  return out;
}

std::vector<CdcParams> oracle_params() {
  std::vector<CdcParams> all;
  all.push_back(CdcParams{});  // paper default: 48 / 2K / 8K / 64K
  CdcParams tight;             // min_size == window_size: no skip at all
  tight.min_size = tight.window_size;
  tight.expected_size = 1024;
  tight.max_size = 4096;
  all.push_back(tight);
  CdcParams small;  // many chunks, many forced cuts
  small.min_size = 64;
  small.expected_size = 256;
  small.max_size = 2048;
  all.push_back(small);
  CdcParams odd;  // another window, anchor and degree-63 modulus
  odd.window_size = 32;
  odd.min_size = 100;
  odd.expected_size = 512;
  odd.max_size = 1000;
  odd.anchor_value = 0x1ab;
  odd.poly = 0xb15e234bd3792f63ULL;
  all.push_back(odd);
  return all;
}

std::vector<std::uint64_t> oracle_lengths(const CdcParams& p) {
  const std::uint64_t w = p.window_size;
  return {0,
          1,
          w - 1,
          w,
          p.min_size - 1,
          p.min_size,
          p.min_size + 1,
          p.max_size - 1,
          p.max_size,
          p.max_size + 1,
          3 * p.max_size + 7};
}

void expect_matches_reference(ByteSpan data, const CdcParams& p,
                              const std::string& what) {
  RabinChunker chunker(p);
  EXPECT_EQ(chunker.chunk(data), reference_chunk(data, p))
      << what << ", " << data.size() << " bytes, min " << p.min_size
      << " expected " << p.expected_size << " max " << p.max_size
      << " window " << p.window_size;
}

TEST(RabinOracleTest, EdgeLengthsMatchReference) {
  for (const CdcParams& p : oracle_params()) {
    ASSERT_TRUE(p.valid());
    const std::uint64_t longest = 3 * p.max_size + 7;
    const std::vector<std::pair<std::string, std::vector<Byte>>> inputs = {
        {"random", random_data(40, longest)},
        {"random-2", random_data(41, longest)},
        {"zeros", std::vector<Byte>(longest, 0x00)},
        {"ones", std::vector<Byte>(longest, 0xFF)},
    };
    for (const auto& [name, bytes] : inputs) {
      for (const std::uint64_t len : oracle_lengths(p)) {
        expect_matches_reference(ByteSpan(bytes.data(), len), p, name);
      }
    }
  }
}

TEST(RabinOracleTest, LongRandomInputsMatchReference) {
  for (const CdcParams& p : oracle_params()) {
    for (std::uint64_t seed = 50; seed < 53; ++seed) {
      const std::vector<Byte> data = random_data(seed, 1 << 20);
      expect_matches_reference(ByteSpan(data.data(), data.size()), p,
                               "random seed " + std::to_string(seed));
    }
  }
}

TEST(RabinOracleTest, VersionedTreeMatchesReference) {
  // Real backup content: a shared-block tree and edited generations.
  std::vector<core::Dataset> versions;
  versions.push_back(workload::make_dataset(
      {.files = 12, .mean_file_bytes = 96 * KiB, .seed = 606}));
  for (std::uint64_t day = 1; day <= 2; ++day) {
    versions.push_back(
        workload::mutate_dataset(versions.back(), {.seed = 700 + day}));
  }
  for (const CdcParams& p : oracle_params()) {
    for (const core::Dataset& version : versions) {
      for (const core::FileData& file : version.files) {
        expect_matches_reference(
            ByteSpan(file.content.data(), file.content.size()), p,
            file.path);
      }
    }
  }
}

TEST(RabinOracleTest, ConcurrentCallsOnOneInstanceAgree) {
  // chunk() reads only const tables, so one instance serves many threads.
  RabinChunker shared;
  std::vector<std::vector<Byte>> inputs;
  for (std::uint64_t seed = 60; seed < 64; ++seed) {
    inputs.push_back(random_data(seed, 512 * 1024));
  }
  std::vector<std::vector<ChunkBounds>> got(inputs.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    threads.emplace_back([&, t] {
      got[t] = shared.chunk(ByteSpan(inputs[t].data(), inputs[t].size()));
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    EXPECT_EQ(got[t], reference_chunk(ByteSpan(inputs[t].data(),
                                               inputs[t].size()),
                                      CdcParams{}));
  }
}

TEST(RabinOracleTest, CloneChunksIdentically) {
  CdcParams p;
  p.min_size = 64;
  p.expected_size = 256;
  p.max_size = 2048;
  const RabinChunker original(p);
  const std::unique_ptr<Chunker> copy = original.clone();
  EXPECT_EQ(copy->expected_chunk_size(), 256u);
  const std::vector<Byte> data = random_data(70, 256 * 1024);
  const ByteSpan span(data.data(), data.size());
  EXPECT_EQ(copy->chunk(span), reference_chunk(span, p));
}

}  // namespace
}  // namespace debar::chunking
