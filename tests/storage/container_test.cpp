#include "storage/container.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/sha1.hpp"
#include "storage/frame_pool.hpp"

namespace debar::storage {
namespace {

std::vector<Byte> chunk_data(int tag, std::size_t size) {
  std::vector<Byte> data(size);
  for (std::size_t i = 0; i < size; ++i) {
    data[i] = static_cast<Byte>(tag + static_cast<int>(i));
  }
  return data;
}

TEST(ContainerTest, AppendAndFind) {
  Container c(1 * MiB);
  const auto d1 = chunk_data(1, 100);
  const auto d2 = chunk_data(2, 200);
  const Fingerprint f1 = Sha1::hash(ByteSpan(d1.data(), d1.size()));
  const Fingerprint f2 = Sha1::hash(ByteSpan(d2.data(), d2.size()));

  ASSERT_TRUE(c.try_append(f1, ByteSpan(d1.data(), d1.size())));
  ASSERT_TRUE(c.try_append(f2, ByteSpan(d2.data(), d2.size())));
  EXPECT_EQ(c.chunk_count(), 2u);
  EXPECT_EQ(c.data_bytes(), 300u);

  const auto found = c.find(f2);
  ASSERT_TRUE(found.has_value());
  EXPECT_TRUE(std::equal(found->begin(), found->end(), d2.begin()));
  EXPECT_FALSE(c.find(Sha1::hash(std::string_view{"absent"})).has_value());
}

TEST(ContainerTest, PreservesArrivalOrderSISL) {
  Container c(1 * MiB);
  std::vector<Fingerprint> order;
  for (int i = 0; i < 10; ++i) {
    const auto d = chunk_data(i, 64);
    const Fingerprint f = Sha1::hash(ByteSpan(d.data(), d.size()));
    order.push_back(f);
    ASSERT_TRUE(c.try_append(f, ByteSpan(d.data(), d.size())));
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(c.metadata()[i].fp, order[i]);
  }
}

TEST(ContainerTest, RefusesWhenFull) {
  Container c(2048);  // tiny container for the test
  const auto big = chunk_data(0, 1500);
  ASSERT_TRUE(
      c.try_append(Sha1::hash_counter(1), ByteSpan(big.data(), big.size())));
  const auto more = chunk_data(1, 1000);
  EXPECT_FALSE(
      c.try_append(Sha1::hash_counter(2), ByteSpan(more.data(), more.size())));
  EXPECT_EQ(c.chunk_count(), 1u);
}

TEST(ContainerTest, SerializeDeserializeRoundTrip) {
  Container c(64 * 1024);
  c.set_id(ContainerId{777});
  std::vector<std::vector<Byte>> chunks;
  for (int i = 0; i < 5; ++i) {
    chunks.push_back(chunk_data(i * 7, 512 + static_cast<std::size_t>(i) * 100));
    ASSERT_TRUE(c.try_append(
        Sha1::hash(ByteSpan(chunks.back().data(), chunks.back().size())),
        ByteSpan(chunks.back().data(), chunks.back().size())));
  }

  const std::vector<Byte> image = c.serialize();
  EXPECT_EQ(image.size(), c.capacity());

  const Result<Container> parsed =
      Container::deserialize(ByteSpan(image.data(), image.size()));
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed.value().id(), ContainerId{777});
  EXPECT_EQ(parsed.value().chunk_count(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    const ByteSpan chunk = parsed.value().chunk_at(i);
    EXPECT_TRUE(std::equal(chunk.begin(), chunk.end(), chunks[i].begin(),
                           chunks[i].end()));
  }
}

TEST(ContainerTest, DeserializeRejectsBadMagic) {
  Container c(4096);
  auto image = c.serialize();
  image[0] ^= 0xFF;
  EXPECT_FALSE(Container::deserialize(ByteSpan(image.data(), image.size())).ok());
}

TEST(ContainerTest, DeserializeRejectsOverflowingCounts) {
  Container c(4096);
  const auto d = chunk_data(1, 128);
  ASSERT_TRUE(c.try_append(Sha1::hash_counter(9), ByteSpan(d.data(), d.size())));
  auto image = c.serialize();
  // Corrupt the chunk count to something enormous.
  image[9] = 0xFF;
  image[10] = 0xFF;
  image[11] = 0xFF;
  image[12] = 0x7F;
  const auto r = Container::deserialize(ByteSpan(image.data(), image.size()));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kCorrupt);
}

TEST(ContainerTest, DeserializeRejectsOutOfBoundsChunkMeta) {
  Container c(4096);
  const auto d = chunk_data(1, 128);
  ASSERT_TRUE(c.try_append(Sha1::hash_counter(9), ByteSpan(d.data(), d.size())));
  auto image = c.serialize();
  // Chunk 0's size field sits after the header + fingerprint: corrupt it
  // to exceed the data section.
  const std::size_t size_off = Container::kHeaderSize + Fingerprint::kSize;
  image[size_off] = 0xFF;
  image[size_off + 1] = 0xFF;
  image[size_off + 2] = 0xFF;
  image[size_off + 3] = 0x7F;
  const auto r = Container::deserialize(ByteSpan(image.data(), image.size()));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kCorrupt);
}

TEST(ContainerTest, NearlyFullDetection) {
  Container c(8192);
  EXPECT_FALSE(c.nearly_full());
  const auto d = chunk_data(0, 6200);
  ASSERT_TRUE(c.try_append(Sha1::hash_counter(1), ByteSpan(d.data(), d.size())));
  EXPECT_TRUE(c.nearly_full());  // < 2 KiB of payload space left
}

TEST(ContainerTest, PaperContainerHoldsAboutThousandChunks) {
  // Section 3.4: 8 MB container, 8 KB chunks -> ~1024 chunks.
  Container c(kContainerSize);
  const auto d = chunk_data(1, kExpectedChunkSize);
  std::uint64_t count = 0;
  while (c.try_append(Sha1::hash_counter(count), ByteSpan(d.data(), d.size()))) {
    ++count;
  }
  EXPECT_GE(count, 1000u);
  EXPECT_LE(count, 1024u);
}

// ---- In-place layout and parsing -------------------------------------------

/// A valid one-chunk image of a 4 KiB container.
std::vector<Byte> small_image() {
  Container c(4096);
  const auto d = chunk_data(1, 128);
  EXPECT_TRUE(
      c.try_append(Sha1::hash_counter(9), ByteSpan(d.data(), d.size())));
  return c.serialize();
}

/// Parse `image` in place inside a pooled buffer whose bytes past the
/// image are garbage, as after a device read into a recycled frame.
Result<Container> parse_in_pool(FramePool& pool, ByteSpan image) {
  FrameBuffer buffer =
      pool.acquire(Container::buffer_bytes(std::max<std::size_t>(
          image.size(), 64)));
  std::memset(buffer.data(), 0xAB, buffer.size());
  if (!image.empty()) {
    std::memcpy(buffer.data() + Container::kFrameRoom, image.data(),
                image.size());
  }
  return Container::parse(std::move(buffer), image.size());
}

TEST(ContainerTest, InPlaceParseRejectsExactlyAsDeserialize) {
  std::vector<std::vector<Byte>> bad;
  bad.push_back({0x44, 0x42});  // shorter than the magic
  {
    std::vector<Byte> image = small_image();
    image[0] ^= 0xFF;  // bad magic
    bad.push_back(image);
  }
  {
    std::vector<Byte> image = small_image();
    image.resize(10);  // header cut short
    bad.push_back(image);
  }
  {
    std::vector<Byte> image = small_image();
    image.resize(Container::kHeaderSize + 30);  // metadata cut short
    bad.push_back(image);
  }
  {
    std::vector<Byte> image = small_image();
    image[12] = 0x7F;  // chunk count overflows the image
    bad.push_back(image);
  }
  {
    std::vector<Byte> image = small_image();
    image[16] = 0x7F;  // data bytes overflow the image
    bad.push_back(image);
  }
  {
    std::vector<Byte> image = small_image();
    const std::size_t size_off = Container::kHeaderSize + Fingerprint::kSize;
    image[size_off + 3] = 0x7F;  // chunk 0 runs past the data section
    bad.push_back(image);
  }
  auto pool = std::make_shared<FramePool>(2);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const ByteSpan image(bad[i].data(), bad[i].size());
    const Result<Container> copied = Container::deserialize(image);
    const Result<Container> in_place = parse_in_pool(*pool, image);
    ASSERT_FALSE(copied.ok()) << i;
    ASSERT_FALSE(in_place.ok()) << i;
    EXPECT_EQ(in_place.error().code, Errc::kCorrupt) << i;
    EXPECT_EQ(in_place.error().code, copied.error().code) << i;
    EXPECT_EQ(in_place.error().message, copied.error().message) << i;
  }
  const std::vector<Byte> good = small_image();
  const Result<Container> parsed =
      parse_in_pool(*pool, ByteSpan(good.data(), good.size()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().serialize(), good);
}

TEST(ContainerTest, SealLaysOutTheSerializedImageInPlace) {
  // Tiny chunks outgrow the metadata room reserved in front of the
  // payload, so the payload moves several times before the seal.
  Container c(4096);
  std::vector<std::vector<Byte>> chunks;
  for (int i = 0;; ++i) {
    std::vector<Byte> d = chunk_data(i, 1 + i % 3);
    if (!c.try_append(Sha1::hash_counter(i), ByteSpan(d.data(), d.size()))) {
      break;
    }
    chunks.push_back(std::move(d));
  }
  ASSERT_GT(chunks.size(), 100u);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ByteSpan got = c.chunk_at(i);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), chunks[i].begin(),
                           chunks[i].end()))
        << i;
  }
  c.set_id(ContainerId{77});
  const std::vector<Byte> want = c.serialize();
  const std::span<Byte> frame = c.seal();
  ASSERT_EQ(frame.size(), Container::kFrameRoom + 4096);
  EXPECT_TRUE(std::equal(frame.begin() + Container::kFrameRoom, frame.end(),
                         want.begin(), want.end()));
  EXPECT_EQ(c.serialize(), want);
  const Result<Container> back =
      Container::deserialize(ByteSpan(want.data(), want.size()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().metadata(), c.metadata());
}

TEST(ContainerTest, PartParsedContainerLoadsChunkByChunk) {
  Container c(64 * KiB);
  std::vector<std::vector<Byte>> chunks;
  for (int k = 0; k < 3; ++k) {
    chunks.push_back(chunk_data(k * 40, 100 + 50 * k));
    const auto& d = chunks.back();
    ASSERT_TRUE(
        c.try_append(Sha1::hash_counter(k), ByteSpan(d.data(), d.size())));
  }
  c.set_id(ContainerId{9});
  const std::vector<Byte> image = c.serialize();

  // Only the header and metadata are in the buffer; the rest is stale.
  FrameBuffer buffer(Container::buffer_bytes(image.size()));
  std::memset(buffer.data(), 0xA5, buffer.size());
  const std::uint64_t head = Container::head_bytes(3);
  std::memcpy(buffer.data() + Container::kFrameRoom, image.data(), head);
  const Container::Source source{.offset = 4096};
  Result<Container> parsed =
      Container::parse_head(std::move(buffer), image.size(), source);
  ASSERT_TRUE(parsed.ok());
  Container& part = parsed.value();
  EXPECT_EQ(part.id().value, 9u);
  EXPECT_EQ(part.metadata(), c.metadata());
  EXPECT_EQ(part.source().offset, 4096u);
  EXPECT_FALSE(part.whole());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_FALSE(part.loaded(i));

  // A run lands at its place in the image.
  const ChunkMeta& m = part.metadata()[1];
  const std::span<Byte> run =
      part.image_span(head + m.offset, head + m.offset + m.size);
  std::memcpy(run.data(), image.data() + head + m.offset, m.size);
  part.set_loaded(1, 2);
  EXPECT_TRUE(part.loaded(1));
  EXPECT_FALSE(part.loaded(0));
  EXPECT_FALSE(part.whole());
  const ByteSpan got = part.chunk_at(1);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), chunks[1].begin(),
                         chunks[1].end()));

  const std::span<Byte> all = part.image_span(0, image.size());
  std::memcpy(all.data(), image.data(), image.size());
  part.set_loaded(0, 3);
  EXPECT_TRUE(part.whole());
  EXPECT_TRUE(std::equal(part.image().begin(), part.image().end(),
                         image.begin(), image.end()));

  // A container parsed whole, and an empty one parsed in part, are whole.
  FrameBuffer empty(Container::buffer_bytes(64 * KiB));
  Container none(64 * KiB);
  none.set_id(ContainerId{10});
  const std::vector<Byte> none_image = none.serialize();
  std::memcpy(empty.data() + Container::kFrameRoom, none_image.data(),
              none_image.size());
  Result<Container> empty_part =
      Container::parse_head(std::move(empty), none_image.size(), source);
  ASSERT_TRUE(empty_part.ok());
  EXPECT_TRUE(empty_part.value().whole());
}

TEST(FramePoolTest, RecyclesUpToItsBound) {
  auto pool = std::make_shared<FramePool>(2);
  const Byte* first = nullptr;
  {
    FrameBuffer a = pool->acquire(4096);
    first = a.data();
  }
  EXPECT_EQ(pool->idle(), 1u);
  {
    FrameBuffer again = pool->acquire(4096);
    EXPECT_EQ(again.data(), first);  // the released buffer, not a new one
    EXPECT_EQ(pool->idle(), 0u);
    FrameBuffer other_size = pool->acquire(100);
    EXPECT_EQ(other_size.size(), 100u);
  }
  EXPECT_EQ(pool->idle(), 2u);
  {
    std::vector<FrameBuffer> many;
    for (int i = 0; i < 5; ++i) many.push_back(pool->acquire(4096));
  }
  EXPECT_EQ(pool->idle(), 2u);
}

TEST(FramePoolTest, BufferMayOutliveItsPool) {
  auto pool = std::make_shared<FramePool>(4);
  FrameBuffer kept = pool->acquire(4096);
  { FrameBuffer idle = pool->acquire(4096); }
  pool.reset();  // frees the idle buffer
  std::memset(kept.data(), 1, kept.size());
  // `kept` is freed on its own when it goes out of scope.
}

}  // namespace
}  // namespace debar::storage
