// Persistent chunk repository: framed per-node container logs with
// write-through, tombstoned removals, and reopen-by-scan.
#include <gtest/gtest.h>

#include "cache/lpc_cache.hpp"
#include "common/sha1.hpp"
#include "core/backup_engine.hpp"
#include "core/chunk_store.hpp"
#include "storage/chunk_log.hpp"
#include "storage/chunk_repository.hpp"

namespace debar::storage {
namespace {

Container make_container(std::uint64_t fp_base, std::size_t chunks) {
  Container c(64 * 1024);
  for (std::size_t i = 0; i < chunks; ++i) {
    const Fingerprint fp = Sha1::hash_counter(fp_base + i);
    const auto payload = core::BackupEngine::synthetic_payload(fp, 700);
    c.try_append(fp, ByteSpan(payload.data(), payload.size()));
  }
  return c;
}

/// Build N in-memory devices and return raw pointers for later snapshot.
std::vector<std::unique_ptr<BlockDevice>> make_devices(
    std::size_t n, std::vector<MemBlockDevice*>* raw) {
  std::vector<std::unique_ptr<BlockDevice>> devices;
  for (std::size_t i = 0; i < n; ++i) {
    auto d = std::make_unique<MemBlockDevice>();
    if (raw != nullptr) raw->push_back(d.get());
    devices.push_back(std::move(d));
  }
  return devices;
}

std::vector<std::vector<Byte>> snapshot(
    const std::vector<MemBlockDevice*>& raw) {
  std::vector<std::vector<Byte>> images;
  for (const MemBlockDevice* d : raw) {
    images.emplace_back(d->contents().begin(), d->contents().end());
  }
  return images;
}

std::vector<std::unique_ptr<BlockDevice>> devices_from(
    const std::vector<std::vector<Byte>>& images) {
  std::vector<std::unique_ptr<BlockDevice>> devices;
  for (const auto& image : images) {
    auto d = std::make_unique<MemBlockDevice>();
    EXPECT_TRUE(d->write(0, ByteSpan(image.data(), image.size())).ok());
    devices.push_back(std::move(d));
  }
  return devices;
}

TEST(PersistentRepositoryTest, SurvivesReopen) {
  std::vector<MemBlockDevice*> raw;
  std::vector<std::vector<Byte>> images;
  std::vector<std::pair<ContainerId, Fingerprint>> stored;
  {
    ChunkRepository repo(make_devices(2, &raw));
    for (int c = 0; c < 5; ++c) {
      const std::uint64_t base = static_cast<std::uint64_t>(c) * 100;
      const ContainerId id = repo.append(make_container(base, 8));
      stored.emplace_back(id, Sha1::hash_counter(base));
    }
    images = snapshot(raw);
  }

  auto reopened = ChunkRepository::open(devices_from(images));
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  ChunkRepository& repo = *reopened.value();
  EXPECT_EQ(repo.container_count(), 5u);
  for (const auto& [id, first_fp] : stored) {
    const auto container = repo.read(id);
    ASSERT_TRUE(container.ok());
    EXPECT_TRUE(container.value().find(first_fp).has_value());
  }
  // IDs continue where they left off.
  const ContainerId next = repo.append(make_container(900, 3));
  EXPECT_EQ(next.value, 6u);
}

TEST(PersistentRepositoryTest, TombstonedContainersStayGone) {
  std::vector<MemBlockDevice*> raw;
  std::vector<std::vector<Byte>> images;
  ContainerId removed, kept;
  {
    ChunkRepository repo(make_devices(2, &raw));
    removed = repo.append(make_container(0, 6));
    kept = repo.append(make_container(100, 6));
    ASSERT_TRUE(repo.remove(removed).ok());
    images = snapshot(raw);
  }

  auto reopened = ChunkRepository::open(devices_from(images));
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_FALSE(reopened.value()->contains(removed));
  EXPECT_TRUE(reopened.value()->contains(kept));
  EXPECT_EQ(reopened.value()->container_count(), 1u);
  // The removed ID is not reused.
  EXPECT_GT(reopened.value()->append(make_container(200, 2)).value,
            kept.value);
}

TEST(PersistentRepositoryTest, PinnedPlacementSurvivesReopen) {
  std::vector<MemBlockDevice*> raw;
  std::vector<std::vector<Byte>> images;
  ContainerId pinned;
  {
    ChunkRepository repo(make_devices(3, &raw));
    (void)repo.append(make_container(0, 4));          // node 0
    pinned = repo.append(make_container(100, 4), 2);  // pinned to node 2
    images = snapshot(raw);
  }
  auto reopened = ChunkRepository::open(devices_from(images));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->node_of(pinned), 2u);
  EXPECT_TRUE(reopened.value()->read(pinned).ok());
}

TEST(PersistentRepositoryTest, OpenTruncatesOverrunningTailFrame) {
  // A frame whose declared length overruns the device is exactly what a
  // crash mid-append leaves behind. Reopen must NOT reject the node:
  // it discards the torn tail and keeps every earlier (acked) frame.
  std::vector<MemBlockDevice*> raw;
  std::vector<std::vector<Byte>> images;
  ContainerId first;
  {
    ChunkRepository repo(make_devices(1, &raw));
    first = repo.append(make_container(0, 4));
    (void)repo.append(make_container(100, 4));
    images = snapshot(raw);
  }
  // Corrupt the SECOND frame's length field to overrun the device
  // (frame layout: [u32 magic][u32 length][image]).
  const std::uint32_t len0 = static_cast<std::uint32_t>(images[0][4]) |
                             static_cast<std::uint32_t>(images[0][5]) << 8 |
                             static_cast<std::uint32_t>(images[0][6]) << 16 |
                             static_cast<std::uint32_t>(images[0][7]) << 24;
  const std::size_t second_len = 8 + len0 + 4;
  images[0][second_len] = 0xFF;
  images[0][second_len + 1] = 0xFF;
  images[0][second_len + 2] = 0xFF;

  auto reopened = ChunkRepository::open(devices_from(images));
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_EQ(reopened.value()->container_count(), 1u);
  EXPECT_TRUE(reopened.value()->contains(first));

  // The torn tail is dead space: a new append lands and reads back.
  const ContainerId fresh = reopened.value()->append(make_container(200, 4));
  auto readback = reopened.value()->read(fresh);
  ASSERT_TRUE(readback.ok());
  EXPECT_TRUE(
      readback.value().find(Sha1::hash_counter(200)).has_value());
}

TEST(PersistentRepositoryTest, TrailingGarbageEndsTheScan) {
  std::vector<MemBlockDevice*> raw;
  std::vector<std::vector<Byte>> images;
  {
    ChunkRepository repo(make_devices(1, &raw));
    (void)repo.append(make_container(0, 4));
    images = snapshot(raw);
  }
  // Simulate a torn append: junk bytes after the last valid frame.
  images[0].insert(images[0].end(), {0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC,
                                     0xDE, 0xF0, 0x11});
  auto reopened = ChunkRepository::open(devices_from(images));
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_EQ(reopened.value()->container_count(), 1u);
}

TEST(PersistentRepositoryTest, MemoryOnlyModeUnaffected) {
  // The default constructor keeps the pure in-memory behaviour: removals
  // and appends work with no backing devices involved.
  ChunkRepository repo(2);
  const ContainerId id = repo.append(make_container(0, 3));
  ASSERT_TRUE(repo.remove(id).ok());
  EXPECT_EQ(repo.container_count(), 0u);
}

// ---- Frame format golden -------------------------------------------------
//
// A node log is a run of frames [u32 magic 'DBCL'][u32 image length]
// [Container::serialize()], little-endian; a removal overwrites the magic
// with 'DBCX'. These tests pin that layout byte for byte.

void put_u32(std::vector<Byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<Byte>(v >> (8 * i)));
}

std::vector<Byte> frame_of(std::uint32_t magic, const Container& c) {
  std::vector<Byte> frame;
  put_u32(frame, magic);
  const std::vector<Byte> image = c.serialize();
  put_u32(frame, static_cast<std::uint32_t>(image.size()));
  frame.insert(frame.end(), image.begin(), image.end());
  return frame;
}

constexpr std::uint32_t kLiveMagic = 0x4C434244;       // 'DBCL'
constexpr std::uint32_t kTombstoneMagic = 0x58434244;  // 'DBCX'

TEST(PersistentRepositoryTest, FrameIsHeaderThenSerializedContainer) {
  std::vector<MemBlockDevice*> raw;
  ChunkRepository repo(make_devices(1, &raw));
  std::vector<Byte> want;
  for (std::uint64_t c = 0; c < 3; ++c) {
    const ContainerId id = repo.append(make_container(c * 100, 5 + c));
    Container container = make_container(c * 100, 5 + c);
    container.set_id(id);
    const std::vector<Byte> frame = frame_of(kLiveMagic, container);
    want.insert(want.end(), frame.begin(), frame.end());
  }
  const ByteSpan got = raw[0]->contents();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));
}

TEST(PersistentRepositoryTest, HandWrittenLogReopens) {
  // IDs 3, 5 and 9 live, 4 tombstoned, all on the one node.
  std::vector<Byte> log;
  std::vector<Container> live;
  std::uint64_t payload = 0;
  for (const std::uint64_t id : {3u, 4u, 5u, 9u}) {
    Container c = make_container(id * 1000, 2 + id % 4);
    c.set_id(ContainerId{id});
    const bool removed = id == 4;
    const std::vector<Byte> frame =
        frame_of(removed ? kTombstoneMagic : kLiveMagic, c);
    log.insert(log.end(), frame.begin(), frame.end());
    if (!removed) {
      payload += c.data_bytes();
      live.push_back(std::move(c));
    }
  }

  auto reopened = ChunkRepository::open(devices_from({log}));
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  ChunkRepository& repo = *reopened.value();
  EXPECT_EQ(repo.container_ids(),
            (std::vector<ContainerId>{ContainerId{3}, ContainerId{5},
                                      ContainerId{9}}));
  EXPECT_EQ(repo.stored_bytes(), payload);
  for (const Container& want : live) {
    const Result<Container> got = repo.read(want.id());
    ASSERT_TRUE(got.ok()) << want.id().value;
    EXPECT_EQ(got.value().serialize(), want.serialize());
    for (std::size_t i = 0; i < want.chunk_count(); ++i) {
      const std::optional<ByteSpan> chunk =
          got.value().find(want.metadata()[i].fp);
      ASSERT_TRUE(chunk.has_value());
      const ByteSpan expected = want.chunk_at(i);
      EXPECT_TRUE(std::equal(chunk->begin(), chunk->end(), expected.begin(),
                             expected.end()));
    }
  }
  // Removing a reopened container releases its payload accounting.
  ASSERT_TRUE(repo.remove(ContainerId{5}).ok());
  EXPECT_EQ(repo.stored_bytes(), payload - live[1].data_bytes());
  // IDs continue after the highest one on disk.
  EXPECT_EQ(repo.append(make_container(900, 2)).value, 10u);
}

// ---- The read path goes to the device ------------------------------------

/// A memory device that counts reads and can be told to fail writes.
class ProbeDevice final : public BlockDevice {
 public:
  Status read(std::uint64_t offset, std::span<Byte> out) override {
    ++reads;
    read_bytes += out.size();
    last_read_bytes = out.size();
    return inner.read(offset, out);
  }
  Status write(std::uint64_t offset, ByteSpan data) override {
    if (fail_writes) return {Errc::kIoError, "injected write failure"};
    return inner.write(offset, data);
  }
  std::uint64_t size() const override { return inner.size(); }
  Status resize(std::uint64_t bytes) override { return inner.resize(bytes); }

  MemBlockDevice inner;
  std::uint64_t reads = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t last_read_bytes = 0;
  bool fail_writes = false;
};

/// A one-node persistent repository over a ProbeDevice.
std::unique_ptr<ChunkRepository> probed_repository(ProbeDevice** probe) {
  auto device = std::make_unique<ProbeDevice>();
  *probe = device.get();
  std::vector<std::unique_ptr<BlockDevice>> devices;
  devices.push_back(std::move(device));
  return std::make_unique<ChunkRepository>(std::move(devices));
}

TEST(PersistentRepositoryTest, EachReadIsOneDeviceReadOfTheImage) {
  ProbeDevice* probe = nullptr;
  auto repo = probed_repository(&probe);
  std::vector<ContainerId> ids;
  for (std::uint64_t c = 0; c < 3; ++c) {
    ids.push_back(repo->append(make_container(c * 100, 4 + c)));
  }
  ASSERT_EQ(probe->reads, 0u);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t c = 0; c < ids.size(); ++c) {
      const std::uint64_t before = probe->reads;
      const Result<Container> got = repo->read(ids[c]);
      ASSERT_TRUE(got.ok()) << got.error().to_string();
      EXPECT_EQ(probe->reads, before + 1);
      EXPECT_EQ(probe->last_read_bytes, 64u * 1024);  // the image length
      EXPECT_TRUE(got.value().find(Sha1::hash_counter(c * 100)).has_value());
    }
  }
}

TEST(PersistentRepositoryTest, LpcHitIssuesNoDeviceRead) {
  ProbeDevice* probe = nullptr;
  auto repo = probed_repository(&probe);
  const ContainerId id = repo->append(make_container(0, 8));
  auto idx = index::DiskIndex::create(std::make_unique<MemBlockDevice>(),
                                      {.prefix_bits = 4,
                                       .blocks_per_bucket = 2});
  ASSERT_TRUE(idx.ok());
  ChunkLog log(std::make_unique<MemBlockDevice>());
  core::ChunkStore store(std::move(idx).value(), core::ChunkStoreConfig{},
                         repo.get(), &log,
                         []() -> std::unique_ptr<BlockDevice> {
                           return std::make_unique<MemBlockDevice>();
                         });

  // The store's index names the container through its pending set.
  std::vector<IndexEntry> entries;
  for (std::uint64_t i = 0; i < 8; ++i) {
    entries.push_back({Sha1::hash_counter(i), id});
  }
  store.add_pending(entries);

  // A miss (LPC probe, locate, fetch) reads the container once and counts
  // once; the probe itself reads nothing.
  EXPECT_EQ(probe->reads, 0u);
  const Result<std::vector<Byte>> first =
      store.read_chunk(Sha1::hash_counter(0));
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  EXPECT_EQ(first.value(),
            core::BackupEngine::synthetic_payload(Sha1::hash_counter(0), 700));
  EXPECT_EQ(probe->reads, 1u);
  EXPECT_EQ(store.lpc().misses(), 1u);
  EXPECT_EQ(store.lpc().hits(), 0u);
  for (std::uint64_t i = 1; i < 8; ++i) {
    const Result<std::vector<Byte>> chunk =
        store.read_chunk(Sha1::hash_counter(i));
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(chunk.value(),
              core::BackupEngine::synthetic_payload(Sha1::hash_counter(i),
                                                    700));
  }
  EXPECT_EQ(probe->reads, 1u);
  EXPECT_EQ(store.lpc().misses(), 1u);
  EXPECT_EQ(store.lpc().hits(), 7u);
}

TEST(PersistentRepositoryTest, OpenReadsOnlyHeaders) {
  std::vector<MemBlockDevice*> raw;
  std::vector<std::vector<Byte>> images;
  {
    ChunkRepository repo(make_devices(1, &raw));
    for (std::uint64_t c = 0; c < 6; ++c) {
      (void)repo.append(make_container(c * 100, 3 + c));
    }
    ASSERT_TRUE(repo.remove(ContainerId{2}).ok());
    images = snapshot(raw);
  }
  auto device = std::make_unique<ProbeDevice>();
  ProbeDevice* probe = device.get();
  ASSERT_TRUE(
      device->inner.write(0, ByteSpan(images[0].data(), images[0].size()))
          .ok());
  std::vector<std::unique_ptr<BlockDevice>> devices;
  devices.push_back(std::move(device));
  auto reopened = ChunkRepository::open(std::move(devices));
  ASSERT_TRUE(reopened.ok()) << reopened.error().to_string();
  EXPECT_EQ(reopened.value()->container_count(), 5u);
  // Six frames (the tombstoned one included), each read as its 8-byte
  // frame header plus the 17-byte container header.
  EXPECT_EQ(probe->reads, 6u);
  EXPECT_LE(probe->read_bytes, 6u * 25);
}

TEST(PersistentRepositoryTest, ReadSeesTheDeviceNotAMemoryCopy) {
  std::vector<MemBlockDevice*> raw;
  ChunkRepository repo(make_devices(1, &raw));
  const ContainerId first = repo.append(make_container(0, 4));
  const ContainerId second = repo.append(make_container(100, 4));
  // Overwrite the second frame's container magic on the device itself.
  const std::uint64_t second_frame = 8 + 64 * 1024;
  const std::vector<Byte> junk = {0xEE, 0xEE, 0xEE, 0xEE};
  ASSERT_TRUE(raw[0]
                  ->write(second_frame + 8, ByteSpan(junk.data(), junk.size()))
                  .ok());
  const Result<Container> bad = repo.read(second);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, Errc::kCorrupt);
  EXPECT_TRUE(repo.read(first).ok());
}

TEST(PersistentRepositoryTest, FramePoolStaysWithinItsBound) {
  ProbeDevice* probe = nullptr;
  auto repo = probed_repository(&probe);
  const std::size_t kContainers = ChunkRepository::kIdleFrames + 12;
  std::vector<ContainerId> ids;
  for (std::uint64_t c = 0; c < kContainers; ++c) {
    ids.push_back(repo->append(make_container(c * 100, 3)));
  }
  FramePool& pool = repo->frame_pool();
  EXPECT_EQ(pool.max_idle(), ChunkRepository::kIdleFrames);

  // Restore-style: more distinct reads than a 4-container LPC holds.
  cache::LpcCache lpc(4);
  for (const ContainerId id : ids) {
    Result<Container> got = repo->read(id);
    ASSERT_TRUE(got.ok());
    lpc.insert(std::make_shared<Container>(std::move(got).value()));
    EXPECT_LE(pool.idle(), pool.max_idle());
  }
  EXPECT_EQ(probe->reads, kContainers);
  // Every container read at once, then released together.
  {
    std::vector<Container> all;
    for (const ContainerId id : ids) {
      Result<Container> got = repo->read(id);
      ASSERT_TRUE(got.ok());
      all.push_back(std::move(got).value());
    }
  }
  EXPECT_EQ(pool.idle(), pool.max_idle());
  lpc.clear();
  EXPECT_EQ(pool.idle(), pool.max_idle());
}

TEST(PersistentRepositoryTest, RemovalAccountingInEveryMode) {
  std::vector<MemBlockDevice*> raw;
  std::vector<std::vector<Byte>> images;
  ChunkRepository memory(2);
  std::uint64_t payload = 0;
  std::vector<std::uint64_t> sizes;
  {
    ChunkRepository persistent(make_devices(2, &raw));
    for (std::uint64_t c = 0; c < 5; ++c) {
      Container container = make_container(c * 100, 2 + c);
      sizes.push_back(container.data_bytes());
      payload += container.data_bytes();
      (void)persistent.append(make_container(c * 100, 2 + c));
      (void)memory.append(std::move(container));
    }
    for (ChunkRepository* repo : {&persistent, &memory}) {
      EXPECT_EQ(repo->stored_bytes(), payload);
      ASSERT_TRUE(repo->remove(ContainerId{2}).ok());
      EXPECT_EQ(repo->stored_bytes(), payload - sizes[1]);
      EXPECT_EQ(repo->remove(ContainerId{2}).code(), Errc::kNotFound);
      EXPECT_EQ(repo->stored_bytes(), payload - sizes[1]);
    }
    images = snapshot(raw);
  }
  auto reopened = ChunkRepository::open(devices_from(images));
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->stored_bytes(), payload - sizes[1]);
  ASSERT_TRUE(reopened.value()->remove(ContainerId{4}).ok());
  EXPECT_EQ(reopened.value()->stored_bytes(), payload - sizes[1] - sizes[3]);
}

TEST(PersistentRepositoryTest, FailedWriteThroughStaysReadableAndIsReported) {
  ProbeDevice* probe = nullptr;
  auto repo = probed_repository(&probe);
  const ContainerId good = repo->append(make_container(0, 3));
  probe->fail_writes = true;
  const ContainerId lost = repo->append(make_container(100, 3));
  EXPECT_EQ(repo->take_backing_error().code(), Errc::kIoError);
  EXPECT_TRUE(repo->take_backing_error().ok());  // reading clears it
  probe->fail_writes = false;

  // Until the failed round is dealt with, the container reads from memory;
  // only the persisted one costs a device read.
  const std::uint64_t before = probe->reads;
  const Result<Container> held = repo->read(lost);
  ASSERT_TRUE(held.ok());
  EXPECT_TRUE(held.value().find(Sha1::hash_counter(100)).has_value());
  EXPECT_EQ(probe->reads, before);
  ASSERT_TRUE(repo->read(good).ok());
  EXPECT_EQ(probe->reads, before + 1);
  // Its ID was never framed on the device, so removal writes no tombstone.
  ASSERT_TRUE(repo->remove(lost).ok());
  EXPECT_EQ(repo->stored_bytes(), make_container(0, 3).data_bytes());
}

}  // namespace
}  // namespace debar::storage
