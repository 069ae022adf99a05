#include "storage/block_device.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

namespace debar::storage {
namespace {

TEST(MemBlockDeviceTest, WriteThenRead) {
  MemBlockDevice dev;
  const std::vector<Byte> data = {1, 2, 3, 4, 5};
  ASSERT_TRUE(dev.write(10, ByteSpan(data.data(), data.size())).ok());
  EXPECT_EQ(dev.size(), 15u);

  std::vector<Byte> out(5);
  ASSERT_TRUE(dev.read(10, std::span<Byte>(out)).ok());
  EXPECT_EQ(out, data);
}

TEST(MemBlockDeviceTest, GapIsZeroFilled) {
  MemBlockDevice dev;
  const Byte one = 1;
  ASSERT_TRUE(dev.write(100, ByteSpan(&one, 1)).ok());
  std::vector<Byte> out(100);
  ASSERT_TRUE(dev.read(0, std::span<Byte>(out)).ok());
  for (const Byte b : out) EXPECT_EQ(b, 0);
}

TEST(MemBlockDeviceTest, ReadPastEndFails) {
  MemBlockDevice dev(10);
  std::vector<Byte> out(11);
  const Status s = dev.read(0, std::span<Byte>(out));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::kIoError);
}

TEST(MemBlockDeviceTest, ResizeGrowsAndShrinks) {
  MemBlockDevice dev;
  ASSERT_TRUE(dev.resize(100).ok());
  EXPECT_EQ(dev.size(), 100u);
  ASSERT_TRUE(dev.resize(10).ok());
  EXPECT_EQ(dev.size(), 10u);
}

TEST(MemBlockDeviceTest, EmptySpansOnEmptyDevice) {
  MemBlockDevice dev;
  ASSERT_TRUE(dev.write(0, ByteSpan()).ok());
  EXPECT_EQ(dev.size(), 0u);
  ASSERT_TRUE(dev.read(0, std::span<Byte>()).ok());
}

TEST(MemBlockDeviceTest, AccountsSimTime) {
  sim::SimClock clock;
  sim::DiskModel model({.seek_seconds = 0.0, .transfer_bytes_per_sec = 100.0},
                       &clock);
  MemBlockDevice dev;
  dev.attach_model(&model);
  const std::vector<Byte> data(50, 7);
  ASSERT_TRUE(dev.write(0, ByteSpan(data.data(), data.size())).ok());
  EXPECT_DOUBLE_EQ(clock.seconds(), 0.5);
}

class FileBlockDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("debar_fbd_test_" + std::to_string(::getpid()) + ".bin");
    std::filesystem::remove(path_);
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(FileBlockDeviceTest, CreateWriteReadPersist) {
  {
    auto dev = FileBlockDevice::open(path_);
    ASSERT_TRUE(dev.ok()) << dev.error().to_string();
    const std::vector<Byte> data = {9, 8, 7};
    ASSERT_TRUE(dev.value()->write(4, ByteSpan(data.data(), data.size())).ok());
  }
  {
    auto dev = FileBlockDevice::open(path_);
    ASSERT_TRUE(dev.ok());
    EXPECT_EQ(dev.value()->size(), 7u);
    std::vector<Byte> out(3);
    ASSERT_TRUE(dev.value()->read(4, std::span<Byte>(out)).ok());
    EXPECT_EQ(out, (std::vector<Byte>{9, 8, 7}));
    // The gap before offset 4 must read back as zeros.
    std::vector<Byte> gap(4);
    ASSERT_TRUE(dev.value()->read(0, std::span<Byte>(gap)).ok());
    EXPECT_EQ(gap, (std::vector<Byte>{0, 0, 0, 0}));
  }
}

TEST_F(FileBlockDeviceTest, ReadPastEndFails) {
  auto dev = FileBlockDevice::open(path_);
  ASSERT_TRUE(dev.ok());
  std::vector<Byte> out(1);
  EXPECT_FALSE(dev.value()->read(0, std::span<Byte>(out)).ok());
}

TEST_F(FileBlockDeviceTest, ResizeSetsSize) {
  auto dev = FileBlockDevice::open(path_);
  ASSERT_TRUE(dev.ok());
  ASSERT_TRUE(dev.value()->resize(1024).ok());
  EXPECT_EQ(dev.value()->size(), 1024u);
  std::vector<Byte> out(1024);
  EXPECT_TRUE(dev.value()->read(0, std::span<Byte>(out)).ok());
}

TEST_F(FileBlockDeviceTest, OpenDirectoryPathFails) {
  auto dev = FileBlockDevice::open(std::filesystem::temp_directory_path());
  ASSERT_FALSE(dev.ok());
  EXPECT_EQ(dev.error().code, Errc::kIoError);
}

TEST_F(FileBlockDeviceTest, OpenInMissingDirectoryFails) {
  auto dev = FileBlockDevice::open(
      std::filesystem::temp_directory_path() / "no_such_dir" / "dev.bin");
  ASSERT_FALSE(dev.ok());
  EXPECT_EQ(dev.error().code, Errc::kIoError);
}

TEST_F(FileBlockDeviceTest, OpenOnReadOnlyFilesystemFails) {
  // /proc is read-only even for root, so file creation must fail with a
  // Status — not a crash, not a silent zero-byte device.
  if (!std::filesystem::is_directory("/proc")) {
    GTEST_SKIP() << "/proc not available";
  }
  auto dev = FileBlockDevice::open("/proc/debar_fbd_negative_test.bin");
  ASSERT_FALSE(dev.ok());
  EXPECT_EQ(dev.error().code, Errc::kIoError);
}

TEST_F(FileBlockDeviceTest, OpenOnCharDeviceFails) {
  // Char devices have no file size; open must reject them gracefully.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full not available";
  }
  auto dev = FileBlockDevice::open("/dev/full");
  ASSERT_FALSE(dev.ok());
  EXPECT_EQ(dev.error().code, Errc::kIoError);
}

TEST_F(FileBlockDeviceTest, ResizeFailsAfterBackingFileRemoved) {
  auto dev = FileBlockDevice::open(path_);
  ASSERT_TRUE(dev.ok());
  const std::vector<Byte> data(64, Byte{3});
  ASSERT_TRUE(dev.value()->write(0, ByteSpan(data.data(), data.size())).ok());

  std::filesystem::remove(path_);
  const Status s = dev.value()->resize(4096);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::kIoError);
  EXPECT_EQ(dev.value()->size(), 64u);  // size unchanged on failure
}

TEST_F(FileBlockDeviceTest, ShortReadAfterExternalTruncationFails) {
  auto dev = FileBlockDevice::open(path_);
  ASSERT_TRUE(dev.ok());
  const std::vector<Byte> data(100, Byte{7});
  ASSERT_TRUE(dev.value()->write(0, ByteSpan(data.data(), data.size())).ok());

  // Truncate behind the device's back: its cached size_ still says 100,
  // so the read passes the bounds check and must fail at the stream.
  std::filesystem::resize_file(path_, 10);
  std::vector<Byte> out(100);
  const Status s = dev.value()->read(0, std::span<Byte>(out));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), Errc::kIoError);
}

TEST_F(FileBlockDeviceTest, ConcurrentDisjointWritesAndReads) {
  // Positional I/O has no shared cursor: threads writing and reading
  // disjoint ranges at once must each see their own bytes, and the size
  // must end at the highest byte written.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kBlocks = 32;
  constexpr std::size_t kBlock = 4096;
  auto dev = FileBlockDevice::open(path_);
  ASSERT_TRUE(dev.ok());
  BlockDevice& device = *dev.value();
  const auto fill_of = [](std::size_t t, std::size_t b) {
    return static_cast<Byte>(1 + (t * kBlocks + b) % 250);
  };

  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Thread t owns blocks t, t + kThreads, ...; it writes them from the
      // top down, so most writes land past the current end of the file.
      for (std::size_t b = kBlocks; b-- > 0;) {
        const std::vector<Byte> block(kBlock, fill_of(t, b));
        const std::uint64_t offset = (b * kThreads + t) * kBlock;
        if (!device.write(offset, ByteSpan(block.data(), block.size())).ok()) {
          ++failures[t];
        }
        std::vector<Byte> back(kBlock);
        if (!device.read(offset, std::span<Byte>(back)).ok() ||
            back != block) {
          ++failures[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0);

  const std::uint64_t end = kThreads * kBlocks * kBlock;
  EXPECT_EQ(device.size(), end);
  EXPECT_EQ(std::filesystem::file_size(path_), end);
  std::vector<Byte> all(end);
  ASSERT_TRUE(device.read(0, std::span<Byte>(all)).ok());
  for (std::size_t b = 0; b < kBlocks; ++b) {
    for (std::size_t t = 0; t < kThreads; ++t) {
      const std::size_t at = (b * kThreads + t) * kBlock;
      EXPECT_EQ(all[at], fill_of(t, b));
      EXPECT_EQ(all[at + kBlock - 1], fill_of(t, b));
    }
  }
}

}  // namespace
}  // namespace debar::storage
