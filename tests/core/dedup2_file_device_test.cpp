// File-backed parallel dedup-2 differential. A server whose chunk log,
// index devices and repository node are FileBlockDevices runs backup +
// forced dedup-2 + restore at 1 and 4 dedup-2 threads; a MemBlockDevice
// server running serially is the reference. Index image, repository node
// bytes, director records and modeled clocks must match it exactly.
// Written for TSan: the sharded SIL and pipelined SIU make positional
// file I/O from several pool threads with no device lock.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>

#include "core/backup_engine.hpp"
#include "storage/block_device.hpp"
#include "workload/file_tree.hpp"

namespace debar::core {
namespace {

namespace fs = std::filesystem;

/// Every byte of a device, read with its timing model detached so the
/// snapshot leaves the modeled clocks alone.
std::vector<Byte> image_of(storage::BlockDevice& device) {
  sim::DiskModel* model = device.model();
  device.attach_model(nullptr);
  std::vector<Byte> bytes(device.size());
  EXPECT_TRUE(device.read(0, std::span<Byte>(bytes)).ok());
  device.attach_model(model);
  return bytes;
}

/// What a run leaves behind.
struct Outcome {
  std::vector<std::optional<JobVersionRecord>> records;
  std::vector<Byte> index_image;
  std::vector<Byte> repository_image;
  double nic_seconds = 0;
  double log_seconds = 0;
  double index_seconds = 0;
};

/// One backup server; with `dir` set, every device is a file under it.
class Deployment {
 public:
  Deployment(std::optional<fs::path> dir, std::size_t threads)
      : dir_(std::move(dir)) {
    std::vector<std::unique_ptr<storage::BlockDevice>> nodes;
    nodes.push_back(make_device("repo"));
    repository_ = std::make_unique<storage::ChunkRepository>(std::move(nodes));

    BackupServerConfig cfg;
    // A small index scales its capacity during the run, minting fresh
    // devices; small containers seal often.
    cfg.index_params = {.prefix_bits = 4, .blocks_per_bucket = 1};
    cfg.filter_params = {.hash_bits = 8, .capacity = 100000};
    cfg.container_capacity = 256 * KiB;
    cfg.chunk_store.io_buckets = 2;
    cfg.chunk_store.siu_threshold = 1;
    cfg.chunk_store.dedup2.threads = threads;
    cfg.chunk_store.dedup2.pipeline_depth = 2;
    cfg.log_device_factory = [this] { return make_device("log"); };
    cfg.index_device_factory = [this] { return make_device("index"); };
    server_ = std::make_unique<BackupServer>(0, cfg, repository_.get(),
                                             &director_);
    job_ = director_.define_job("client", "tree");
  }

  Outcome run(const std::vector<Dataset>& generations) {
    Outcome out;
    BackupEngine engine("client", &director_);
    for (const Dataset& data : generations) {
      const Result<BackupRunStats> stats =
          engine.run_backup(job_, data, server_->file_store());
      EXPECT_TRUE(stats.ok()) << stats.error().to_string();
      if (!stats.ok()) return out;
      const Result<Dedup2Result> round = server_->run_dedup2(true);
      EXPECT_TRUE(round.ok()) << round.error().to_string();
      if (!round.ok()) return out;
      out.records.push_back(director_.latest_version(job_));

      const Result<Dataset> restored =
          engine.restore(job_, stats.value().version, *server_);
      EXPECT_TRUE(restored.ok()) << restored.error().to_string();
      if (!restored.ok()) return out;
      EXPECT_EQ(restored.value().files.size(), data.files.size());
      for (std::size_t i = 0; i < data.files.size() &&
                              i < restored.value().files.size();
           ++i) {
        EXPECT_EQ(restored.value().files[i].path, data.files[i].path);
        EXPECT_TRUE(restored.value().files[i].content == data.files[i].content)
            << data.files[i].path;
      }
    }
    const ServerClocks clocks = server_->clocks();
    out.nic_seconds = clocks.nic;
    out.log_seconds = clocks.log_disk;
    out.index_seconds = clocks.index_disk;
    out.index_image = image_of(server_->chunk_store().index().device());
    out.repository_image = image_of(*repo_device_);
    return out;
  }

 private:
  std::unique_ptr<storage::BlockDevice> make_device(const std::string& stem) {
    std::unique_ptr<storage::BlockDevice> device;
    if (dir_.has_value()) {
      auto opened = storage::FileBlockDevice::open(
          *dir_ / (stem + "-" + std::to_string(minted_++)));
      EXPECT_TRUE(opened.ok()) << opened.error().to_string();
      if (opened.ok()) device = std::move(opened).value();
    }
    if (device == nullptr) device = std::make_unique<storage::MemBlockDevice>();
    if (stem == "repo") repo_device_ = device.get();
    return device;
  }

  std::optional<fs::path> dir_;
  int minted_ = 0;
  storage::BlockDevice* repo_device_ = nullptr;
  Director director_;
  std::unique_ptr<storage::ChunkRepository> repository_;
  std::unique_ptr<BackupServer> server_;
  std::uint64_t job_ = 0;
};

class Dedup2FileDeviceTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("debar_d2file_" + std::to_string(::getpid()) + "_" +
            std::to_string(GetParam()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_P(Dedup2FileDeviceTest, MatchesSerialMemoryRun) {
  // ~3 MiB per generation: the chunk-log replay crosses window edges.
  const Dataset v1 = workload::make_dataset(
      {.files = 48, .mean_file_bytes = 64 * KiB, .seed = 1501});
  const Dataset v2 = workload::mutate_dataset(v1, {.seed = 1502});
  const std::vector<Dataset> generations = {v1, v2, v2};

  const Outcome want = Deployment(std::nullopt, 1).run(generations);
  const Outcome got = Deployment(dir_, GetParam()).run(generations);
  ASSERT_EQ(want.records.size(), generations.size());
  ASSERT_EQ(got.records.size(), generations.size());
  EXPECT_EQ(got.records, want.records);
  // The index outgrew its 16 one-block buckets at least once.
  EXPECT_GT(want.index_image.size(), 16 * kIndexBlockSize);
  EXPECT_TRUE(got.index_image == want.index_image);
  EXPECT_FALSE(want.repository_image.empty());
  EXPECT_TRUE(got.repository_image == want.repository_image);
  EXPECT_EQ(got.nic_seconds, want.nic_seconds);
  EXPECT_EQ(got.log_seconds, want.log_seconds);
  EXPECT_EQ(got.index_seconds, want.index_seconds);
}

INSTANTIATE_TEST_SUITE_P(Threads, Dedup2FileDeviceTest,
                         ::testing::Values(std::size_t{1}, std::size_t{4}),
                         [](const auto& info) {
                           return "t" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace debar::core
