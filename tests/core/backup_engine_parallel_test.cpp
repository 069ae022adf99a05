// Parallel-vs-serial dedup-1 differential (DESIGN.md §5m). run_backup
// chunks and fingerprints files ahead on a worker pool; a serial twin
// chunks each file inline and makes the same FileStore calls. On fresh
// servers the two must leave identical version records, chunk-log bytes,
// stored bytes, index and repository images and modeled clocks — and,
// when the chunk-log device dies mid-job, the same error and the same
// half-written state. Written for TSan: the pool races by design.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <unordered_map>

#include "chunking/chunker_config.hpp"
#include "core/backup_engine.hpp"
#include "storage/faulty_block_device.hpp"
#include "workload/file_tree.hpp"

namespace debar::core {
namespace {

enum class Engine { kParallel, kSerial };

/// The engine before the look-ahead pool: chunk each file inline with
/// BackupEngine::chunk_run, then offer/receive its chunks in order.
Result<BackupRunStats> serial_backup(Director& director, std::uint64_t job,
                                     const Dataset& dataset, FileStore& store,
                                     chunking::Chunker& chunker,
                                     SimdPolicy simd, bool incremental) {
  BackupRunStats stats;
  stats.job_id = job;
  stats.version = director.next_version(job);
  std::unordered_map<std::string, const FileRecord*> previous_files;
  std::optional<JobVersionRecord> previous;
  if (incremental) previous = director.latest_version(job);
  if (previous.has_value()) {
    for (const FileRecord& f : previous->files) {
      previous_files.emplace(f.meta.path, &f);
    }
  }
  store.begin_job(job);
  for (const FileData& file : dataset.files) {
    const auto it = previous_files.find(file.path);
    if (it != previous_files.end() &&
        it->second->meta.size == file.content.size() &&
        it->second->meta.mtime == file.mtime) {
      store.record_unchanged_file(*it->second);
      ++stats.files;
      ++stats.unchanged_files;
      stats.logical_bytes += it->second->logical_bytes();
      continue;
    }
    store.begin_file({.path = file.path,
                      .size = file.content.size(),
                      .mtime = file.mtime,
                      .mode = 0644});
    const ByteSpan content(file.content.data(), file.content.size());
    const BackupEngine::ChunkRun run =
        BackupEngine::chunk_run(chunker, content, simd);
    for (std::size_t i = 0; i < run.bounds.size(); ++i) {
      const ByteSpan chunk =
          content.subspan(run.bounds[i].offset, run.bounds[i].size);
      ++stats.chunks;
      stats.logical_bytes += chunk.size();
      if (store.offer_fingerprint(run.fps[i],
                                  static_cast<std::uint32_t>(chunk.size()))) {
        if (Status s = store.receive_chunk(run.fps[i], chunk); !s.ok()) {
          return Error{s.code(), s.message()};
        }
        stats.transferred_bytes += chunk.size();
      }
    }
    store.end_file();
    ++stats.files;
  }
  Result<JobVersionRecord> record = store.end_job();
  if (!record.ok()) return record.error();
  return stats;
}

/// One fresh single server whose chunk-log device the test can read and,
/// with `crash_after_ops`, kill at a fixed log op.
class Deployment {
 public:
  Deployment(Engine engine, std::optional<chunking::ChunkerConfig> chunking,
             std::uint64_t crash_after_ops = storage::kNoCrash)
      : engine_kind_(engine),
        injector_(std::make_shared<storage::FaultInjector>(
            storage::FaultConfig{.crash_after_ops = crash_after_ops})) {
    BackupServerConfig cfg;
    cfg.index_params = {.prefix_bits = 8, .blocks_per_bucket = 2};
    cfg.filter_params = {.hash_bits = 8, .capacity = 100000};
    cfg.chunk_store.siu_threshold = 1;
    cfg.log_device_factory = [this] {
      auto inner = std::make_unique<storage::MemBlockDevice>();
      log_ = inner.get();
      return std::make_unique<storage::FaultyBlockDevice>(std::move(inner),
                                                          injector_);
    };
    server_ = std::make_unique<BackupServer>(0, cfg, &repo_, &director_);
    job_ = director_.define_job("client", "tree");
    if (chunking.has_value()) {
      engine_ = std::make_unique<BackupEngine>("client", &director_,
                                               *chunking);
      twin_chunker_ = chunking::make_chunker(*chunking);
      simd_ = chunking->simd;
    } else {
      engine_ = std::make_unique<BackupEngine>("client", &director_);
      twin_chunker_ = std::make_unique<chunking::RabinChunker>();
    }
  }

  Result<BackupRunStats> backup(const Dataset& dataset, bool incremental) {
    if (engine_kind_ == Engine::kParallel) {
      return engine_->run_backup(job_, dataset, server_->file_store(),
                                 {.incremental = incremental});
    }
    return serial_backup(director_, job_, dataset, server_->file_store(),
                         *twin_chunker_, simd_, incremental);
  }

  [[nodiscard]] std::vector<Byte> log_image() const {
    const ByteSpan bytes = log_->contents();
    return {bytes.begin(), bytes.end()};
  }

  [[nodiscard]] std::vector<Byte> index_image() {
    const auto* mem = dynamic_cast<const storage::MemBlockDevice*>(
        &server_->chunk_store().index().device());
    EXPECT_NE(mem, nullptr);
    if (mem == nullptr) return {};
    const ByteSpan bytes = mem->contents();
    return {bytes.begin(), bytes.end()};
  }

  [[nodiscard]] std::vector<std::vector<Byte>> repository_images() {
    std::vector<std::vector<Byte>> images;
    for (const ContainerId id : repo_.container_ids()) {
      Result<storage::Container> c = repo_.read(id);
      EXPECT_TRUE(c.ok());
      if (c.ok()) images.push_back(c.value().serialize());
    }
    return images;
  }

  BackupServer& server() { return *server_; }
  Director& director() { return director_; }
  storage::ChunkRepository& repo() { return repo_; }
  std::uint64_t job() const { return job_; }
  const storage::FaultInjector& injector() const { return *injector_; }

 private:
  Engine engine_kind_;
  std::shared_ptr<storage::FaultInjector> injector_;
  storage::MemBlockDevice* log_ = nullptr;
  storage::ChunkRepository repo_{1};
  Director director_;
  std::unique_ptr<BackupServer> server_;
  std::uint64_t job_ = 0;
  std::unique_ptr<BackupEngine> engine_;
  std::unique_ptr<chunking::Chunker> twin_chunker_;
  SimdPolicy simd_ = SimdPolicy::kAuto;
};

struct Generation {
  Dataset data;
  bool incremental = false;
};

/// Everything a backup sequence leaves behind, after each generation's
/// backup and dedup-2 and at the end.
struct Snapshot {
  std::vector<BackupRunStats> stats;
  std::vector<std::optional<JobVersionRecord>> records;
  std::vector<std::vector<Byte>> logs;
  std::vector<std::uint64_t> stored;
  std::vector<Byte> index_image;
  std::vector<std::vector<Byte>> repository;
  double log_seconds = 0;
  double index_seconds = 0;
  double nic_seconds = 0;
};

Snapshot run(Engine engine, const std::vector<Generation>& generations,
             std::optional<chunking::ChunkerConfig> chunking = {}) {
  Deployment d(engine, chunking);
  Snapshot snap;
  for (const Generation& g : generations) {
    Result<BackupRunStats> stats = d.backup(g.data, g.incremental);
    EXPECT_TRUE(stats.ok()) << stats.error().to_string();
    if (!stats.ok()) return snap;
    snap.stats.push_back(stats.value());
    snap.records.push_back(d.director().latest_version(d.job()));
    snap.logs.push_back(d.log_image());
    const Result<Dedup2Result> round = d.server().run_dedup2(true);
    EXPECT_TRUE(round.ok()) << round.error().to_string();
    snap.stored.push_back(d.repo().stored_bytes());
  }
  snap.index_image = d.index_image();
  snap.repository = d.repository_images();
  const ServerClocks clocks = d.server().clocks();
  snap.log_seconds = clocks.log_disk;
  snap.index_seconds = clocks.index_disk;
  snap.nic_seconds = clocks.nic;
  return snap;
}

void expect_identical(const Snapshot& parallel, const Snapshot& serial) {
  EXPECT_EQ(parallel.stats, serial.stats);
  EXPECT_EQ(parallel.records, serial.records);
  EXPECT_EQ(parallel.logs, serial.logs);
  EXPECT_EQ(parallel.stored, serial.stored);
  EXPECT_EQ(parallel.index_image, serial.index_image);
  EXPECT_EQ(parallel.repository, serial.repository);
  EXPECT_EQ(parallel.log_seconds, serial.log_seconds);
  EXPECT_EQ(parallel.index_seconds, serial.index_seconds);
  EXPECT_EQ(parallel.nic_seconds, serial.nic_seconds);
}

void expect_twins(const std::vector<Generation>& generations,
                  std::optional<chunking::ChunkerConfig> chunking = {}) {
  const Snapshot parallel = run(Engine::kParallel, generations, chunking);
  const Snapshot serial = run(Engine::kSerial, generations, chunking);
  ASSERT_EQ(parallel.stats.size(), generations.size());
  ASSERT_EQ(serial.stats.size(), generations.size());
  expect_identical(parallel, serial);
}

Dataset tree(std::uint64_t seed) {
  return workload::make_dataset(
      {.files = 40, .mean_file_bytes = 24 * KiB, .seed = seed});
}

TEST(BackupEngineParallelTest, FullBackupsMatchSerialEngine) {
  const Dataset v1 = tree(1301);
  const Dataset v2 = workload::mutate_dataset(v1, {.seed = 1302});
  expect_twins({{v1, false}, {v2, false}, {v2, false}});
}

TEST(BackupEngineParallelTest, IncrementalBackupsMatchSerialEngine) {
  // v2 mixes unchanged and changed files; v2 again is all unchanged, so
  // nothing is chunked at all.
  const Dataset v1 = tree(1311);
  const Dataset v2 = workload::mutate_dataset(
      v1, {.seed = 1312, .touch_fraction = 0.4, .churn_fraction = 0.1});
  expect_twins({{v1, true}, {v2, true}, {v2, true}});
}

TEST(BackupEngineParallelTest, EmptyFilesAndEmptyDatasetMatchSerialEngine) {
  Dataset mixed = tree(1321);
  for (std::size_t i = 0; i < mixed.files.size(); i += 3) {
    mixed.files[i].content.clear();
  }
  Dataset all_empty;
  for (int i = 0; i < 5; ++i) {
    all_empty.files.push_back(
        {.path = "empty-" + std::to_string(i), .content = {}});
  }
  expect_twins({{Dataset{}, false},
                {mixed, false},
                {all_empty, false},
                {Dataset{}, true},
                {mixed, true}});
}

TEST(BackupEngineParallelTest, GearEngineMatchesSerialEngine) {
  const Dataset v1 = tree(1331);
  const Dataset v2 = workload::mutate_dataset(v1, {.seed = 1332});
  expect_twins({{v1, false}, {v2, true}},
               chunking::ChunkerConfig{.algo = chunking::ChunkAlgo::kGear});
}

TEST(BackupEngineParallelTest, ChunkLogFailureMatchesSerialEngine) {
  auto data = std::make_unique<Dataset>(tree(1341));

  // Count the log ops of a clean backup, then crash halfway through.
  std::uint64_t clean_ops = 0;
  {
    Deployment clean(Engine::kSerial, std::nullopt);
    const std::uint64_t before = clean.injector().op_count();
    ASSERT_TRUE(clean.backup(*data, false).ok());
    clean_ops = clean.injector().op_count() - before;
  }
  ASSERT_GT(clean_ops, 20u);

  Deployment serial(Engine::kSerial, std::nullopt, clean_ops / 2);
  Deployment parallel(Engine::kParallel, std::nullopt, clean_ops / 2);
  const Result<BackupRunStats> want = serial.backup(*data, false);
  const Result<BackupRunStats> got = parallel.backup(*data, false);
  // The dataset dies as soon as the call returns: a chunking task still
  // reading it would be a use-after-free under ASan.
  data.reset();

  ASSERT_FALSE(want.ok());
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.error().code, want.error().code);
  EXPECT_EQ(got.error().message, want.error().message);
  EXPECT_EQ(parallel.log_image(), serial.log_image());
  EXPECT_EQ(parallel.injector().op_count(), serial.injector().op_count());
  EXPECT_FALSE(parallel.director().latest_version(parallel.job()).has_value());
  EXPECT_FALSE(serial.director().latest_version(serial.job()).has_value());
  EXPECT_EQ(parallel.server().file_store().undetermined_count(),
            serial.server().file_store().undetermined_count());
  const FileStoreStats p = parallel.server().file_store().stats();
  const FileStoreStats s = serial.server().file_store().stats();
  EXPECT_EQ(p.log_records, s.log_records);
  EXPECT_EQ(p.transferred_bytes, s.transferred_bytes);
  EXPECT_EQ(p.suppressed_bytes, s.suppressed_bytes);
  EXPECT_EQ(p.files_received, s.files_received);
}

}  // namespace
}  // namespace debar::core
