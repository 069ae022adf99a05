// Planned restore (DESIGN.md §5o) against a per-chunk read_chunk() loop.
// Twin servers on file devices back up the same aged generations; one
// restores through BackupEngine's RestoreSink path, whose walk over the
// recipe serves up to ChunkStore::kReadAheadDepth LPC misses ahead of the
// sink, their payloads read on the dedup-2 pool, and reads only the
// chunks the recipe still needs; the other restores chunk by chunk, each
// miss reading its container whole. Bytes, LPC counters, modeled clocks
// and the index device reads must match exactly, also with an LPC smaller
// than the depth, where the walk evicts containers the sink still views;
// the planned twin must read fewer repository bytes, and the failures
// must match too: a read-ahead whose device read fails, a fault on a
// later miss's container while earlier reads are in flight, a later
// chunk that cannot be located, and a sink that stops the restore while
// reads are in flight. Concurrent repository reads stay within the depth,
// and so do the spare frames the store keeps. A container read in part
// completes, with one device read, on the first hit on a chunk that was
// not read: after a failed completion, after its container was removed,
// and from pooled frames full of stale bytes. Written for TSan: the pool
// reads the repository device while the caller walks and serves hits.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

#include "common/sha1.hpp"
#include "core/backup_engine.hpp"
#include "storage/block_device.hpp"
#include "storage/faulty_block_device.hpp"
#include "workload/file_tree.hpp"

namespace debar::core {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kLpcContainers = 4;

/// One device read, as the devices under a deployment saw it.
struct DeviceRead {
  std::string device;
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  bool operator==(const DeviceRead&) const = default;
};

/// Every device read of a deployment, in order, and which of them ran off
/// the thread that drives the deployment.
struct ReadLog {
  std::mutex mutex;
  std::vector<DeviceRead> reads;
  std::size_t off_caller = 0;
  std::thread::id caller = std::this_thread::get_id();
};

/// Records each read into a ReadLog; reads made off the driving thread
/// can be slowed down, reads of one byte range can be made to fail, and
/// the reads inside this device are counted while they run.
class RecordingDevice final : public storage::BlockDevice {
 public:
  RecordingDevice(std::string name, std::unique_ptr<storage::BlockDevice> inner,
                  ReadLog& log)
      : name_(std::move(name)), inner_(std::move(inner)), log_(log) {}

  Status read(std::uint64_t offset, std::span<Byte> out) override {
    const bool off_caller = std::this_thread::get_id() != log_.caller;
    {
      std::lock_guard lock(log_.mutex);
      log_.reads.push_back({name_, offset, out.size()});
      if (off_caller) ++log_.off_caller;
    }
    const int running = in_flight.fetch_add(1) + 1;
    for (int peak = peak_in_flight.load();
         running > peak && !peak_in_flight.compare_exchange_weak(peak, running);) {
    }
    Status s = Status::Ok();
    if (offset >= fail_begin.load() && offset < fail_end.load()) {
      faulted = true;
      s = {Errc::kIoError, "read of the failing range"};
    } else {
      if (off_caller) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms.load()));
      }
      s = inner_->read(offset, out);
      if (s.ok() && off_caller && faulted.load()) {
        std::lock_guard lock(log_.mutex);
        read_after_fault.insert(std::this_thread::get_id());
      }
    }
    in_flight.fetch_sub(1);
    if (s.ok()) account(offset, out.size());
    return s;
  }

  /// Fail every later read that starts in [begin, end).
  void fail_reads_starting_in(std::uint64_t begin, std::uint64_t end) {
    fail_begin = begin;
    fail_end = end;
  }
  Status write(std::uint64_t offset, ByteSpan data) override {
    Status s = inner_->write(offset, data);
    if (s.ok()) account(offset, data.size());
    return s;
  }
  std::uint64_t size() const override { return inner_->size(); }
  Status resize(std::uint64_t bytes) override { return inner_->resize(bytes); }

  std::atomic<int> delay_ms{0};
  std::atomic<int> in_flight{0};
  std::atomic<int> peak_in_flight{0};
  /// Whether a read of the failing range came, and the threads off the
  /// driving one that finished a read after that: each was reading when
  /// the fault came, or started after it.
  std::atomic<bool> faulted{false};
  std::set<std::thread::id> read_after_fault;  // guarded by the log's mutex
  std::atomic<std::uint64_t> fail_begin{0};
  std::atomic<std::uint64_t> fail_end{0};

 private:
  std::string name_;
  std::unique_ptr<storage::BlockDevice> inner_;
  ReadLog& log_;
};

/// Collects what a restore hands its sink; can fail at a given chunk and
/// run a hook on every chunk it accepts.
class CollectingSink final : public RestoreSink {
 public:
  Status begin_file(const FileRecord& file) override {
    files.push_back({file.meta.path, {}});
    return Status::Ok();
  }
  Status chunk(ByteSpan data) override {
    if (chunks == fail_at) return {Errc::kIoError, "sink refused the chunk"};
    ++chunks;
    files.back().second.insert(files.back().second.end(), data.begin(),
                               data.end());
    if (on_chunk) on_chunk(chunks);
    return Status::Ok();
  }
  Status end_file() override { return Status::Ok(); }

  std::vector<std::pair<std::string, std::vector<Byte>>> files;
  std::size_t chunks = 0;
  std::size_t fail_at = ~std::size_t{0};
  std::function<void(std::size_t)> on_chunk;
};

/// A restore's observable outcome on one deployment.
struct Outcome {
  Errc code = Errc::kOk;
  std::vector<std::pair<std::string, std::vector<Byte>>> files;
  std::size_t chunks = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<DeviceRead> reads;
  std::size_t reads_off_caller = 0;  // made on another thread
};

/// The reads of `reads` made on devices other than the repository's.
std::vector<DeviceRead> index_reads(const std::vector<DeviceRead>& reads) {
  std::vector<DeviceRead> out;
  for (const DeviceRead& r : reads) {
    if (r.device != "repo") out.push_back(r);
  }
  return out;
}

/// Reads and bytes of `reads` made on the repository's device.
std::pair<std::size_t, std::uint64_t> repo_reads(
    const std::vector<DeviceRead>& reads) {
  std::pair<std::size_t, std::uint64_t> out{0, 0};
  for (const DeviceRead& r : reads) {
    if (r.device != "repo") continue;
    ++out.first;
    out.second += r.bytes;
  }
  return out;
}

/// The LPC and the dedup-2 pool of a deployment.
struct Shape {
  std::size_t lpc_containers = kLpcContainers;
  std::size_t threads = 2;
};

/// A file-backed server aged by `generations` backups with forced
/// dedup-2. Its repository device fails reads once `injector` is armed.
class Deployment {
 public:
  Deployment(const fs::path& dir, const std::vector<Dataset>& generations,
             Shape shape = {})
      : dir_(dir) {
    fs::create_directories(dir_);
    injector_ = std::make_shared<storage::FaultInjector>(
        storage::FaultConfig{.seed = 5});
    auto repo_device = std::make_unique<RecordingDevice>(
        "repo",
        std::make_unique<storage::FaultyBlockDevice>(open_file("repo"),
                                                     injector_),
        log_);
    repo_device_ = repo_device.get();
    std::vector<std::unique_ptr<storage::BlockDevice>> nodes;
    nodes.push_back(std::move(repo_device));
    repository_ = std::make_unique<storage::ChunkRepository>(std::move(nodes));

    BackupServerConfig cfg;
    cfg.index_params = {.prefix_bits = 6, .blocks_per_bucket = 4};
    cfg.container_capacity = 256 * KiB;
    cfg.chunk_store.siu_threshold = 1;
    cfg.chunk_store.lpc_containers = shape.lpc_containers;
    cfg.chunk_store.dedup2.threads = shape.threads;
    cfg.log_device_factory = [this] { return mint("log"); };
    cfg.index_device_factory = [this] { return mint("index"); };
    server_ = std::make_unique<BackupServer>(0, cfg, repository_.get(),
                                             &director_);
    job_ = director_.define_job("client", "tree");
    BackupEngine engine("client", &director_);
    for (const Dataset& data : generations) {
      EXPECT_TRUE(engine.run_backup(job_, data, server_->file_store()).ok());
      EXPECT_TRUE(server_->run_dedup2(true).ok());
    }
  }

  ~Deployment() {
    server_.reset();
    repository_.reset();
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::vector<FileRecord> files_of(std::uint32_t version) {
    return director_.version(job_, version).value().files;
  }

  /// Restore `version` through BackupEngine's planned path into `sink`.
  Outcome planned(std::uint32_t version, CollectingSink& sink) {
    BackupEngine engine("client", &director_);
    return observe(sink, [&] {
      return engine.restore(job_, version, *server_, sink);
    });
  }

  /// Restore `files` through ChunkStore::restore straight into `sink`.
  Outcome planned(std::span<const FileRecord> files, CollectingSink& sink) {
    return observe(sink, [&] {
      return server_->chunk_store().restore(files, sink);
    });
  }

  /// The reference: one read_chunk() per chunk, as restores were made
  /// before the planned path, with the size check and NIC transfer the
  /// engine makes. `nic` off restores raw chunks, as ChunkStore does.
  Outcome per_chunk(std::span<const FileRecord> files, CollectingSink& sink,
                    bool nic = true) {
    return observe(sink, [&]() -> Status {
      for (const FileRecord& file : files) {
        if (Status s = sink.begin_file(file); !s.ok()) return s;
        for (std::size_t i = 0; i < file.chunk_fps.size(); ++i) {
          const std::uint64_t misses = server_->chunk_store().lpc().misses();
          std::size_t reads = 0;
          {
            std::lock_guard lock(log_.mutex);
            reads = log_.reads.size();
          }
          Result<std::vector<Byte>> chunk =
              server_->chunk_store().read_chunk(file.chunk_fps[i]);
          if (server_->chunk_store().lpc().misses() != misses) {
            miss_files.push_back(&file - files.data());
            // A miss reads its container whole with one repository read.
            std::lock_guard lock(log_.mutex);
            for (std::size_t k = reads; k < log_.reads.size(); ++k) {
              if (log_.reads[k].device == "repo") {
                miss_reads.push_back(log_.reads[k]);
              }
            }
          }
          if (!chunk.ok()) return chunk.status();
          if (nic) {
            if (chunk.value().size() != file.chunk_sizes[i]) {
              return {Errc::kCorrupt, "chunk size"};
            }
            server_->nic().transfer(chunk.value().size());
          }
          if (Status s = sink.chunk(ByteSpan(chunk.value().data(),
                                             chunk.value().size()));
              !s.ok()) {
            return s;
          }
        }
        if (Status s = sink.end_file(); !s.ok()) return s;
      }
      return Status::Ok();
    });
  }

  [[nodiscard]] BackupServer& server() { return *server_; }
  [[nodiscard]] storage::ChunkRepository& repository() { return *repository_; }
  [[nodiscard]] storage::FaultInjector& injector() { return *injector_; }
  [[nodiscard]] RecordingDevice& repo_device() { return *repo_device_; }

  /// The file index of every per-chunk miss, in order.
  std::vector<std::size_t> miss_files;
  /// The repository read of every per-chunk miss, in order: the image of
  /// its container.
  std::vector<DeviceRead> miss_reads;

  /// What `run` (returning a Status) does: its code, what `sink` holds,
  /// the LPC hits and misses and the device reads it makes.
  template <class Run>
  Outcome observe(CollectingSink& sink, Run run) {
    const cache::LpcCache& lpc = server_->chunk_store().lpc();
    const std::uint64_t hits = lpc.hits();
    const std::uint64_t misses = lpc.misses();
    std::size_t first_read = 0;
    std::size_t off_caller = 0;
    {
      std::lock_guard lock(log_.mutex);
      first_read = log_.reads.size();
      off_caller = log_.off_caller;
    }
    Outcome out;
    out.code = run().code();
    out.files = sink.files;
    out.chunks = sink.chunks;
    out.hits = lpc.hits() - hits;
    out.misses = lpc.misses() - misses;
    std::lock_guard lock(log_.mutex);
    out.reads.assign(log_.reads.begin() + static_cast<std::ptrdiff_t>(first_read),
                     log_.reads.end());
    out.reads_off_caller = log_.off_caller - off_caller;
    return out;
  }

 private:
  std::unique_ptr<storage::BlockDevice> open_file(const std::string& name) {
    auto opened = storage::FileBlockDevice::open(dir_ / name);
    EXPECT_TRUE(opened.ok()) << opened.error().to_string();
    return std::move(opened).value();
  }

  std::unique_ptr<storage::BlockDevice> mint(const std::string& stem) {
    const std::string name = stem + "-" + std::to_string(minted_++);
    return std::make_unique<RecordingDevice>(name, open_file(name), log_);
  }

  fs::path dir_;
  int minted_ = 0;
  ReadLog log_;
  std::shared_ptr<storage::FaultInjector> injector_;
  RecordingDevice* repo_device_ = nullptr;
  Director director_;
  std::unique_ptr<storage::ChunkRepository> repository_;
  std::unique_ptr<BackupServer> server_;
  std::uint64_t job_ = 0;
};

/// Aged generations: a base tree and four edited versions, each with an
/// empty file among the others, then a version holding only that file.
std::vector<Dataset> aged_generations() {
  std::vector<Dataset> out;
  Dataset v = workload::make_dataset(
      {.files = 48, .mean_file_bytes = 32 * KiB, .seed = 1701});
  const auto with_empty = [](Dataset d) {
    d.files.insert(d.files.begin() + static_cast<std::ptrdiff_t>(d.files.size() / 2),
                   FileData{.path = "empty", .content = {}, .mtime = 1});
    return d;
  };
  out.push_back(with_empty(v));
  for (std::uint64_t g = 0; g < 4; ++g) {
    v = workload::mutate_dataset(v, {.seed = 1702 + g});
    out.push_back(with_empty(v));
  }
  Dataset zero;
  zero.files.push_back(FileData{.path = "empty", .content = {}, .mtime = 1});
  out.push_back(zero);
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class PlannedRestoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("debar_planned_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(base_);
    generations_ = aged_generations();
  }
  void TearDown() override { fs::remove_all(base_); }

  fs::path base_;
  std::vector<Dataset> generations_;
};

/// Restore newest, oldest, the zero-chunk version and newest again on
/// twins of `shape`, one through BackupEngine's planned path and one per
/// chunk, and check that they agree exactly.
void expect_twins_agree(const fs::path& base,
                        const std::vector<Dataset>& generations, Shape shape) {
  Deployment planned(base / "planned", generations, shape);
  Deployment reference(base / "reference", generations, shape);
  const std::uint32_t newest = 5;
  const std::uint32_t zero = 6;
  std::size_t read_ahead = 0;
  // Newest first (cold LPC), then the oldest, the zero-chunk version and
  // the newest again, so LPC contents and the spare frames carry over.
  for (const std::uint32_t version : {newest, 1U, zero, newest}) {
    CollectingSink got_sink;
    CollectingSink want_sink;
    const std::vector<FileRecord> files = reference.files_of(version);
    reference.miss_files.clear();
    const Outcome got = planned.planned(version, got_sink);
    const Outcome want = reference.per_chunk(files, want_sink);
    ASSERT_EQ(got.code, Errc::kOk);
    ASSERT_EQ(want.code, Errc::kOk);

    const Dataset& data = generations[version - 1];
    ASSERT_EQ(got.files.size(), data.files.size());
    for (std::size_t f = 0; f < data.files.size(); ++f) {
      EXPECT_EQ(got.files[f].first, data.files[f].path);
      EXPECT_TRUE(got.files[f].second == data.files[f].content)
          << data.files[f].path;
    }
    EXPECT_TRUE(got.files == want.files);
    EXPECT_EQ(got.hits, want.hits);
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_TRUE(index_reads(got.reads) == index_reads(want.reads))
        << "index read sequence differs";
    // A miss reads only what the rest of the recipe needs of a container
    // (and the model is still charged for all of it; see the clocks).
    if (want.misses > 0) {
      EXPECT_LT(repo_reads(got.reads).second, repo_reads(want.reads).second);
    }
    read_ahead += got.reads_off_caller;
    EXPECT_EQ(want.reads_off_caller, 0U);

    const ServerClocks a = planned.server().clocks();
    const ServerClocks b = reference.server().clocks();
    EXPECT_EQ(bits(a.nic), bits(b.nic));
    EXPECT_EQ(bits(a.log_disk), bits(b.log_disk));
    EXPECT_EQ(bits(a.index_disk), bits(b.index_disk));
    EXPECT_EQ(bits(planned.repository().total_node_seconds()),
              bits(reference.repository().total_node_seconds()));
    EXPECT_EQ(bits(planned.repository().max_node_seconds()),
              bits(reference.repository().max_node_seconds()));

    if (version == newest) {
      // The version spans more than the LPC, and some miss comes in a
      // later file than the one before it.
      EXPECT_GT(want.misses, shape.lpc_containers);
      bool crosses = false;
      for (std::size_t k = 1; k < reference.miss_files.size(); ++k) {
        crosses |= reference.miss_files[k] != reference.miss_files[k - 1];
      }
      EXPECT_TRUE(crosses);
    }
    if (version == zero) {
      EXPECT_EQ(got.chunks, 0U);
      EXPECT_EQ(got.files.size(), 1U);
    }
  }
  // The planned twin read ahead on the pool; the reference never did.
  EXPECT_GT(read_ahead, 0U);
}

TEST_F(PlannedRestoreTest, MatchesPerChunkRestoreExactly) {
  expect_twins_agree(base_, generations_, {});
}

TEST_F(PlannedRestoreTest, MatchesPerChunkRestoreWithAnLpcBelowTheDepth) {
  // The walk's inserts evict containers that the sink, up to
  // kReadAheadDepth misses behind, still views.
  for (const std::size_t lpc : {1U, 2U}) {
    static_assert(ChunkStore::kReadAheadDepth > 2);
    SCOPED_TRACE(lpc);
    expect_twins_agree(base_ / std::to_string(lpc), generations_,
                       {.lpc_containers = lpc});
  }
}

TEST_F(PlannedRestoreTest, FailedReadAheadFailsAsThePerChunkReadDoes) {
  Deployment planned(base_ / "planned", generations_);
  Deployment reference(base_ / "reference", generations_);
  // Once the first chunk (the first miss) is in, every repository read
  // fails: the next miss's container read. A fresh store has no spare
  // frame, so it serves its first miss at the sink and walks ahead only
  // after that chunk is in; the first miss's payloads were read on the
  // pool, and the walk's read of the second miss's header fails.
  const auto arm = [](Deployment& d) {
    return [&d](std::size_t chunks) {
      if (chunks == 1) d.injector().set_config({.read_error_rate = 1.0});
    };
  };
  CollectingSink got_sink;
  got_sink.on_chunk = arm(planned);
  CollectingSink want_sink;
  want_sink.on_chunk = arm(reference);
  const std::vector<FileRecord> files = reference.files_of(5);
  const Outcome got = planned.planned(5, got_sink);
  const Outcome want = reference.per_chunk(files, want_sink);

  EXPECT_EQ(want.code, Errc::kIoError);
  EXPECT_EQ(got.code, want.code);
  EXPECT_GT(want.chunks, 1U);  // hits came between the two misses
  EXPECT_EQ(got.chunks, want.chunks);
  EXPECT_TRUE(got.files == want.files);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_TRUE(index_reads(got.reads) == index_reads(want.reads));
  EXPECT_GT(got.reads_off_caller, 0U);
}

TEST_F(PlannedRestoreTest, FaultOnTheThirdMissWhileTwoReadsAreInFlight) {
  // Every deployment first restores the oldest version, so its store holds
  // its spare frames and the newest version's restore walks ahead from its
  // first chunk. The probe's per-chunk restore of the newest version finds
  // where the third miss's container lies.
  const Shape shape{.threads = 4};
  Deployment probe(base_ / "probe", generations_, shape);
  Deployment reference(base_ / "reference", generations_, shape);
  Deployment head(base_ / "head", generations_, shape);
  Deployment payload(base_ / "payload", generations_, shape);
  for (Deployment* d : {&probe, &reference, &head, &payload}) {
    CollectingSink sink;
    ASSERT_EQ(d->planned(1, sink).code, Errc::kOk);
    ASSERT_EQ(d->server().chunk_store().spare_frames(),
              ChunkStore::kReadAheadDepth);
  }
  const std::vector<FileRecord> files = reference.files_of(5);
  CollectingSink probe_sink;
  ASSERT_EQ(probe.per_chunk(files, probe_sink).code, Errc::kOk);
  ASSERT_GT(probe.miss_reads.size(), 3U);
  const DeviceRead third = probe.miss_reads[2];

  // The reference fails its third miss's whole read.
  reference.repo_device().fail_reads_starting_in(third.offset,
                                                 third.offset + third.bytes);
  reference.miss_files.clear();
  CollectingSink want_sink;
  const Outcome want = reference.per_chunk(files, want_sink);
  ASSERT_EQ(want.code, Errc::kIoError);
  EXPECT_EQ(reference.miss_files.size(), 3U);
  EXPECT_GT(want.chunks, 0U);

  // One planned twin fails the walk's read of that container's header,
  // the other only the pool's reads of its payloads; the pool is still
  // reading the first two misses' payloads, slowly, either way.
  head.repo_device().fail_reads_starting_in(third.offset,
                                            third.offset + third.bytes);
  payload.repo_device().fail_reads_starting_in(third.offset + 1,
                                               third.offset + third.bytes);
  for (Deployment* d : {&head, &payload}) {
    SCOPED_TRACE(d == &head ? "header" : "payload");
    d->repo_device().delay_ms = 50;
    CollectingSink got_sink;
    const Outcome got = d->planned(5, got_sink);
    EXPECT_EQ(got.code, want.code);
    EXPECT_EQ(got.chunks, want.chunks);
    EXPECT_TRUE(got.files == want.files);
    EXPECT_TRUE(d->repo_device().faulted.load());
    EXPECT_GE(d->repo_device().read_after_fault.size(), 2U);
    EXPECT_EQ(d->repo_device().in_flight.load(), 0);
  }
}

TEST_F(PlannedRestoreTest, ReadsInFlightStayWithinTheDepth) {
  // A pool wider than the depth: only the walk bounds the reads.
  Deployment d(base_ / "d", generations_, {.threads = 8});
  d.repo_device().delay_ms = 2;
  // The cold newest version: every read is a miss's, none a completion's.
  CollectingSink sink;
  ASSERT_EQ(d.planned(5, sink).code, Errc::kOk);
  const int peak = d.repo_device().peak_in_flight.load();
  EXPECT_GT(peak, 1);
  EXPECT_LE(peak, static_cast<int>(ChunkStore::kReadAheadDepth));
  EXPECT_LE(d.server().chunk_store().spare_frames(),
            ChunkStore::kReadAheadDepth);
  // The store keeps its spares between restores, and never more.
  for (const std::uint32_t version : {1U, 6U, 5U}) {
    CollectingSink again;
    ASSERT_EQ(d.planned(version, again).code, Errc::kOk);
    EXPECT_LE(d.server().chunk_store().spare_frames(),
              ChunkStore::kReadAheadDepth);
  }
}

TEST_F(PlannedRestoreTest, UnlocatableChunkFailsWhereThePerChunkLoopDoes) {
  Deployment planned(base_ / "planned", generations_);
  Deployment reference(base_ / "reference", generations_);
  // A chunk in a later file that no index part knows: the read-ahead
  // meets kNotFound when it locates it, and the restore must deliver
  // every chunk before it and then fail there.
  std::vector<FileRecord> files = reference.files_of(5);
  std::size_t before = 0;
  std::size_t f = files.size() * 3 / 4;
  for (std::size_t g = 0; g < f; ++g) before += files[g].chunk_fps.size();
  while (files[f].chunk_fps.size() < 2) before += files[f++].chunk_fps.size();
  files[f].chunk_fps[1] = Sha1::hash_counter(0xDEAD);
  before += 1;

  CollectingSink got_sink;
  CollectingSink want_sink;
  const Outcome got = planned.planned(files, got_sink);
  const Outcome want = reference.per_chunk(files, want_sink, /*nic=*/false);
  EXPECT_EQ(want.code, Errc::kNotFound);
  EXPECT_EQ(got.code, want.code);
  EXPECT_EQ(want.chunks, before);
  EXPECT_EQ(got.chunks, want.chunks);
  EXPECT_TRUE(got.files == want.files);
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_TRUE(index_reads(got.reads) == index_reads(want.reads));
  EXPECT_EQ(bits(planned.server().clocks().index_disk),
            bits(reference.server().clocks().index_disk));
}

TEST_F(PlannedRestoreTest, ReadInFlightIsAwaitedWhenTheSinkStops) {
  std::optional<Deployment> planned;
  planned.emplace(base_ / "planned", generations_);
  // The sink refuses the chunk after the first miss, while the next
  // misses' payloads are still being read (slowly) on the pool.
  planned->repo_device().delay_ms = 50;
  CollectingSink sink;
  sink.fail_at = 1;
  const Outcome got = planned->planned(5, sink);
  EXPECT_EQ(got.code, Errc::kIoError);
  EXPECT_EQ(got.chunks, 1U);
  EXPECT_GT(got.reads_off_caller, 0U);
  EXPECT_EQ(planned->repo_device().in_flight.load(), 0);
  // Tear the deployment down at once: a read still running would write
  // into a freed frame.
  planned.reset();
}

/// A one-file recipe of `fps`, sized from `whole`, the container holding
/// them all.
FileRecord recipe_of(const storage::Container& whole,
                     std::initializer_list<Fingerprint> fps) {
  FileRecord file;
  file.meta.path = "part";
  for (const Fingerprint& fp : fps) {
    file.chunk_fps.push_back(fp);
    file.chunk_sizes.push_back(
        static_cast<std::uint32_t>(whole.find(fp).value().size()));
  }
  return file;
}

std::vector<Byte> bytes_of(ByteSpan span) {
  return std::vector<Byte>(span.begin(), span.end());
}

/// A deployment whose LPC holds one container read in part: a restore of
/// the first chunk of the newest version read that chunk alone.
class PartlyReadTest : public PlannedRestoreTest {
 protected:
  void SetUp() override {
    PlannedRestoreTest::SetUp();
    d_.emplace(base_ / "d", generations_);
    for (const FileRecord& file : d_->files_of(5)) {
      if (!file.chunk_fps.empty()) {
        first_ = file.chunk_fps.front();
        break;
      }
    }
    const Result<ContainerId> cid = d_->server().chunk_store().locate(first_);
    ASSERT_TRUE(cid.ok());
    cid_ = cid.value();
    Result<storage::Container> whole = d_->repository().read(cid_);
    ASSERT_TRUE(whole.ok());
    whole_.emplace(std::move(whole).value());
    // Another chunk of the container, far from the first one, and not
    // another copy of it.
    const std::vector<storage::ChunkMeta>& metas = whole_->metadata();
    ASSERT_GT(metas.size(), 2U);
    other_ = metas.back().fp;
    ASSERT_NE(other_, first_);

    const FileRecord one = recipe_of(*whole_, {first_});
    CollectingSink sink;
    const Outcome read = d_->planned(std::span(&one, 1), sink);
    ASSERT_EQ(read.code, Errc::kOk);
    ASSERT_EQ(read.misses, 1U);
    ASSERT_TRUE(d_->server().chunk_store().lpc().contains_container(cid_));
    // Its header and metadata, then the one chunk: far less than the image.
    ASSERT_EQ(repo_reads(read.reads).first, 2U);
    ASSERT_LT(repo_reads(read.reads).second, whole_->capacity() / 4);
  }
  void TearDown() override {
    whole_.reset();
    d_.reset();
    PlannedRestoreTest::TearDown();
  }

  std::optional<Deployment> d_;
  Fingerprint first_;
  Fingerprint other_;
  ContainerId cid_;
  std::optional<storage::Container> whole_;
};

TEST_F(PartlyReadTest, HitOnAChunkNotReadCompletesWithOneRead) {
  const FileRecord other = recipe_of(*whole_, {other_});
  CollectingSink sink;
  const Outcome got = d_->planned(std::span(&other, 1), sink);
  ASSERT_EQ(got.code, Errc::kOk);
  EXPECT_EQ(got.hits, 1U);
  EXPECT_EQ(got.misses, 0U);
  EXPECT_EQ(repo_reads(got.reads).first, 1U);
  ASSERT_EQ(got.files.size(), 1U);
  EXPECT_TRUE(got.files[0].second == bytes_of(*whole_->find(other_)));

  // The container is whole now: every chunk of it hits, through either
  // restore path, and none reads the device.
  FileRecord all;
  all.meta.path = "all";
  for (const storage::ChunkMeta& m : whole_->metadata()) {
    all.chunk_fps.push_back(m.fp);
    all.chunk_sizes.push_back(m.size);
  }
  CollectingSink all_sink;
  const Outcome rest = d_->planned(std::span(&all, 1), all_sink);
  ASSERT_EQ(rest.code, Errc::kOk);
  EXPECT_EQ(rest.hits, all.chunk_fps.size());
  EXPECT_EQ(rest.misses, 0U);
  EXPECT_EQ(repo_reads(rest.reads).first, 0U);
  std::vector<Byte> want;
  for (const Fingerprint& fp : all.chunk_fps) {
    const ByteSpan chunk = *whole_->find(fp);
    want.insert(want.end(), chunk.begin(), chunk.end());
  }
  EXPECT_TRUE(all_sink.files[0].second == want);
  CollectingSink probe_sink;
  const Outcome probe = d_->observe(probe_sink, [&] {
    return d_->server().chunk_store().read_chunk(first_).status();
  });
  EXPECT_EQ(probe.code, Errc::kOk);
  EXPECT_EQ(repo_reads(probe.reads).first, 0U);
}

TEST_F(PartlyReadTest, FailedCompletionStopsTheRestoreAtThatChunk) {
  const double model = d_->repository().total_node_seconds();
  d_->injector().set_config({.read_error_rate = 1.0});
  const FileRecord two = recipe_of(*whole_, {first_, other_});
  CollectingSink sink;
  const Outcome got = d_->planned(std::span(&two, 1), sink);
  EXPECT_EQ(got.code, Errc::kIoError);
  EXPECT_EQ(got.chunks, 1U);
  ASSERT_EQ(got.files.size(), 1U);
  EXPECT_TRUE(got.files[0].second == bytes_of(*whole_->find(first_)));
  EXPECT_EQ(got.misses, 0U);

  // The container stays cached in part, and completes once reads work.
  d_->injector().set_config({});
  const FileRecord other = recipe_of(*whole_, {other_});
  CollectingSink again;
  const Outcome retry = d_->planned(std::span(&other, 1), again);
  ASSERT_EQ(retry.code, Errc::kOk);
  EXPECT_EQ(retry.misses, 0U);
  EXPECT_EQ(repo_reads(retry.reads).first, 1U);
  EXPECT_TRUE(again.files[0].second == bytes_of(*whole_->find(other_)));
  // Completing charges nothing: the miss paid for the whole container.
  EXPECT_EQ(bits(d_->repository().total_node_seconds()), bits(model));
}

TEST_F(PartlyReadTest, RemovedContainerStillCompletesFromItsOffsets) {
  ASSERT_TRUE(d_->repository().remove(cid_).ok());
  ASSERT_FALSE(d_->repository().contains(cid_));
  const FileRecord other = recipe_of(*whole_, {other_});
  CollectingSink sink;
  const Outcome got = d_->planned(std::span(&other, 1), sink);
  ASSERT_EQ(got.code, Errc::kOk);
  EXPECT_EQ(got.misses, 0U);
  EXPECT_EQ(repo_reads(got.reads).first, 1U);
  EXPECT_TRUE(sink.files[0].second == bytes_of(*whole_->find(other_)));
}

TEST_F(PlannedRestoreTest, StaleBytesInPooledFramesNeverReachTheSink) {
  Deployment d(base_ / "d", generations_);
  // Every frame the restores can take from the pool holds stale bytes
  // where the chunks they do not read will sit.
  storage::FramePool& pool = d.repository().frame_pool();
  {
    std::vector<storage::FrameBuffer> frames;
    for (std::size_t k = 0; k < pool.max_idle(); ++k) {
      frames.push_back(
          pool.acquire(storage::Container::buffer_bytes(256 * KiB)));
      std::memset(frames.back().data(), 0xA5, frames.back().size());
    }
  }
  ASSERT_EQ(pool.idle(), pool.max_idle());
  // Newest, then the oldest (completing containers the first restore read
  // in part), then the newest again.
  for (const std::uint32_t version : {5U, 1U, 5U}) {
    CollectingSink sink;
    const Outcome got = d.planned(version, sink);
    ASSERT_EQ(got.code, Errc::kOk);
    const Dataset& data = generations_[version - 1];
    ASSERT_EQ(got.files.size(), data.files.size());
    for (std::size_t f = 0; f < data.files.size(); ++f) {
      EXPECT_TRUE(got.files[f].second == data.files[f].content)
          << "version " << version << " " << data.files[f].path;
    }
  }
}

}  // namespace
}  // namespace debar::core
