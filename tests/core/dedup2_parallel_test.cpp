// Differential equivalence for the parallel dedup-2 pipeline: the same
// multi-generation workload run with threads=1 (no pool: every stage on
// the calling thread) and with more threads (sharded SIL, SIL/store
// overlap, pipelined SIU) must produce the same bytes everywhere — index
// image, container set, restored data, per-round counters, and modeled
// clocks.
#include <gtest/gtest.h>

#include <cstring>

#include "common/sha1.hpp"
#include "core/backup_server.hpp"

namespace debar::core {
namespace {

Fingerprint fp(std::uint64_t i) { return Sha1::hash_counter(i); }

std::vector<Byte> payload_of(std::uint64_t i) {
  // Size and content both vary with i so container framing differences
  // cannot cancel out in aggregate byte counts.
  std::vector<Byte> payload(256 + (i % 7) * 32,
                            static_cast<Byte>(0x20 + i % 200));
  return payload;
}

BackupServerConfig config_with_threads(std::size_t threads) {
  BackupServerConfig cfg;
  cfg.index_params = {.prefix_bits = 8, .blocks_per_bucket = 2};
  cfg.filter_params = {.hash_bits = 8, .capacity = 10000};
  // Small cache -> many SIL/store batches; small io_buckets -> many spans
  // per scan: both pipelines stay busy.
  cfg.chunk_store.cache_params = {.hash_bits = 6, .capacity = 40};
  cfg.chunk_store.io_buckets = 16;
  cfg.chunk_store.siu_threshold = 1 << 20;  // only forced SIU runs
  cfg.chunk_store.dedup2.threads = threads;
  return cfg;
}

struct RoundStats {
  std::uint64_t undetermined = 0;
  std::uint64_t sil_runs = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t new_chunks = 0;
  std::uint64_t new_bytes = 0;
  bool ran_siu = false;
  double sil_seconds = 0.0;
  double siu_seconds = 0.0;

  friend bool operator==(const RoundStats&, const RoundStats&) = default;
};

struct Snapshot {
  std::vector<RoundStats> rounds;
  std::vector<Byte> index_image;
  std::vector<ContainerId> container_ids;
  std::vector<std::vector<Byte>> container_images;
  std::vector<std::vector<Byte>> restored;
  double index_seconds = 0.0;
  double log_seconds = 0.0;
};

/// Three generations with pending-set, on-disk, and fresh fingerprints in
/// every round; SIU is skipped after generation 0 so generation 1 dedups
/// against the checking set, then forced afterwards.
Snapshot run_workload(std::size_t threads) {
  storage::ChunkRepository repo(2);
  Director director;
  BackupServer server(0, config_with_threads(threads), &repo, &director);
  const std::uint64_t job = director.define_job("client", "dataset");

  const auto backup = [&](std::uint64_t from, std::uint64_t to) {
    FileStore& fs = server.file_store();
    fs.begin_job(job);
    fs.begin_file(
        {.path = "gen.dat", .size = (to - from) * 512, .mtime = 0,
         .mode = 0644});
    for (std::uint64_t i = from; i < to; ++i) {
      const std::vector<Byte> payload = payload_of(i);
      if (fs.offer_fingerprint(fp(i), payload.size())) {
        EXPECT_TRUE(
            fs.receive_chunk(fp(i),
                             ByteSpan(payload.data(), payload.size()))
                .ok());
      }
    }
    fs.end_file();
    EXPECT_TRUE(fs.end_job().ok());
  };

  Snapshot snap;
  const auto dedup2 = [&](bool force_siu) {
    const Result<Dedup2Result> r = server.run_dedup2(force_siu);
    EXPECT_TRUE(r.ok()) << r.error().to_string();
    const Dedup2Result& d = r.value();
    snap.rounds.push_back({d.undetermined, d.sil_runs, d.duplicates,
                           d.new_chunks, d.new_bytes, d.ran_siu,
                           d.sil_seconds, d.siu_seconds});
  };

  backup(0, 100);
  dedup2(/*force_siu=*/false);  // everything stays in the checking set
  backup(50, 150);
  dedup2(/*force_siu=*/true);  // 50 pending dups, 50 new
  backup(0, 180);
  dedup2(/*force_siu=*/true);  // 150 on-disk dups, 30 new

  const auto* mem = dynamic_cast<const storage::MemBlockDevice*>(
      &server.chunk_store().index().device());
  EXPECT_NE(mem, nullptr);
  const ByteSpan image = mem->contents();
  snap.index_image.assign(image.begin(), image.end());

  snap.container_ids = repo.container_ids();
  for (const ContainerId id : snap.container_ids) {
    Result<storage::Container> c = repo.read(id);
    EXPECT_TRUE(c.ok());
    snap.container_images.push_back(c.value().serialize());
  }
  for (std::uint64_t i = 0; i < 180; ++i) {
    Result<std::vector<Byte>> chunk = server.chunk_store().read_chunk(fp(i));
    EXPECT_TRUE(chunk.ok()) << i;
    snap.restored.push_back(std::move(chunk).value());
  }
  const ServerClocks clocks = server.clocks();
  snap.index_seconds = clocks.index_disk;
  snap.log_seconds = clocks.log_disk;
  return snap;
}

TEST(Dedup2ParallelTest, FourThreadsByteIdenticalToSerial) {
  const Snapshot serial = run_workload(1);
  const Snapshot parallel = run_workload(4);

  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    EXPECT_EQ(serial.rounds[i], parallel.rounds[i]) << "round " << i;
  }
  EXPECT_EQ(serial.index_image, parallel.index_image);
  EXPECT_EQ(serial.container_ids, parallel.container_ids);
  EXPECT_EQ(serial.container_images, parallel.container_images);
  EXPECT_EQ(serial.restored, parallel.restored);
  EXPECT_DOUBLE_EQ(serial.index_seconds, parallel.index_seconds);
  EXPECT_DOUBLE_EQ(serial.log_seconds, parallel.log_seconds);
}

TEST(Dedup2ParallelTest, ThreadCountSweepConverges) {
  // Any thread count, not just 4, must land on the serial bytes.
  const Snapshot serial = run_workload(1);
  for (const std::size_t threads : {2u, 3u, 8u}) {
    const Snapshot parallel = run_workload(threads);
    EXPECT_EQ(serial.index_image, parallel.index_image) << threads;
    EXPECT_EQ(serial.container_images, parallel.container_images) << threads;
    EXPECT_EQ(serial.restored, parallel.restored) << threads;
    EXPECT_DOUBLE_EQ(serial.index_seconds, parallel.index_seconds) << threads;
  }
}

}  // namespace
}  // namespace debar::core
