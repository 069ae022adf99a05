// Degraded operation, the completing side (DESIGN.md §5g): with every
// index partition replicated on server (p + 1) mod n, a single dark
// server degrades a dedup-2 round instead of aborting it — its partition
// fails over to the backup copy — and the SURVIVING copies' disk images
// stay byte-identical to a fault-free run of the same workload. When the
// dark server returns, the round-start probe re-admits it and the
// surviving holder re-ships the entries it missed (catch-up resync), so
// restores work through the rejoined server even with its peer dark.
// A whole-version Cluster::restore matches a loop of one-chunk
// Cluster::read_chunk restores exactly — bytes, LPC counters, wire
// frames and bytes per message type, and every modeled clock — through
// every server, healthy and with a primary copy dark; a wrong chunk size
// in the recipe and a lost delivery to the client stop the restore at
// that chunk. `ctest -L net-failover` runs this suite plus the abort-side
// cases in cluster_degraded_test.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/sha1.hpp"
#include "core/cluster.hpp"
#include "net/faulty_transport.hpp"
#include "net/transport_factory.hpp"
#include "storage/block_device.hpp"

namespace debar::core {
namespace {

Fingerprint fp(std::uint64_t i) { return Sha1::hash_counter(i); }

/// A cluster over a FaultyTransport whose index devices (primary and
/// replica, in factory-call order: primaries 0..n-1, then replicas
/// 0..n-1) stay inspectable for byte-level comparison.
struct FailoverRig {
  /// Nodes commit concurrently, so capacity scaling may mint devices on
  /// several threads at once.
  struct Minted {
    std::mutex mutex;
    std::vector<storage::MemBlockDevice*> devices;
  };

  net::FaultyTransport* faulty = nullptr;  // owned by the cluster's stack
  std::shared_ptr<Minted> minted = std::make_shared<Minted>();
  std::unique_ptr<Cluster> cluster;

  /// `dedup2_threads` 0 resolves to one per core; `configure` edits the
  /// configuration last.
  explicit FailoverRig(unsigned w, unsigned prefix_bits = 6,
                       std::uint64_t io_buckets = 8,
                       std::size_t dedup2_threads = 0,
                       const std::function<void(ClusterConfig&)>& configure =
                           {}) {
    ClusterConfig cfg;
    cfg.routing_bits = w;
    cfg.repository_nodes = 2;
    cfg.server_config.index_params = {.prefix_bits = prefix_bits,
                                      .blocks_per_bucket = 2};
    cfg.server_config.filter_params = {.hash_bits = 8, .capacity = 100000};
    cfg.server_config.chunk_store.cache_params = {.hash_bits = 4,
                                                  .capacity = 1000000};
    cfg.server_config.chunk_store.io_buckets = io_buckets;
    cfg.server_config.chunk_store.dedup2.threads = dedup2_threads;
    cfg.server_config.chunk_store.siu_threshold = 1;
    cfg.server_config.index_device_factory = [captured = minted] {
      auto device = std::make_unique<storage::MemBlockDevice>();
      std::lock_guard lock(captured->mutex);
      captured->devices.push_back(device.get());
      return device;
    };
    auto factory = std::make_shared<net::FaultyTransportFactory>(
        net::NetFaultConfig{});
    cfg.transport_factory = factory;
    if (configure) configure(cfg);
    cluster = std::make_unique<Cluster>(std::move(cfg));
    faulty = factory->last();
  }

  [[nodiscard]] std::vector<Byte> primary_image(std::size_t k) const {
    const ByteSpan bytes = minted->devices[k]->contents();
    return {bytes.begin(), bytes.end()};
  }
  [[nodiscard]] std::vector<Byte> replica_image(std::size_t k) const {
    const ByteSpan bytes =
        minted->devices[cluster->server_count() + k]->contents();
    return {bytes.begin(), bytes.end()};
  }
};

void backup_stream(Cluster& cluster, std::size_t server, std::uint64_t job,
                   std::uint64_t first, std::uint64_t count) {
  FileStore& fs = cluster.server(server).file_store();
  fs.begin_job(job);
  fs.begin_file({.path = "s", .size = count * 512, .mtime = 0, .mode = 0644});
  for (std::uint64_t i = first; i < first + count; ++i) {
    const Fingerprint f = fp(i);
    if (fs.offer_fingerprint(f, 512)) {
      const auto payload = BackupEngine::synthetic_payload(f, 512);
      ASSERT_TRUE(
          fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
    }
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());
}

/// The synthetic bytes backup_stream sends for fingerprints [first,
/// first + count).
std::vector<Byte> stream_bytes(std::uint64_t first, std::uint64_t count) {
  std::vector<Byte> out;
  for (std::uint64_t i = first; i < first + count; ++i) {
    const auto payload = BackupEngine::synthetic_payload(fp(i), 512);
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

std::vector<Byte> flatten(const Dataset& dataset) {
  std::vector<Byte> out;
  for (const FileData& file : dataset.files) {
    out.insert(out.end(), file.content.begin(), file.content.end());
  }
  return out;
}

/// Every stored container's serialized image, keyed by id order — the
/// repository-side half of the byte-identity bar.
std::vector<std::vector<Byte>> container_images(Cluster& cluster) {
  std::vector<std::vector<Byte>> images;
  for (const ContainerId id : cluster.repository().container_ids()) {
    Result<storage::Container> container = cluster.repository().read(id);
    EXPECT_TRUE(container.ok());
    if (container.ok()) images.push_back(container.value().serialize());
  }
  return images;
}

TEST(ClusterFailoverTest, SingleDarkServerDegradesWithByteIdenticalState) {
  // Twin rigs, same workload: in one of them server 1 is dark for the
  // whole round. The degraded round must complete via server 0's replica
  // of part 1 and leave server 0's primary AND replica index images —
  // and the chunk repository — byte-identical to the fault-free twin.
  FailoverRig clean(/*w=*/1);
  FailoverRig faulty(/*w=*/1);

  const std::uint64_t clean_job = clean.cluster->director().define_job("c",
                                                                       "d");
  const std::uint64_t dark_job = faulty.cluster->director().define_job("c",
                                                                       "d");
  backup_stream(*clean.cluster, 0, clean_job, 0, 60);
  backup_stream(*faulty.cluster, 0, dark_job, 0, 60);

  faulty.faulty->set_unreachable(1, true);

  Result<ClusterDedup2Result> clean_round = clean.cluster->run_dedup2(true);
  ASSERT_TRUE(clean_round.ok());
  EXPECT_FALSE(clean_round.value().degraded());

  Result<ClusterDedup2Result> dark_round = faulty.cluster->run_dedup2(true);
  ASSERT_TRUE(dark_round.ok()) << dark_round.error().to_string();
  EXPECT_TRUE(dark_round.value().degraded());
  EXPECT_GE(dark_round.value().failovers, 1u);
  EXPECT_EQ(dark_round.value().skipped_servers, std::vector<std::size_t>{1});
  EXPECT_TRUE(faulty.cluster->director().is_unreachable(1));
  EXPECT_FALSE(faulty.cluster->director().is_unreachable(0));

  // Same round accounting either way: the backup copy answers PSIL with
  // the same verdicts the primary would have.
  EXPECT_EQ(dark_round.value().undetermined, clean_round.value().undetermined);
  EXPECT_EQ(dark_round.value().duplicates, clean_round.value().duplicates);
  EXPECT_EQ(dark_round.value().new_chunks, clean_round.value().new_chunks);

  // The correctness bar: surviving copies byte-identical across fault
  // schedules, repository included.
  EXPECT_EQ(faulty.primary_image(0), clean.primary_image(0));
  EXPECT_EQ(faulty.replica_image(0), clean.replica_image(0));
  EXPECT_EQ(container_images(*faulty.cluster),
            container_images(*clean.cluster));

  // And the backed-up version restores through the surviving server.
  const std::vector<Byte> clean_bytes =
      flatten(clean.cluster->restore(clean_job, 1, /*via=*/0).value());
  Result<Dataset> degraded_restore =
      faulty.cluster->restore(dark_job, 1, /*via=*/0);
  ASSERT_TRUE(degraded_restore.ok());
  EXPECT_EQ(flatten(degraded_restore.value()), clean_bytes);
}

TEST(ClusterFailoverTest, RejoinedServerCatchesUpAndServesRestores) {
  FailoverRig rig(/*w=*/1);
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("c", "d");

  // Round 1: healthy. Round 2: server 1 dark — the round degrades, and
  // both copies server 1 hosts (part 1 primary, part 0 replica) miss the
  // round's entries.
  backup_stream(cluster, 0, job, 0, 60);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  rig.faulty->set_unreachable(1, true);
  backup_stream(cluster, 0, job, 100, 60);
  Result<ClusterDedup2Result> degraded = cluster.run_dedup2(true);
  ASSERT_TRUE(degraded.ok()) << degraded.error().to_string();
  EXPECT_TRUE(degraded.value().degraded());
  EXPECT_TRUE(cluster.director().is_unreachable(1));

  // Heal. The next round's boundary probe re-admits server 1 and the
  // surviving copies re-ship everything it missed before the exchange.
  rig.faulty->set_unreachable(1, false);
  Result<ClusterDedup2Result> healed = cluster.run_dedup2(true);
  ASSERT_TRUE(healed.ok()) << healed.error().to_string();
  EXPECT_FALSE(healed.value().degraded());
  EXPECT_FALSE(cluster.director().is_unreachable(1));

  // Now dark the OTHER server: every chunk of version 2 must still
  // restore through the rejoined server 1 — part-1 fingerprints off its
  // caught-up primary, part-0 fingerprints off its caught-up replica.
  rig.faulty->set_unreachable(0, true);
  Result<Dataset> restored = cluster.restore(job, 2, /*via=*/1);
  ASSERT_TRUE(restored.ok()) << restored.error().to_string();
  EXPECT_EQ(flatten(restored.value()), stream_bytes(100, 60));
}

TEST(ClusterFailoverTest, ReplicaSiuScalesInStepWithThePrimary) {
  // A 4-bucket index part holds ~160 entries, so both generations below
  // overflow it and every copy's SIU must scale capacity. One copy of
  // each part is its owner's ChunkStore, the other a hosted IndexPart;
  // both must grow to the same image, at either thread count. Three-
  // bucket I/O spans keep several spans in play, so at 4 threads the
  // scans really shard and pipeline once the index has grown.
  std::vector<std::vector<Byte>> serial_images;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(testing::Message() << "dedup2.threads=" << threads);
    FailoverRig rig(/*w=*/1, /*prefix_bits=*/2, /*io_buckets=*/3, threads);
    Cluster& cluster = *rig.cluster;
    const std::uint64_t job0 = cluster.director().define_job("c0", "d");
    const std::uint64_t job1 = cluster.director().define_job("c1", "d");

    // One origin only: origins storing concurrently in phase D would
    // race for container ids, and the images embed them.
    backup_stream(cluster, 0, job0, 0, 400);
    backup_stream(cluster, 0, job1, 300, 400);  // overlaps job0's tail
    ASSERT_TRUE(cluster.run_dedup2(true).ok());
    backup_stream(cluster, 0, job0, 700, 300);
    ASSERT_TRUE(cluster.run_dedup2(true).ok());

    std::vector<std::vector<Byte>> images;
    const PartitionMap& map = cluster.partition_map();
    for (std::size_t p = 0; p < map.part_count(); ++p) {
      SCOPED_TRACE(testing::Message() << "part " << p);
      for (std::size_t c = 0; c < map.copy_count(); ++c) {
        const PartitionCopy& placed = map.copy(p, c);
        index::DiskIndex& idx =
            cluster.server(placed.server)
                .part_index(p, placed.via_store)
                .index();
        EXPECT_GT(idx.params().prefix_bits, 2u) << "copy " << c;
        std::vector<Byte> image(idx.device().size());
        EXPECT_TRUE(
            idx.device().read(0, std::span<Byte>(image.data(), image.size()))
                .ok());
        images.push_back(std::move(image));
      }
      EXPECT_EQ(images[images.size() - 2], images.back());
    }
    if (serial_images.empty()) {
      serial_images = images;
    } else {
      EXPECT_EQ(images, serial_images);
    }

    for (std::size_t via = 0; via < cluster.server_count(); ++via) {
      Result<Dataset> v1 = cluster.restore(job0, 1, via);
      Result<Dataset> v2 = cluster.restore(job0, 2, via);
      Result<Dataset> other = cluster.restore(job1, 1, via);
      ASSERT_TRUE(v1.ok() && v2.ok() && other.ok()) << "via " << via;
      EXPECT_EQ(flatten(v1.value()), stream_bytes(0, 400));
      EXPECT_EQ(flatten(v2.value()), stream_bytes(700, 300));
      EXPECT_EQ(flatten(other.value()), stream_bytes(300, 400));
    }
  }
}

TEST(ClusterFailoverTest, WireLocateFailsOverToTheBackupHolder) {
  // At w=2 the serving server hosts neither copy of a part-1 chunk; with
  // the primary owner dark the locate round trip must fail over to the
  // backup holder (server 2) over the wire.
  FailoverRig rig(/*w=*/2);
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("c", "d");

  backup_stream(cluster, 0, job, 0, 60);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  Fingerprint part1_fp;
  bool found = false;
  for (std::uint64_t i = 0; i < 60 && !found; ++i) {
    if (cluster.owner_of(fp(i)) == 1) {
      part1_fp = fp(i);
      found = true;
    }
  }
  ASSERT_TRUE(found);

  rig.faulty->set_unreachable(1, true);
  Result<std::vector<Byte>> read = cluster.read_chunk(0, part1_fp);
  ASSERT_TRUE(read.ok()) << read.error().to_string();
  EXPECT_EQ(read.value(), BackupEngine::synthetic_payload(part1_fp, 512));
  EXPECT_TRUE(cluster.director().is_unreachable(1));
}

// ---- Whole-version restores against one-chunk restores ----

/// One file of a version: fingerprints [first, first + count).
struct FileSpec {
  std::string path;
  std::uint64_t first = 0;
  std::uint64_t count = 0;
};

/// Chunk sizes vary with the fingerprint, so a size check has something
/// to compare.
std::uint32_t chunk_size(std::uint64_t i) {
  return 256 + static_cast<std::uint32_t>(i % 5) * 64;
}

/// Back up `files` as one version of `job` through server `server`.
void backup_files(Cluster& cluster, std::size_t server, std::uint64_t job,
                  const std::vector<FileSpec>& files) {
  FileStore& fs = cluster.server(server).file_store();
  fs.begin_job(job);
  for (const FileSpec& file : files) {
    std::uint64_t bytes = 0;
    for (std::uint64_t i = file.first; i < file.first + file.count; ++i) {
      bytes += chunk_size(i);
    }
    fs.begin_file({.path = file.path, .size = bytes, .mtime = 0,
                   .mode = 0644});
    for (std::uint64_t i = file.first; i < file.first + file.count; ++i) {
      if (fs.offer_fingerprint(fp(i), chunk_size(i))) {
        const auto payload =
            BackupEngine::synthetic_payload(fp(i), chunk_size(i));
        ASSERT_TRUE(
            fs.receive_chunk(fp(i), ByteSpan(payload.data(), payload.size()))
                .ok());
      }
    }
    fs.end_file();
  }
  ASSERT_TRUE(fs.end_job().ok());
}

/// What backup_files stored for `files`, file by file.
Dataset expected_files(const std::vector<FileSpec>& files) {
  Dataset out;
  for (const FileSpec& file : files) {
    FileData& data = out.files.emplace_back();
    data.path = file.path;
    for (std::uint64_t i = file.first; i < file.first + file.count; ++i) {
      const auto payload =
          BackupEngine::synthetic_payload(fp(i), chunk_size(i));
      data.content.insert(data.content.end(), payload.begin(), payload.end());
    }
  }
  return out;
}

/// A dataset's paths and contents, in order.
std::vector<std::pair<std::string, std::vector<Byte>>> contents(
    const Dataset& dataset) {
  std::vector<std::pair<std::string, std::vector<Byte>>> out;
  for (const FileData& file : dataset.files) {
    out.emplace_back(file.path, file.content);
  }
  return out;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Everything a restore leaves behind on a cluster that a twin must match.
struct Observed {
  std::vector<std::uint64_t> hits;
  std::vector<std::uint64_t> misses;
  std::vector<std::uint64_t> clock_bits;  // nic, log, index per server
  std::uint64_t repo_total_bits = 0;
  std::uint64_t repo_max_bits = 0;
  net::TransportStats wire;
  std::vector<bool> unreachable;
};

Observed observe(Cluster& cluster) {
  Observed o;
  for (std::size_t k = 0; k < cluster.server_count(); ++k) {
    const cache::LpcCache& lpc = cluster.server(k).chunk_store().lpc();
    o.hits.push_back(lpc.hits());
    o.misses.push_back(lpc.misses());
    const ServerClocks c = cluster.server(k).clocks();
    o.clock_bits.insert(o.clock_bits.end(),
                        {bits(c.nic), bits(c.log_disk), bits(c.index_disk)});
    o.unreachable.push_back(cluster.director().is_unreachable(k));
  }
  o.repo_total_bits = bits(cluster.repository().total_node_seconds());
  o.repo_max_bits = bits(cluster.repository().max_node_seconds());
  o.wire = cluster.transport_stats();
  return o;
}

void expect_same(const Observed& got, const Observed& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.clock_bits, want.clock_bits);
  EXPECT_EQ(got.repo_total_bits, want.repo_total_bits);
  EXPECT_EQ(got.repo_max_bits, want.repo_max_bits);
  EXPECT_EQ(got.unreachable, want.unreachable);
  EXPECT_EQ(got.wire.frames_sent, want.wire.frames_sent);
  EXPECT_EQ(got.wire.bytes_sent, want.wire.bytes_sent);
  EXPECT_EQ(got.wire.frames_delivered, want.wire.frames_delivered);
  EXPECT_EQ(got.wire.bytes_delivered, want.wire.bytes_delivered);
  EXPECT_EQ(got.wire.frames_by_type, want.wire.frames_by_type);
  EXPECT_EQ(got.wire.bytes_by_type, want.wire.bytes_by_type);
  EXPECT_EQ(got.wire.messages_by_type, want.wire.messages_by_type);
  EXPECT_EQ(got.wire.raw_bytes_by_type, want.wire.raw_bytes_by_type);
}

/// The reference restore: one Cluster::read_chunk per chunk of the
/// recorded version, collected as Cluster::restore collects it.
Result<Dataset> restore_per_chunk(Cluster& cluster, std::uint64_t job,
                                  std::uint32_t version, std::size_t via) {
  const std::optional<JobVersionRecord> record =
      cluster.director().version(job, version);
  if (!record.has_value()) return Error{Errc::kNotFound, "no such version"};
  Dataset out;
  for (const FileRecord& file : record->files) {
    FileData& data = out.files.emplace_back();
    data.path = file.meta.path;
    for (const Fingerprint& f : file.chunk_fps) {
      Result<std::vector<Byte>> chunk = cluster.read_chunk(via, f);
      if (!chunk.ok()) return chunk.error();
      data.content.insert(data.content.end(), chunk.value().begin(),
                          chunk.value().end());
    }
  }
  return out;
}

/// Containers of about 20 chunks and an LPC of 4 of them, so restores
/// miss, evict and locate throughout.
void small_lpc(ClusterConfig& cfg) {
  cfg.server_config.container_capacity = 8 * KiB;
  cfg.server_config.chunk_store.lpc_containers = 4;
}

/// Twin clusters backed up with the same versions: two jobs on two
/// origins, files of several chunk runs, an empty file, and a version
/// with no chunks at all (job y's second).
struct RestoreTwins {
  struct Version {
    std::uint64_t job;
    std::uint32_t version;
    std::vector<FileSpec> files;
  };

  explicit RestoreTwins(unsigned w)
      : planned(w, 6, 8, 0, small_lpc), reference(w, 6, 8, 0, small_lpc) {
    const std::vector<FileSpec> x1 = {
        {"a", 0, 40}, {"empty", 0, 0}, {"b", 40, 50}};
    const std::vector<FileSpec> y1 = {{"c", 60, 60}, {"d", 200, 30}};
    const std::vector<FileSpec> x2 = {
        {"a", 20, 40}, {"empty", 0, 0}, {"f", 300, 40}};
    const std::vector<FileSpec> y2 = {{"empty", 0, 0}};
    for (Cluster* c : {planned.cluster.get(), reference.cluster.get()}) {
      const std::uint64_t x = c->director().define_job("x", "d");
      const std::uint64_t y = c->director().define_job("y", "d");
      // One origin stores per round: origins storing concurrently would
      // race for container ids, and so for repository placement.
      backup_files(*c, 0, x, x1);
      EXPECT_TRUE(c->run_dedup2(true).ok());
      backup_files(*c, 1, y, y1);
      EXPECT_TRUE(c->run_dedup2(true).ok());
      backup_files(*c, 0, x, x2);
      backup_files(*c, 1, y, y2);
      EXPECT_TRUE(c->run_dedup2(true).ok());
      versions = {{x, 1, x1}, {y, 1, y1}, {x, 2, x2}, {y, 2, y2}};
    }
  }

  /// Restore every version through `via` on both twins, planned on one
  /// and chunk by chunk on the other, and compare after each.
  void restore_all(std::size_t via) {
    for (const Version& v : versions) {
      SCOPED_TRACE(testing::Message() << "via " << via << ", job " << v.job
                                      << " version " << v.version);
      Result<Dataset> got = planned.cluster->restore(v.job, v.version, via);
      Result<Dataset> want =
          restore_per_chunk(*reference.cluster, v.job, v.version, via);
      ASSERT_TRUE(got.ok()) << got.error().to_string();
      ASSERT_TRUE(want.ok()) << want.error().to_string();
      EXPECT_EQ(contents(got.value()), contents(want.value()));
      EXPECT_EQ(contents(got.value()), contents(expected_files(v.files)));
      expect_same(observe(*planned.cluster), observe(*reference.cluster));
    }
  }

  FailoverRig planned;
  FailoverRig reference;
  std::vector<Version> versions;
};

TEST(ClusterRestoreTest, WholeVersionMatchesOneChunkRestoresExactly) {
  for (const unsigned w : {1U, 2U}) {
    SCOPED_TRACE(testing::Message() << "w=" << w);
    RestoreTwins healthy(w);
    const std::size_t n = healthy.planned.cluster->server_count();
    for (std::size_t via = 0; via < n; ++via) healthy.restore_all(via);
    EXPECT_GT(healthy.planned.cluster->server(0).chunk_store().lpc().misses(),
              8u);

    // On fresh twins, part 1's primary copy goes dark: its chunks are
    // located on the backup copy, and server 1 is marked unreachable.
    RestoreTwins dark(w);
    dark.planned.faulty->set_unreachable(1, true);
    dark.reference.faulty->set_unreachable(1, true);
    for (std::size_t via = 0; via < n; ++via) {
      if (via != 1) dark.restore_all(via);
    }
    EXPECT_TRUE(dark.planned.cluster->director().is_unreachable(1));
  }
}

/// Counts what a restore hands it and runs a hook on every chunk.
class CountingSink final : public RestoreSink {
 public:
  Status begin_file(const FileRecord&) override { return Status::Ok(); }
  Status chunk(ByteSpan data) override {
    ++chunks;
    bytes.insert(bytes.end(), data.begin(), data.end());
    if (on_chunk) on_chunk(chunks);
    return Status::Ok();
  }
  Status end_file() override { return Status::Ok(); }

  std::size_t chunks = 0;
  std::vector<Byte> bytes;
  std::function<void(std::size_t)> on_chunk;
};

std::uint64_t chunk_data_frames(Cluster& cluster) {
  return cluster.transport_stats().frames_by_type[static_cast<std::size_t>(
      net::MessageType::kChunkData)];
}

TEST(ClusterRestoreTest, WrongChunkSizeStopsTheRestoreAtThatChunk) {
  FailoverRig rig(/*w=*/1);
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("x", "d");
  const std::vector<FileSpec> files = {{"a", 0, 30}, {"b", 30, 30}};
  backup_files(cluster, 0, job, files);
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  // Version 2 is version 1 with chunk 5 of file b recorded one byte long.
  JobVersionRecord bad = cluster.director().version(job, 1).value();
  bad.version = 2;
  ++bad.files[1].chunk_sizes[5];
  ASSERT_TRUE(cluster.director().submit_version(bad).ok());

  const std::uint64_t frames = chunk_data_frames(cluster);
  CountingSink sink;
  const Status s = cluster.restore(job, 2, /*via=*/0, sink);
  EXPECT_EQ(s.code(), Errc::kCorrupt) << s.to_string();
  EXPECT_EQ(sink.chunks, 35u);
  std::vector<Byte> before = expected_files(files).files[0].content;
  const std::vector<Byte> b = expected_files({{"b", 30, 5}}).files[0].content;
  before.insert(before.end(), b.begin(), b.end());
  EXPECT_EQ(sink.bytes, before);
  // The chunk that failed the check never crossed the wire.
  EXPECT_EQ(chunk_data_frames(cluster) - frames, 35u);

  // The recorded version itself still restores whole.
  CountingSink whole;
  EXPECT_TRUE(cluster.restore(job, 1, /*via=*/0, whole).ok());
  EXPECT_EQ(whole.chunks, 60u);
}

TEST(ClusterRestoreTest, FailedDeliveryStopsTheRestoreAtThatChunk) {
  FailoverRig rig(/*w=*/1);
  Cluster& cluster = *rig.cluster;
  const std::uint64_t job = cluster.director().define_job("x", "d");
  backup_files(cluster, 0, job, {{"a", 0, 20}, {"b", 20, 20}});
  ASSERT_TRUE(cluster.run_dedup2(true).ok());

  // The client becomes unreachable once it has received 25 chunks.
  CountingSink sink;
  sink.on_chunk = [&](std::size_t received) {
    if (received == 25) rig.faulty->set_unreachable(cluster.client_id(), true);
  };
  const Status s = cluster.restore(job, 1, /*via=*/0, sink);
  EXPECT_EQ(s.code(), Errc::kUnavailable) << s.to_string();
  EXPECT_EQ(sink.chunks, 25u);
}

}  // namespace
}  // namespace debar::core
