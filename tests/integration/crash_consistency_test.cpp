// Crash-consistency sweep over the whole storage stack.
//
// Methodology: a profiling run with no faults records the global op-count
// span of each crash window (chunk-log append, SIL, container commit,
// SIU) per backup generation. Because a CrashRig built from the same
// options and datasets issues an identical op stream, a second rig armed
// with `crash_after_ops = N` crashes at a known point inside a known
// window. After each crash the frozen device images are recovered from
// scratch and every previously-acked generation must restore
// byte-identical — the durability invariant of the ack protocol.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/sha1.hpp"
#include "core/cluster.hpp"
#include "core/cluster_node.hpp"
#include "index/disk_index.hpp"
#include "storage/faulty_block_device.hpp"
#include "support/crash_rig.hpp"
#include "workload/file_tree.hpp"

namespace debar {
namespace {

using testsupport::CrashRig;
using testsupport::RunOutcome;
using testsupport::WindowSpan;

/// Three backup generations: a base dataset and two incremental mutations.
std::vector<core::Dataset> make_generations() {
  std::vector<core::Dataset> gens;
  gens.push_back(workload::make_dataset(
      {.files = 4, .mean_file_bytes = 24 * KiB, .seed = 41}));
  gens.push_back(workload::mutate_dataset(gens[0], {.seed = 42}));
  gens.push_back(workload::mutate_dataset(gens[1], {.seed = 43}));
  return gens;
}

struct CrashPoint {
  std::string window;
  std::uint32_t generation = 0;  // generations acked before the crash
  std::uint64_t op = 0;
};

/// Pick up to `per_window` evenly spaced op indices inside each span.
std::vector<CrashPoint> pick_crash_points(
    const std::vector<WindowSpan>& windows, std::uint64_t per_window) {
  std::vector<CrashPoint> points;
  for (const WindowSpan& w : windows) {
    if (w.empty()) continue;
    const std::uint64_t len = w.end - w.begin;
    const std::uint64_t n = std::min<std::uint64_t>(per_window, len);
    for (std::uint64_t k = 0; k < n; ++k) {
      points.push_back({w.window, w.generation, w.begin + k * len / n});
    }
  }
  return points;
}

TEST(CrashConsistency, AckedBackupsSurviveEveryCrashPoint) {
  const std::vector<core::Dataset> generations = make_generations();

  // Profiling run: no faults, record window spans, sanity-check the
  // clean pipeline end to end.
  CrashRig profile({}, generations);
  const RunOutcome clean = profile.run();
  ASSERT_FALSE(clean.failed) << clean.error;
  ASSERT_EQ(clean.acked, generations.size());
  ASSERT_TRUE(profile.recover_and_verify(clean.acked).ok());

  const std::vector<CrashPoint> points =
      pick_crash_points(profile.windows(), 3);

  std::set<std::string> kinds;
  for (const CrashPoint& p : points) kinds.insert(p.window);
  EXPECT_GE(kinds.size(), 4u) << "sweep must cover all four crash windows";
  EXPECT_GE(points.size(), 20u);

  for (const CrashPoint& point : points) {
    SCOPED_TRACE("crash in " + point.window + " at op " +
                 std::to_string(point.op) + " (generation " +
                 std::to_string(point.generation) + ")");
    CrashRig rig({}, generations);
    storage::FaultConfig faults;
    faults.crash_after_ops = point.op;
    rig.arm(faults);

    const RunOutcome outcome = rig.run();
    EXPECT_TRUE(outcome.failed)
        << "run acked " << outcome.acked << " generations without failing";
    EXPECT_TRUE(rig.injector().crashed());
    // The op streams are identical, so the crash lands in the profiled
    // window: every earlier generation acked, this one did not.
    EXPECT_EQ(outcome.acked, point.generation) << outcome.error;

    const Status recovered = rig.recover_and_verify(outcome.acked);
    EXPECT_TRUE(recovered.ok()) << recovered.to_string();
  }
}

TEST(CrashConsistency, ParallelSilSiuWindowsSurviveCrashes) {
  // Same sweep, but the server runs dedup-2 with sharded SIL and the
  // pipelined SIU (threads = 4), and the crash points target only the
  // index windows. The interleaving of ops inside a parallel window is
  // nondeterministic, but the op COUNT per phase is not (same set of
  // reads/writes in some order), so the profiled spans still place each
  // crash inside the intended phase — and the durability invariant must
  // hold for whichever interleaving the crash freezes.
  const std::vector<core::Dataset> generations = make_generations();
  CrashRig::Options opts;
  opts.dedup2 = {.threads = 4};

  CrashRig profile(opts, generations);
  const RunOutcome clean = profile.run();
  ASSERT_FALSE(clean.failed) << clean.error;
  ASSERT_EQ(clean.acked, generations.size());
  ASSERT_TRUE(profile.recover_and_verify(clean.acked).ok());

  std::vector<WindowSpan> index_windows;
  for (const WindowSpan& w : profile.windows()) {
    if (w.window == "sil" || w.window == "siu") index_windows.push_back(w);
  }
  const std::vector<CrashPoint> points = pick_crash_points(index_windows, 3);

  std::set<std::string> kinds;
  for (const CrashPoint& p : points) kinds.insert(p.window);
  EXPECT_EQ(kinds, (std::set<std::string>{"sil", "siu"}));
  EXPECT_GE(points.size(), 10u);

  for (const CrashPoint& point : points) {
    SCOPED_TRACE("parallel crash in " + point.window + " at op " +
                 std::to_string(point.op) + " (generation " +
                 std::to_string(point.generation) + ")");
    CrashRig rig(opts, generations);
    storage::FaultConfig faults;
    faults.crash_after_ops = point.op;
    rig.arm(faults);

    const RunOutcome outcome = rig.run();
    EXPECT_TRUE(outcome.failed)
        << "run acked " << outcome.acked << " generations without failing";
    EXPECT_TRUE(rig.injector().crashed());
    EXPECT_EQ(outcome.acked, point.generation) << outcome.error;

    const Status recovered = rig.recover_and_verify(outcome.acked);
    EXPECT_TRUE(recovered.ok()) << recovered.to_string();
  }
}

TEST(CrashConsistency, ParallelPipelineAbsorbsTransientFaults) {
  // Transient read/write/torn faults land on arbitrary ops of the
  // threaded pipeline (shard reads, prefetches, the SIU writer); the
  // per-range retries must absorb all of them regardless of which thread
  // drew the fault.
  const std::vector<core::Dataset> generations = make_generations();
  CrashRig::Options opts;
  opts.dedup2 = {.threads = 4};
  CrashRig rig(opts, generations);

  storage::FaultConfig faults;
  faults.read_error_rate = 0.02;
  faults.write_error_rate = 0.02;
  faults.torn_write_rate = 0.02;
  rig.arm(faults);

  const RunOutcome outcome = rig.run();
  EXPECT_FALSE(outcome.failed) << outcome.error;
  EXPECT_EQ(outcome.acked, generations.size());

  const Status recovered = rig.recover_and_verify(outcome.acked);
  EXPECT_TRUE(recovered.ok()) << recovered.to_string();
}

TEST(CrashConsistency, TransientWriteFaultsAreAbsorbedByRetries) {
  const std::vector<core::Dataset> generations = make_generations();
  CrashRig rig({}, generations);

  storage::FaultConfig faults;
  faults.write_error_rate = 0.03;
  faults.torn_write_rate = 0.03;
  rig.arm(faults);

  const RunOutcome outcome = rig.run();
  EXPECT_FALSE(outcome.failed) << outcome.error;
  EXPECT_EQ(outcome.acked, generations.size());

  const Status recovered = rig.recover_and_verify(outcome.acked);
  EXPECT_TRUE(recovered.ok()) << recovered.to_string();
}

TEST(CrashConsistency, TransientReadFaultsAreAbsorbedByRetries) {
  const std::vector<core::Dataset> generations = make_generations();
  CrashRig rig({}, generations);

  storage::FaultConfig faults;
  faults.read_error_rate = 0.02;
  rig.arm(faults);

  const RunOutcome outcome = rig.run();
  EXPECT_FALSE(outcome.failed) << outcome.error;
  EXPECT_EQ(outcome.acked, generations.size());

  const Status recovered = rig.recover_and_verify(outcome.acked);
  EXPECT_TRUE(recovered.ok()) << recovered.to_string();
}

// ---------------------------------------------------------------------------
// Crash windows inside the replicated phase-E commit (DESIGN.md §5g).
// ---------------------------------------------------------------------------

/// A w=1 cluster whose four index devices (primaries of servers 0 and 1,
/// then their replicas, in factory-call order) share one FaultInjector,
/// so a hard crash point freezes all four images at a single global op.
/// The phase hook records the injector op-count when round 2 reaches
/// "commit" — the start of the swept window.
struct ReplicatedClusterRig {
  std::shared_ptr<storage::FaultInjector> injector =
      std::make_shared<storage::FaultInjector>(storage::FaultConfig{});
  std::shared_ptr<std::vector<storage::MemBlockDevice*>> inners =
      std::make_shared<std::vector<storage::MemBlockDevice*>>();
  std::shared_ptr<std::uint64_t> commit_begin =
      std::make_shared<std::uint64_t>(0);
  std::shared_ptr<int> commits_seen = std::make_shared<int>(0);
  std::unique_ptr<core::Cluster> cluster;

  ReplicatedClusterRig() {
    core::ClusterConfig cfg;
    cfg.routing_bits = 1;
    cfg.repository_nodes = 2;
    // Roomy enough that two 60-chunk rounds never trigger capacity
    // scaling: a scaling rewrite relocates old entries, which would break
    // the "only the crash-point write tears" anchoring below.
    cfg.server_config.index_params = {.prefix_bits = 8,
                                      .blocks_per_bucket = 2};
    cfg.server_config.filter_params = {.hash_bits = 8, .capacity = 100000};
    cfg.server_config.chunk_store.cache_params = {.hash_bits = 4,
                                                  .capacity = 1000000};
    cfg.server_config.chunk_store.io_buckets = 8;
    cfg.server_config.chunk_store.siu_threshold = 1;
    cfg.server_config.index_device_factory = [injector = injector,
                                              inners = inners] {
      auto inner = std::make_unique<storage::MemBlockDevice>();
      inners->push_back(inner.get());
      return std::make_unique<storage::FaultyBlockDevice>(std::move(inner),
                                                          injector);
    };
    cfg.phase_hook = [injector = injector, commit_begin = commit_begin,
                      commits_seen = commits_seen](const char* phase) {
      if (std::string_view(phase) == "commit" && ++*commits_seen == 2) {
        *commit_begin = injector->op_count();
      }
    };
    cluster = std::make_unique<core::Cluster>(std::move(cfg));
  }
};

void cluster_backup(core::Cluster& cluster, std::uint64_t job,
                    std::uint64_t first, std::uint64_t count) {
  core::FileStore& fs = cluster.server(0).file_store();
  fs.begin_job(job);
  fs.begin_file({.path = "s", .size = count * 512, .mtime = 0, .mode = 0644});
  for (std::uint64_t i = first; i < first + count; ++i) {
    const Fingerprint f = Sha1::hash_counter(i);
    if (fs.offer_fingerprint(f, 512)) {
      const auto payload = core::BackupEngine::synthetic_payload(f, 512);
      ASSERT_TRUE(
          fs.receive_chunk(f, ByteSpan(payload.data(), payload.size())).ok());
    }
  }
  fs.end_file();
  ASSERT_TRUE(fs.end_job().ok());
}

/// Open a clone of a frozen post-crash image as an index (the live device
/// is dead; its inner holds the bytes a recovery would find on disk).
std::optional<index::DiskIndex> open_image_clone(
    const storage::MemBlockDevice& frozen, index::DiskIndexParams params) {
  const ByteSpan bytes = frozen.contents();
  auto device = std::make_unique<storage::MemBlockDevice>(bytes.size());
  if (!device->write(0, bytes).ok()) return std::nullopt;
  Result<index::DiskIndex> opened =
      index::DiskIndex::open(std::move(device), params);
  if (!opened.ok()) return std::nullopt;
  return std::move(opened).value();
}

TEST(CrashConsistency, ReplicatedCommitKeepsAnIntactCopyOfEveryPartition) {
  // The commit of a cluster round SIUs four index images in parallel
  // (two primaries, two replicas — DESIGN.md §5g), so a crash leaves
  // several of them half-applied. Exactly one write byte-tears (the op at
  // the crash point); every other image is a clean prefix of its SIU
  // write sequence, and inserts never relocate existing entries. The
  // durability claim of the replica map follows: for every partition, at
  // least one of its two copies still maps every previously-committed
  // ("acked") fingerprint to the container that really holds its payload.
  ReplicatedClusterRig profile;
  const std::uint64_t job = profile.cluster->director().define_job("c", "d");
  cluster_backup(*profile.cluster, job, 0, 60);
  ASSERT_TRUE(profile.cluster->run_dedup2(/*force_siu=*/true).ok());
  const std::uint64_t round1_end = profile.injector->op_count();
  cluster_backup(*profile.cluster, job, 100, 60);
  ASSERT_TRUE(profile.cluster->run_dedup2(true).ok());
  const std::uint64_t commit_begin = *profile.commit_begin;
  const std::uint64_t total = profile.injector->op_count();
  ASSERT_GT(commit_begin, round1_end);
  ASSERT_GT(total, commit_begin);

  // Ground truth for the acked round, collected only after the window was
  // measured: these locate() calls consume injector ops of their own, and
  // the sweep rigs below never make them, so earlier collection would
  // shift the profiled window. The op COUNT at each phase barrier is
  // deterministic across runs even though the parallel-commit
  // interleaving is not.
  const std::size_t n = profile.cluster->server_count();
  std::vector<Fingerprint> acked;
  std::vector<ContainerId> truth;
  for (std::uint64_t i = 0; i < 60; ++i) {
    const Fingerprint f = Sha1::hash_counter(i);
    const std::size_t owner = profile.cluster->owner_of(f);
    Result<ContainerId> c =
        profile.cluster->server(owner).chunk_store().locate(f);
    ASSERT_TRUE(c.ok()) << c.error().to_string();
    acked.push_back(f);
    truth.push_back(c.value());
  }

  constexpr std::uint64_t kPoints = 8;
  for (std::uint64_t k = 0; k < kPoints; ++k) {
    const std::uint64_t point =
        commit_begin + k * (total - commit_begin) / kPoints;
    SCOPED_TRACE("crash at op " + std::to_string(point) +
                 " of commit window [" + std::to_string(commit_begin) + ", " +
                 std::to_string(total) + ")");
    ReplicatedClusterRig rig;
    const std::uint64_t j = rig.cluster->director().define_job("c", "d");
    storage::FaultConfig faults;
    faults.crash_after_ops = point;
    rig.injector->set_config(faults);

    cluster_backup(*rig.cluster, j, 0, 60);
    Result<core::ClusterDedup2Result> round1 = rig.cluster->run_dedup2(true);
    ASSERT_TRUE(round1.ok()) << round1.error().to_string();

    cluster_backup(*rig.cluster, j, 100, 60);
    Result<core::ClusterDedup2Result> round2 = rig.cluster->run_dedup2(true);
    EXPECT_FALSE(round2.ok()) << "commit-window crash must fail the round";
    EXPECT_TRUE(rig.injector->crashed());

    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t backup = core::PartitionMap::backup_of(p, n);
      // Partition p's copies: the primary image of server p, and the
      // replica image hosted on its backup server.
      std::optional<index::DiskIndex> copies[2] = {
          open_image_clone(*(*rig.inners)[p],
                           rig.cluster->server(p).config().index_params),
          open_image_clone(
              *(*rig.inners)[n + backup],
              rig.cluster->server(backup).config().index_params)};
      bool some_copy_intact = false;
      for (auto& copy : copies) {
        if (!copy.has_value()) continue;
        bool intact = true;
        for (std::size_t i = 0; i < acked.size(); ++i) {
          if (profile.cluster->owner_of(acked[i]) != p) continue;
          Result<ContainerId> got = copy->lookup(acked[i]);
          if (!got.ok() || got.value() != truth[i]) {
            intact = false;
            break;
          }
        }
        some_copy_intact |= intact;
      }
      EXPECT_TRUE(some_copy_intact)
          << "both copies of partition " << p << " lost acked entries";
    }

    // And the acked payloads are still where the intact copy says: the
    // repository is outside the injector, so this pins that the index
    // entries point at real, readable containers.
    for (std::size_t i = 0; i < acked.size(); ++i) {
      Result<storage::Container> container =
          rig.cluster->repository().read(truth[i]);
      ASSERT_TRUE(container.ok()) << container.error().to_string();
      EXPECT_TRUE(container.value().find(acked[i]).has_value());
    }
  }
}

}  // namespace
}  // namespace debar
