// MaintenanceJob: retention-driven expiry, garbage collection, and
// restore-locality compaction as one director-scheduled job object
// (DESIGN.md §5k).
//
// The job-object idiom backup and restore already use: construct against
// a single server or a cluster, plan() to see what a round would do,
// execute() to run it, report() for the structured outcome. One round is
//
//   EXPIRE   drop versions the director's RetentionPolicy has aged out
//            (keep-last-N / keep-days; the latest version of every job
//            chain always survives);
//   MARK     resolve every surviving version's fingerprints to containers
//            through the index — one sequential extraction per partition
//            copy, shipped over the wire in cluster mode (GcMarkRequest /
//            GcMarkReply, epoch-fenced);
//   COMPACT  stage locality rewrites (core/defrag.hpp) for fragmented
//            versions, newest first, then sweep containers
//            (core/gc.hpp): fully-dead ones are deleted, mostly-dead
//            ones compacted into staged containers under reserved IDs;
//   INSTALL  rebuild every index copy of every partition from the
//            canonical post-GC sorted entry stream on freshly minted
//            devices (both copies from the same stream — byte-identical,
//            closing the GC-era replica drift);
//   COMMIT   publish staged containers, swap the staged indexes in (pure
//            in-memory), remove dead containers.
//
// Every fallible step happens before COMMIT, so a crash anywhere in the
// window leaves the old state byte-identical to a never-attempted twin
// (swept by the fault-injection rig, ctest -L net-retention).
//
// The job refuses to start with the retryable kBusy while dedup-2 state
// is in flight (pending SIU entries on any copy, deferred phase-E
// entries, owed catch-up, an unreachable live slot) and with the
// permanent kUnsupported when the single-server form is pointed at a
// routed index part (use the Cluster form).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "core/defrag.hpp"
#include "core/director.hpp"
#include "core/gc.hpp"
#include "index/disk_index.hpp"

namespace debar::core {

class BackupServer;  // core/backup_server.hpp
class Cluster;       // core/cluster.hpp
class ClusterNode;   // core/cluster_node.hpp

struct MaintenanceConfig {
  /// Stage toggles: expire versions per the director's retention policy,
  /// reclaim dead containers (delete + compact), re-sequence fragmented
  /// versions for restore locality.
  bool expire = true;
  bool reclaim = true;
  bool locality = true;
  /// Day the retention clock evaluates against; 0 means the director's
  /// current day.
  std::uint32_t today = 0;
  /// Containers with live fraction below this are compacted.
  double compact_threshold = 0.5;
  /// A version is re-sequenced if it touches more than this many storage
  /// nodes...
  std::uint64_t locality_node_threshold = 1;
  /// ...or references more distinct containers per 1024 consecutive
  /// chunks than this (0 disables the container criterion).
  double locality_container_threshold = 0.0;
  /// Storage node locality rewrites are pinned to.
  std::size_t locality_node = 0;
  std::uint64_t container_capacity = kContainerSize;
};

/// What a round would do (plan()) — also the skeleton execute() follows.
struct MaintenancePlan {
  /// (job, version) pairs retention expires this round.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expire;
  /// Versions whose placement exceeds the locality thresholds (measured
  /// against the post-expiry live set).
  std::vector<std::pair<std::uint64_t, std::uint32_t>> rewrite;
  std::uint64_t live_versions = 0;
  /// Distinct live fingerprints after expiry.
  std::uint64_t live_chunks = 0;
};

/// Structured outcome of one executed round: the old GcReport and
/// DefragResult merged, plus retention accounting.
struct MaintenanceReport {
  std::uint64_t versions_expired = 0;
  std::uint64_t versions_rewritten = 0;
  std::uint64_t chunks_rewritten = 0;

  std::uint64_t containers_scanned = 0;
  std::uint64_t containers_deleted = 0;    // fully dead + compacted originals
  std::uint64_t containers_compacted = 0;  // partially dead, rewritten
  std::uint64_t containers_written = 0;    // compaction + locality output
  std::uint64_t live_chunks = 0;
  std::uint64_t dead_chunks = 0;
  std::uint64_t bytes_reclaimed = 0;

  /// Aggregate placement of the versions the locality pass rewrote
  /// (chunk-weighted), before staging and after commit.
  FragmentationReport locality_before;
  FragmentationReport locality_after;
};

class MaintenanceJob {
 public:
  /// Single-server form: the server's ChunkStore index must cover the
  /// whole fingerprint space (skip_bits == 0; kUnsupported otherwise).
  MaintenanceJob(Director& director, BackupServer& server,
                 storage::ChunkRepository& repository,
                 MaintenanceConfig config = {});

  /// Cluster form: mark/install ride the cluster's transport and every
  /// partition copy is rebuilt (DESIGN.md §5k).
  explicit MaintenanceJob(Cluster& cluster, MaintenanceConfig config = {});

  /// SPMD form: `node` is the driver of a round whose peers all sit in
  /// ClusterNode::serve_maintenance; the director and repository are the
  /// driver process's (debar_clusterd hosts them at node 0).
  MaintenanceJob(ClusterNode& node, Director& director,
                 storage::ChunkRepository& repository,
                 MaintenanceConfig config = {});

  /// Read-only preview: what execute() would expire and rewrite. Same
  /// preconditions as execute (kBusy / kUnsupported).
  [[nodiscard]] Result<MaintenancePlan> plan();

  /// Run the round. On success report() holds the outcome and the
  /// director's maintenance clock is advanced; on failure nothing
  /// published — repository and every index copy are untouched.
  [[nodiscard]] Status execute();

  [[nodiscard]] const MaintenanceReport& report() const noexcept {
    return report_;
  }

 private:
  [[nodiscard]] Status preconditions() const;
  [[nodiscard]] std::uint32_t today() const;
  /// Live versions after dropping `expired` (query only — nothing
  /// dropped yet).
  [[nodiscard]] std::vector<JobVersionRecord> surviving_versions(
      std::span<const std::pair<std::uint64_t, std::uint32_t>> expired)
      const;
  /// MARK: resolve every fingerprint of `versions` through the index.
  [[nodiscard]] Result<LiveMap> mark(
      const std::vector<JobVersionRecord>& versions);
  /// Versions of `versions` exceeding the locality thresholds, newest
  /// first.
  [[nodiscard]] std::vector<const JobVersionRecord*> fragmented_versions(
      const std::vector<JobVersionRecord>& versions,
      const LiveMap& live_map) const;
  /// INSTALL + COMMIT for the backend in use.
  [[nodiscard]] Status install_and_commit(const LiveMap& live_map,
                                          SweepPlan plan);

  Director* director_;
  BackupServer* server_ = nullptr;  // single-server form
  Cluster* cluster_ = nullptr;      // cluster form
  ClusterNode* node_ = nullptr;     // SPMD form (driver node)
  storage::ChunkRepository* repository_;
  MaintenanceConfig config_;
  MaintenanceReport report_;
};

/// Classify an index copy's entries against a sorted live fingerprint
/// set: one sequential extraction, then a linear merge. Returns the
/// entries whose fingerprint is live — the GcMarkReply payload. Shared by
/// the in-process cluster and the SPMD peer loop.
[[nodiscard]] Result<std::vector<IndexEntry>> classify_live_entries(
    const index::DiskIndex& idx, std::span<const Fingerprint> sorted_live);

/// Bulk-load `sorted` into a fresh index on one of `host`'s minted
/// devices, growing on kFull through IndexPart::insert_sorted — the
/// capacity-scaling loop SIU runs. The INSTALL kernel every backend shares (in-process cluster,
/// single server, SPMD peer) — determinism of the rebuilt image is what
/// makes the two copies of a partition byte-identical.
[[nodiscard]] Result<index::DiskIndex> build_staged_index(
    BackupServer& host, const index::DiskIndexParams& params,
    std::vector<IndexEntry> sorted);

}  // namespace debar::core
