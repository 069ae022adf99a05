// Director (Section 3.1): the control centre.
//
// Holds job objects, schedules them onto backup servers (least-loaded
// assignment), and runs the Metadata Manager: every completed job version's
// file metadata and file indices live here, which is what makes job-chain
// preliminary filtering and restores possible. The director also decides
// when to initiate dedup-2.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "core/metadata.hpp"
#include "core/metadata_store.hpp"

namespace debar::core {

/// Retention policy (DESIGN.md §5k): which versions of a job chain stay
/// restorable. A version is KEPT if it is among the newest `keep_last`
/// versions of its job (when keep_last > 0) OR its age in simulated days
/// is <= `keep_days` (when keep_days > 0). Both zero means keep
/// everything (the pre-retention behaviour). The latest version of a job
/// is never expired regardless of age — the job chain's filtering
/// fingerprints and the next incremental run depend on it.
struct RetentionPolicy {
  std::uint32_t keep_last = 0;
  std::uint32_t keep_days = 0;

  [[nodiscard]] bool unbounded() const noexcept {
    return keep_last == 0 && keep_days == 0;
  }
};

struct DirectorConfig {
  RetentionPolicy retention;
  /// Simulated-day period between maintenance rounds (expiry + GC +
  /// compaction); 0 disables director-driven scheduling and leaves
  /// maintenance to explicit MaintenanceJob runs.
  std::uint32_t maintenance_period_days = 0;
};

class Director {
 public:
  Director() = default;
  explicit Director(DirectorConfig config);

  /// Attach a persistent metadata store (Section 6.3): every submitted
  /// version is also appended there, and recover() reloads state after a
  /// restart. Not owned; may be null (in-memory only).
  void attach_metadata_store(MetadataStore* store);

  /// Rebuild the in-memory version catalogue from the attached store.
  [[nodiscard]] Status recover();

  // ---- Job objects & scheduling ----

  /// Register a job object; returns its ID.
  std::uint64_t define_job(std::string client_name, std::string dataset_name,
                           std::uint32_t schedule_period_days = 1);

  [[nodiscard]] std::optional<JobSpec> job(std::uint64_t job_id) const;
  [[nodiscard]] std::vector<JobSpec> jobs_due_on_day(std::uint32_t day) const;

  /// Least-loaded assignment of a job run to one of `server_count`
  /// servers; load = logical bytes routed to each server so far. Servers
  /// marked unreachable are skipped unless every server is (then the
  /// plain least-loaded answer stands — the caller will fail loudly).
  /// Job/server affinity (DESIGN.md §5l): while the job's latest version
  /// waits for dedup-2 on a reachable server, the run goes back there.
  [[nodiscard]] std::size_t assign_server(std::uint64_t job_id,
                                          std::uint64_t expected_bytes,
                                          std::size_t server_count);

  /// Affinity bookkeeping, fed by each server's File Store: a version of
  /// `job_id` was acknowledged on `server` as that server's `ticket`-th
  /// version, and its chunks wait there for dedup-2.
  void hold_version(std::uint64_t job_id, std::size_t server,
                    std::uint64_t ticket);
  /// A dedup-2 round committed every version `server` acknowledged up to
  /// and including `ticket`.
  void release_versions(std::size_t server, std::uint64_t ticket);
  /// The server holding the job's latest version while dedup-2 has not
  /// committed it there yet; nullopt once it has (or for a new job).
  [[nodiscard]] std::optional<std::size_t> unresolved_holder(
      std::uint64_t job_id) const;

  /// Health bookkeeping, fed by the cluster's transport layer: a degraded
  /// dedup-2 round marks the peers it could not reach, and a completed
  /// round clears the marks (every exchange succeeded).
  void mark_unreachable(std::size_t server);
  void mark_reachable(std::size_t server);
  [[nodiscard]] bool is_unreachable(std::size_t server) const;

  /// Round-boundary probe, the flip side of mark_unreachable (which would
  /// otherwise exclude a server from assignment forever): re-admit every
  /// marked server `reachable` says the transport can talk to again.
  /// Retired servers are never re-admitted.
  void probe_reachability(std::size_t server_count,
                          const std::function<bool(std::size_t)>& reachable);
  [[nodiscard]] std::vector<std::size_t> unreachable_servers() const;

  /// Permanent removal: a drained server leaves the fleet for good. It is
  /// skipped by assignment and never re-admitted by probe_reachability —
  /// unlike mark_unreachable, which models a transient outage.
  void retire_server(std::size_t server);

  // ---- Metadata manager ----

  /// Record a completed job version (called by the backup server's File
  /// Store at the end of dedup-1). When a metadata store is attached the
  /// record must reach it before the version is catalogued — a version
  /// that is acknowledged but not durable would be unrestorable after a
  /// restart, so the append failure is the caller's failure.
  [[nodiscard]] Status submit_version(JobVersionRecord record);

  [[nodiscard]] std::optional<JobVersionRecord> version(
      std::uint64_t job_id, std::uint32_t version) const;
  [[nodiscard]] std::optional<JobVersionRecord> latest_version(
      std::uint64_t job_id) const;
  [[nodiscard]] std::uint32_t version_count(std::uint64_t job_id) const;

  /// Next version number for a new run of this job (max existing + 1, so
  /// retired versions never cause number reuse).
  [[nodiscard]] std::uint32_t next_version(std::uint64_t job_id) const;

  /// Retire a version (expired retention): removed from the catalogue and
  /// tombstoned in the metadata store. Its chunks become garbage unless
  /// shared; reclaiming them is the garbage collector's job (core/gc.hpp).
  [[nodiscard]] Status drop_version(std::uint64_t job_id,
                                    std::uint32_t version);

  /// Every live version across every job (the GC mark set source).
  [[nodiscard]] std::vector<JobVersionRecord> all_versions() const;

  // ---- Retention & maintenance scheduling ----

  [[nodiscard]] const RetentionPolicy& retention() const noexcept {
    return config_.retention;
  }

  /// Advance the director's simulated-day clock. submit_version stamps
  /// records whose backup_day is unset with the current day, so schedulers
  /// only need to keep this in step with the days they drive.
  void set_current_day(std::uint32_t day);
  [[nodiscard]] std::uint32_t current_day() const;

  /// (job_id, version) pairs the retention policy expires as of `today`,
  /// oldest first. Pure query — dropping them (and reclaiming their
  /// chunks) is the MaintenanceJob's move, so a crashed maintenance run
  /// simply reports the same versions again.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint32_t>>
  expired_versions(std::uint32_t today) const;

  /// Director-driven maintenance cadence: true once per
  /// maintenance_period_days. note_maintenance records a completed round.
  [[nodiscard]] bool maintenance_due(std::uint32_t day) const;
  void note_maintenance(std::uint32_t day);

  /// Filtering fingerprints for a job run: the full fingerprint sequence
  /// of the chain's previous version (empty for the first run).
  [[nodiscard]] std::vector<Fingerprint> filtering_fingerprints(
      std::uint64_t job_id) const;

  /// Total logical bytes across all recorded versions.
  [[nodiscard]] std::uint64_t total_logical_bytes() const;

 private:
  struct Holder {
    std::size_t server;
    std::uint64_t ticket;
  };

  mutable std::mutex mutex_;
  DirectorConfig config_;
  std::uint32_t current_day_ = 0;
  std::uint32_t last_maintenance_day_ = 0;
  bool maintenance_ran_ = false;
  std::vector<JobSpec> jobs_;
  std::map<std::uint64_t, std::vector<JobVersionRecord>> versions_;
  std::vector<std::uint64_t> server_load_;
  std::set<std::size_t> unreachable_servers_;
  std::set<std::size_t> retired_servers_;
  /// Latest version of each job still waiting for dedup-2: where, and
  /// its ticket there.
  std::map<std::uint64_t, Holder> holders_;
  std::uint64_t next_job_id_ = 1;
  MetadataStore* metadata_store_ = nullptr;
};

}  // namespace debar::core
