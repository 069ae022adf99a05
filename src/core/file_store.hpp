// File Store — the dedup-1 engine on a backup server (Section 3.3, 5.1).
//
// Receives backup streams from clients: builds file indices, runs every
// incoming fingerprint through the preliminary filter (seeded with the job
// chain's previous version), appends surviving <F, D(F)> groups to the
// on-disk chunk log, and hands the finished version's metadata to the
// director. At job end the filter's 'new' fingerprints become the
// undetermined fingerprint file that dedup-2 will resolve.
//
// Multiple clients stream to one server concurrently (the paper runs four
// per server): each job runs in a *session*, and sessions may interleave
// and run from different threads. The preliminary filter, chunk log, NIC
// and undetermined set are shared server-state guarded by one mutex —
// which also matches the hardware model, since concurrent clients share
// the server's single wire and log device anyway. The sessionless API
// (begin_job .. end_job) drives a single implicit session and remains the
// convenient form for one-client-at-a-time callers.
#pragma once

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "core/director.hpp"
#include "core/metadata.hpp"
#include "filter/preliminary_filter.hpp"
#include "sim/nic_model.hpp"
#include "storage/chunk_log.hpp"

namespace debar::core {

struct FileStoreStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t files_received = 0;
  std::uint64_t logical_bytes = 0;      // bytes the clients backed up
  std::uint64_t transferred_bytes = 0;  // chunk payloads that crossed the wire
  std::uint64_t suppressed_bytes = 0;   // saved by the preliminary filter
  std::uint64_t log_records = 0;
};

class FileStore {
 public:
  using SessionId = std::uint64_t;

  /// `log` and `nic` are owned by the enclosing BackupServer; `director`
  /// is the cluster-wide metadata manager, which learns from this store
  /// which versions wait for dedup-2 on `server_id`.
  FileStore(filter::PreliminaryFilterParams filter_params,
            storage::ChunkLog* log, sim::NicModel* nic, Director* director,
            std::size_t server_id = 0);

  // ---- Session API (concurrent clients; thread-safe) ----

  /// Start a job run in its own session. Seeds the preliminary filter
  /// with the previous version's fingerprints from the director
  /// (job-chain semantics) — unless that version still waits for dedup-2
  /// on another server: its payloads sit in that server's chunk log, so a
  /// fingerprint suppressed here would reach dedup-2 with no data behind
  /// it. Sessions may interleave arbitrarily.
  [[nodiscard]] SessionId open_session(std::uint64_t job_id);

  /// Metadata backup for the next file of the session's job.
  void begin_file(SessionId session, FileMetadata meta);

  /// The client offers one chunk fingerprint (in stream order). Returns
  /// true if the chunk payload must be transferred (filter miss); either
  /// way the fingerprint is appended to the session's current file index.
  [[nodiscard]] bool offer_fingerprint(SessionId session,
                                       const Fingerprint& fp,
                                       std::uint32_t chunk_size);

  /// Content backup of one admitted chunk: payload crosses the (modeled)
  /// wire and lands in the shared chunk log.
  [[nodiscard]] Status receive_chunk(SessionId session, const Fingerprint& fp,
                                     ByteSpan data);

  void end_file(SessionId session);

  /// File-level preliminary filtering (Section 5.1's coarse-granularity
  /// path): record a file the client detected as unchanged since the
  /// previous version. Its file index is copied from `previous` — no
  /// fingerprint traffic, no chunk transfer, only a metadata message.
  void record_unchanged_file(SessionId session, const FileRecord& previous);

  /// Finish the session: collect the undetermined fingerprints and submit
  /// the version record to the director. Returns the completed record.
  [[nodiscard]] Result<JobVersionRecord> close_session(SessionId session);

  // ---- Single-session convenience API (one client at a time) ----

  void begin_job(std::uint64_t job_id);
  void begin_file(FileMetadata meta);
  [[nodiscard]] bool offer_fingerprint(const Fingerprint& fp,
                                       std::uint32_t chunk_size);
  [[nodiscard]] Status receive_chunk(const Fingerprint& fp, ByteSpan data);
  void end_file();
  void record_unchanged_file(const FileRecord& previous);
  [[nodiscard]] Result<JobVersionRecord> end_job();

  // ---- Dedup-2 hand-off ----

  /// Drain the undetermined fingerprint files accumulated since the last
  /// dedup-2 (sorted, deduplicated).
  [[nodiscard]] std::vector<Fingerprint> take_undetermined();

  /// Return a drained undetermined set: a cluster round that aborts
  /// before chunk storing (an unreachable peer) puts the fingerprints
  /// back so the next round resolves them. Merging with fingerprints
  /// accumulated meanwhile is fine — take_undetermined re-deduplicates.
  void restore_undetermined(std::vector<Fingerprint> fps);

  /// The round that made the last take_undetermined registered every
  /// entry it produced: the versions acknowledged before that take are
  /// resolved, which releases their job/server affinity at the director.
  void commit_undetermined();

  [[nodiscard]] std::uint64_t undetermined_count() const;

  [[nodiscard]] FileStoreStats stats() const;
  [[nodiscard]] std::size_t open_sessions() const;

 private:
  struct Session {
    std::uint64_t job_id = 0;
    JobVersionRecord record;
    FileRecord current_file;
    bool file_active = false;
  };

  [[nodiscard]] Session& session_ref(SessionId id);

  filter::PreliminaryFilterParams filter_params_;
  filter::PreliminaryFilter filter_;
  storage::ChunkLog* log_;
  sim::NicModel* nic_;
  Director* director_;
  std::size_t server_id_;

  mutable std::mutex mutex_;
  /// Versions acknowledged here so far, and how many of them the last
  /// take_undetermined drained (the director's affinity tickets).
  std::uint64_t versions_acked_ = 0;
  std::uint64_t versions_drained_ = 0;
  std::unordered_map<SessionId, Session> sessions_;
  SessionId next_session_ = 1;
  SessionId implicit_session_ = 0;  // 0 = none open

  std::vector<Fingerprint> undetermined_;
  FileStoreStats stats_;
};

}  // namespace debar::core
