#include "core/file_store.hpp"

#include <algorithm>
#include <cassert>

namespace debar::core {

namespace {
/// Wire cost of announcing one fingerprint to the server.
constexpr std::uint64_t kFingerprintWireBytes = Fingerprint::kSize;
/// Wire cost of a file's metadata record.
constexpr std::uint64_t kMetadataWireBytes = 256;
}  // namespace

FileStore::FileStore(filter::PreliminaryFilterParams filter_params,
                     storage::ChunkLog* log, sim::NicModel* nic,
                     Director* director, std::size_t server_id)
    : filter_params_(filter_params),
      filter_(filter_params),
      log_(log),
      nic_(nic),
      director_(director),
      server_id_(server_id) {
  assert(log_ != nullptr);
  assert(nic_ != nullptr);
  assert(director_ != nullptr);
}

FileStore::Session& FileStore::session_ref(SessionId id) {
  const auto it = sessions_.find(id);
  assert(it != sessions_.end() && "unknown or closed session");
  return it->second;
}

FileStore::SessionId FileStore::open_session(std::uint64_t job_id) {
  std::lock_guard lock(mutex_);
  // The paper initializes the preliminary filter per job run (Section
  // 5.1: "Before running, the preliminary filter is initialized by
  // inserting into it the filtering fingerprints"). Re-initialize
  // whenever no other session is live; while sessions overlap the filter
  // is shared and the new job's filtering fingerprints are added beside
  // the running sessions' state. Nothing is lost by the clear: every
  // closed session already drained its 'new' marks, and un-drained marks
  // can only belong to open sessions.
  if (sessions_.empty()) filter_.clear();

  const SessionId id = next_session_++;
  Session& session = sessions_[id];
  session.job_id = job_id;
  session.record.job_id = job_id;
  session.record.version = director_->next_version(job_id);

  // Seed with the previous version of this job chain (the filtering
  // fingerprints). A duplicate hit against any resident entry only
  // increases dedup-1 suppression, never correctness risk, because every
  // referenced fingerprint is re-marked 'new' for dedup-2 — provided the
  // payloads are stored, or wait in THIS server's chunk log. A version
  // still unresolved on another server seeds nothing: dedup-2 could name
  // this server the storer of a chunk whose data only that one holds.
  const std::optional<std::size_t> holder =
      director_->unresolved_holder(job_id);
  if (!holder.has_value() || *holder == server_id_) {
    for (const Fingerprint& fp : director_->filtering_fingerprints(job_id)) {
      filter_.seed(fp);
    }
  }
  return id;
}

void FileStore::begin_file(SessionId id, FileMetadata meta) {
  std::lock_guard lock(mutex_);
  Session& session = session_ref(id);
  assert(!session.file_active);
  session.file_active = true;
  session.current_file = FileRecord{};
  session.current_file.meta = std::move(meta);
  nic_->transfer(kMetadataWireBytes);
}

bool FileStore::offer_fingerprint(SessionId id, const Fingerprint& fp,
                                  std::uint32_t chunk_size) {
  std::lock_guard lock(mutex_);
  Session& session = session_ref(id);
  assert(session.file_active);
  nic_->transfer(kFingerprintWireBytes);
  session.current_file.chunk_fps.push_back(fp);
  session.current_file.chunk_sizes.push_back(chunk_size);
  session.record.logical_bytes += chunk_size;
  stats_.logical_bytes += chunk_size;

  const bool need_transfer = filter_.admit(fp);
  if (!need_transfer) stats_.suppressed_bytes += chunk_size;
  return need_transfer;
}

Status FileStore::receive_chunk(SessionId id, const Fingerprint& fp,
                                ByteSpan data) {
  std::lock_guard lock(mutex_);
  Session& session = session_ref(id);
  assert(session.file_active);
  (void)session;
  nic_->transfer(data.size());
  stats_.transferred_bytes += data.size();
  ++stats_.log_records;
  return log_->append(fp, data);
}

void FileStore::end_file(SessionId id) {
  std::lock_guard lock(mutex_);
  Session& session = session_ref(id);
  assert(session.file_active);
  session.file_active = false;
  session.record.files.push_back(std::move(session.current_file));
  ++stats_.files_received;
}

void FileStore::record_unchanged_file(SessionId id,
                                      const FileRecord& previous) {
  std::lock_guard lock(mutex_);
  Session& session = session_ref(id);
  assert(!session.file_active);
  nic_->transfer(kMetadataWireBytes);  // only the metadata message
  const std::uint64_t bytes = previous.logical_bytes();
  session.record.logical_bytes += bytes;
  stats_.logical_bytes += bytes;
  stats_.suppressed_bytes += bytes;
  session.record.files.push_back(previous);
  ++stats_.files_received;
}

Result<JobVersionRecord> FileStore::close_session(SessionId id) {
  std::lock_guard lock(mutex_);
  Session& session = session_ref(id);
  assert(!session.file_active && "file still open at session close");

  // Everything referenced by the server's sessions so far and not yet
  // known-stored joins the undetermined fingerprint file for dedup-2.
  // (Collection drains 'new' marks shared with still-open sessions;
  // harmless — the fingerprints simply queue for dedup-2 earlier.)
  std::vector<Fingerprint> undetermined = filter_.collect_undetermined();
  undetermined_.insert(undetermined_.end(), undetermined.begin(),
                       undetermined.end());

  JobVersionRecord record = std::move(session.record);
  sessions_.erase(id);
  if (Status s = director_->submit_version(record); !s.ok()) {
    // The version's metadata never became durable: the backup is not
    // acknowledged. The client re-runs the job; its chunks are already in
    // the log/repository and will simply deduplicate.
    return Error{s.code(), "version submit failed: " + s.message()};
  }
  director_->hold_version(record.job_id, server_id_, ++versions_acked_);
  ++stats_.jobs_completed;
  return record;
}

// ---- Single-session convenience wrappers ----

void FileStore::begin_job(std::uint64_t job_id) {
  assert(implicit_session_ == 0 && "previous job not finished");
  implicit_session_ = open_session(job_id);
}

void FileStore::begin_file(FileMetadata meta) {
  begin_file(implicit_session_, std::move(meta));
}

bool FileStore::offer_fingerprint(const Fingerprint& fp,
                                  std::uint32_t chunk_size) {
  return offer_fingerprint(implicit_session_, fp, chunk_size);
}

Status FileStore::receive_chunk(const Fingerprint& fp, ByteSpan data) {
  return receive_chunk(implicit_session_, fp, data);
}

void FileStore::end_file() { end_file(implicit_session_); }

void FileStore::record_unchanged_file(const FileRecord& previous) {
  record_unchanged_file(implicit_session_, previous);
}

Result<JobVersionRecord> FileStore::end_job() {
  const SessionId id = implicit_session_;
  implicit_session_ = 0;
  return close_session(id);
}

// ---- Dedup-2 hand-off ----

std::vector<Fingerprint> FileStore::take_undetermined() {
  std::lock_guard lock(mutex_);
  std::vector<Fingerprint> out = std::move(undetermined_);
  undetermined_.clear();
  versions_drained_ = versions_acked_;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void FileStore::restore_undetermined(std::vector<Fingerprint> fps) {
  std::lock_guard lock(mutex_);
  if (undetermined_.empty()) {
    undetermined_ = std::move(fps);
  } else {
    undetermined_.insert(undetermined_.end(), fps.begin(), fps.end());
  }
}

void FileStore::commit_undetermined() {
  std::lock_guard lock(mutex_);
  director_->release_versions(server_id_, versions_drained_);
}

std::uint64_t FileStore::undetermined_count() const {
  std::lock_guard lock(mutex_);
  return undetermined_.size();
}

FileStoreStats FileStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t FileStore::open_sessions() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

}  // namespace debar::core
