#include "core/director.hpp"

#include <algorithm>

#include "common/log.hpp"

namespace debar::core {

Director::Director(DirectorConfig config) : config_(std::move(config)) {}

std::uint64_t Director::define_job(std::string client_name,
                                   std::string dataset_name,
                                   std::uint32_t schedule_period_days) {
  std::lock_guard lock(mutex_);
  JobSpec spec;
  spec.job_id = next_job_id_++;
  spec.client_name = std::move(client_name);
  spec.dataset_name = std::move(dataset_name);
  spec.schedule_period_days = std::max<std::uint32_t>(1, schedule_period_days);
  jobs_.push_back(spec);
  return spec.job_id;
}

std::optional<JobSpec> Director::job(std::uint64_t job_id) const {
  std::lock_guard lock(mutex_);
  for (const JobSpec& j : jobs_) {
    if (j.job_id == job_id) return j;
  }
  return std::nullopt;
}

std::vector<JobSpec> Director::jobs_due_on_day(std::uint32_t day) const {
  std::lock_guard lock(mutex_);
  std::vector<JobSpec> due;
  for (const JobSpec& j : jobs_) {
    if (day % j.schedule_period_days == 0) due.push_back(j);
  }
  return due;
}

std::size_t Director::assign_server(std::uint64_t job_id,
                                    std::uint64_t expected_bytes,
                                    std::size_t server_count) {
  std::lock_guard lock(mutex_);
  server_load_.resize(std::max(server_load_.size(), server_count), 0);
  // Affinity first: the next version's preliminary filter is seeded from
  // the latest one, which is only safe on the server whose chunk log
  // holds that version's payloads until dedup-2 commits it.
  if (const auto held = holders_.find(job_id);
      held != holders_.end() && held->second.server < server_count &&
      !unreachable_servers_.contains(held->second.server) &&
      !retired_servers_.contains(held->second.server)) {
    server_load_[held->second.server] += expected_bytes;
    return held->second.server;
  }
  // Least-loaded among reachable servers; if none is reachable, fall back
  // to least-loaded overall rather than inventing an answer.
  std::size_t best = server_count;
  for (std::size_t i = 0; i < server_count; ++i) {
    if (unreachable_servers_.contains(i) || retired_servers_.contains(i)) {
      continue;
    }
    if (best == server_count || server_load_[i] < server_load_[best]) best = i;
  }
  if (best == server_count) {
    // Nothing reachable: fall back to least-loaded overall rather than
    // inventing an answer, but still never hand work to a retired slot.
    for (std::size_t i = 0; i < server_count; ++i) {
      if (retired_servers_.contains(i)) continue;
      if (best == server_count || server_load_[i] < server_load_[best]) {
        best = i;
      }
    }
    if (best == server_count) best = 0;  // everything retired: degenerate
  }
  server_load_[best] += expected_bytes;
  return best;
}

void Director::hold_version(std::uint64_t job_id, std::size_t server,
                            std::uint64_t ticket) {
  std::lock_guard lock(mutex_);
  holders_[job_id] = Holder{server, ticket};
}

void Director::release_versions(std::size_t server, std::uint64_t ticket) {
  std::lock_guard lock(mutex_);
  std::erase_if(holders_, [&](const auto& held) {
    return held.second.server == server && held.second.ticket <= ticket;
  });
}

std::optional<std::size_t> Director::unresolved_holder(
    std::uint64_t job_id) const {
  std::lock_guard lock(mutex_);
  const auto it = holders_.find(job_id);
  if (it == holders_.end()) return std::nullopt;
  return it->second.server;
}

void Director::mark_unreachable(std::size_t server) {
  std::lock_guard lock(mutex_);
  unreachable_servers_.insert(server);
}

void Director::mark_reachable(std::size_t server) {
  std::lock_guard lock(mutex_);
  unreachable_servers_.erase(server);
}

bool Director::is_unreachable(std::size_t server) const {
  std::lock_guard lock(mutex_);
  return unreachable_servers_.contains(server);
}

void Director::probe_reachability(
    std::size_t server_count,
    const std::function<bool(std::size_t)>& reachable) {
  // Snapshot first: the probe callback may take transport locks, which
  // must never nest inside mutex_.
  std::vector<std::size_t> marked;
  {
    std::lock_guard lock(mutex_);
    for (const std::size_t s : unreachable_servers_) {
      if (s < server_count && !retired_servers_.contains(s)) marked.push_back(s);
    }
  }
  for (const std::size_t s : marked) {
    if (reachable(s)) mark_reachable(s);
  }
}

std::vector<std::size_t> Director::unreachable_servers() const {
  std::lock_guard lock(mutex_);
  return {unreachable_servers_.begin(), unreachable_servers_.end()};
}

void Director::retire_server(std::size_t server) {
  std::lock_guard lock(mutex_);
  retired_servers_.insert(server);
  // A retired server is not "unreachable" — it is gone. Drop any transient
  // mark so degraded-round accounting never resurrects it.
  unreachable_servers_.erase(server);
}

void Director::attach_metadata_store(MetadataStore* store) {
  std::lock_guard lock(mutex_);
  metadata_store_ = store;
}

Status Director::recover() {
  std::lock_guard lock(mutex_);
  if (metadata_store_ == nullptr) {
    return {Errc::kInvalidArgument, "no metadata store attached"};
  }
  Result<std::vector<JobVersionRecord>> records = metadata_store_->load_all();
  if (!records.ok()) {
    return Status(records.error().code, records.error().message);
  }
  versions_.clear();
  std::uint64_t max_job = 0;
  for (JobVersionRecord& rec : records.value()) {
    max_job = std::max(max_job, rec.job_id);
    versions_[rec.job_id].push_back(std::move(rec));
  }
  next_job_id_ = std::max(next_job_id_, max_job + 1);
  return Status::Ok();
}

Status Director::submit_version(JobVersionRecord record) {
  std::lock_guard lock(mutex_);
  if (record.backup_day == 0) record.backup_day = current_day_;
  if (metadata_store_ != nullptr) {
    if (Status s = metadata_store_->append(record); !s.ok()) {
      // Keep the in-memory catalogue consistent with what we acknowledge:
      // the version is not recorded anywhere.
      DEBAR_LOG_ERROR("metadata store append failed: {}", s.to_string());
      return s;
    }
  }
  versions_[record.job_id].push_back(std::move(record));
  return Status::Ok();
}

std::optional<JobVersionRecord> Director::version(std::uint64_t job_id,
                                                  std::uint32_t version) const {
  std::lock_guard lock(mutex_);
  const auto it = versions_.find(job_id);
  if (it == versions_.end()) return std::nullopt;
  for (const JobVersionRecord& r : it->second) {
    if (r.version == version) return r;
  }
  return std::nullopt;
}

std::optional<JobVersionRecord> Director::latest_version(
    std::uint64_t job_id) const {
  std::lock_guard lock(mutex_);
  const auto it = versions_.find(job_id);
  if (it == versions_.end() || it->second.empty()) return std::nullopt;
  return it->second.back();
}

std::uint32_t Director::version_count(std::uint64_t job_id) const {
  std::lock_guard lock(mutex_);
  const auto it = versions_.find(job_id);
  return it == versions_.end() ? 0
                               : static_cast<std::uint32_t>(it->second.size());
}

std::uint32_t Director::next_version(std::uint64_t job_id) const {
  std::lock_guard lock(mutex_);
  const auto it = versions_.find(job_id);
  std::uint32_t max_version = 0;
  if (it != versions_.end()) {
    for (const JobVersionRecord& r : it->second) {
      max_version = std::max(max_version, r.version);
    }
  }
  return max_version + 1;
}

Status Director::drop_version(std::uint64_t job_id, std::uint32_t version) {
  std::lock_guard lock(mutex_);
  const auto it = versions_.find(job_id);
  if (it == versions_.end()) {
    return {Errc::kNotFound, format("job {} has no versions", job_id)};
  }
  const auto pos =
      std::find_if(it->second.begin(), it->second.end(),
                   [&](const JobVersionRecord& r) {
                     return r.version == version;
                   });
  if (pos == it->second.end()) {
    return {Errc::kNotFound,
            format("job {} version {} not recorded", job_id, version)};
  }
  it->second.erase(pos);
  if (metadata_store_ != nullptr) {
    if (Status s = metadata_store_->append_tombstone(job_id, version);
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

std::vector<JobVersionRecord> Director::all_versions() const {
  std::lock_guard lock(mutex_);
  std::vector<JobVersionRecord> out;
  for (const auto& [job, records] : versions_) {
    out.insert(out.end(), records.begin(), records.end());
  }
  return out;
}

void Director::set_current_day(std::uint32_t day) {
  std::lock_guard lock(mutex_);
  current_day_ = std::max(current_day_, day);
}

std::uint32_t Director::current_day() const {
  std::lock_guard lock(mutex_);
  return current_day_;
}

std::vector<std::pair<std::uint64_t, std::uint32_t>>
Director::expired_versions(std::uint32_t today) const {
  std::lock_guard lock(mutex_);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expired;
  const RetentionPolicy& policy = config_.retention;
  if (policy.unbounded()) return expired;
  for (const auto& [job, records] : versions_) {
    if (records.empty()) continue;
    // Rank by version number, newest first; records arrive in submit
    // order but drop_version can leave holes, so sort explicitly.
    std::vector<const JobVersionRecord*> ranked;
    ranked.reserve(records.size());
    for (const JobVersionRecord& r : records) ranked.push_back(&r);
    std::sort(ranked.begin(), ranked.end(),
              [](const JobVersionRecord* a, const JobVersionRecord* b) {
                return a->version > b->version;
              });
    for (std::size_t rank = 0; rank < ranked.size(); ++rank) {
      const JobVersionRecord& r = *ranked[rank];
      if (rank == 0) continue;  // latest of the chain is never expired
      const bool kept_by_count =
          policy.keep_last > 0 && rank < policy.keep_last;
      const std::uint32_t age =
          today >= r.backup_day ? today - r.backup_day : 0;
      const bool kept_by_age = policy.keep_days > 0 && age <= policy.keep_days;
      if (!kept_by_count && !kept_by_age) {
        expired.emplace_back(job, r.version);
      }
    }
  }
  // Oldest first so reclamation frees the most-fragmented state first.
  std::sort(expired.begin(), expired.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  return expired;
}

bool Director::maintenance_due(std::uint32_t day) const {
  std::lock_guard lock(mutex_);
  if (config_.maintenance_period_days == 0) return false;
  if (!maintenance_ran_) return day >= config_.maintenance_period_days;
  return day >= last_maintenance_day_ + config_.maintenance_period_days;
}

void Director::note_maintenance(std::uint32_t day) {
  std::lock_guard lock(mutex_);
  maintenance_ran_ = true;
  last_maintenance_day_ = day;
}

std::vector<Fingerprint> Director::filtering_fingerprints(
    std::uint64_t job_id) const {
  std::lock_guard lock(mutex_);
  const auto it = versions_.find(job_id);
  if (it == versions_.end() || it->second.empty()) return {};
  return it->second.back().all_fingerprints();
}

std::uint64_t Director::total_logical_bytes() const {
  std::lock_guard lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& [job, records] : versions_) {
    for (const JobVersionRecord& r : records) total += r.logical_bytes;
  }
  return total;
}

}  // namespace debar::core
