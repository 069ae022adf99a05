#include "core/maintenance.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/fmt.hpp"
#include "core/backup_server.hpp"
#include "core/cluster.hpp"
#include "core/cluster_node.hpp"

namespace debar::core {

namespace {

/// Chunk-weighted aggregate of per-version fragmentation reports.
void fold_report(FragmentationReport& into, const FragmentationReport& r) {
  const double w_old = static_cast<double>(into.chunks);
  const double w_new = static_cast<double>(r.chunks);
  if (w_old + w_new > 0) {
    into.containers_per_1k_chunks =
        (into.containers_per_1k_chunks * w_old +
         r.containers_per_1k_chunks * w_new) /
        (w_old + w_new);
  }
  into.chunks += r.chunks;
  into.containers_touched += r.containers_touched;
  into.nodes_touched = std::max(into.nodes_touched, r.nodes_touched);
}

/// Sorted distinct fingerprints across every surviving version — the
/// round's mark roots.
std::vector<Fingerprint> live_fingerprints(
    const std::vector<JobVersionRecord>& versions) {
  std::vector<Fingerprint> fps;
  for (const JobVersionRecord& rec : versions) {
    for (const FileRecord& f : rec.files) {
      fps.insert(fps.end(), f.chunk_fps.begin(), f.chunk_fps.end());
    }
  }
  std::sort(fps.begin(), fps.end());
  fps.erase(std::unique(fps.begin(), fps.end()), fps.end());
  return fps;
}

}  // namespace

Result<index::DiskIndex> build_staged_index(BackupServer& host,
                                            const index::DiskIndexParams& params,
                                            std::vector<IndexEntry> sorted) {
  Result<index::DiskIndex> created =
      index::DiskIndex::create(host.mint_index_device(), params);
  if (!created.ok()) return created.error();
  // A staged copy grows exactly as SIU would grow a live one.
  const std::unique_ptr<IndexPart> staged =
      host.make_part(std::move(created).value());
  if (Result<SiuResult> loaded = staged->insert_sorted(std::move(sorted));
      !loaded.ok()) {
    return loaded.error();
  }
  return std::move(staged->index());
}

Result<std::vector<IndexEntry>> classify_live_entries(
    const index::DiskIndex& idx, std::span<const Fingerprint> sorted_live) {
  Result<std::vector<IndexEntry>> extracted = index::extract_sorted_entries(idx);
  if (!extracted.ok()) return extracted.error();
  std::vector<IndexEntry> live;
  live.reserve(sorted_live.size());
  std::size_t qi = 0;
  for (const IndexEntry& e : extracted.value()) {
    while (qi < sorted_live.size() && sorted_live[qi] < e.fp) ++qi;
    if (qi < sorted_live.size() && sorted_live[qi] == e.fp) {
      live.push_back(e);
    }
  }
  return live;
}

MaintenanceJob::MaintenanceJob(Director& director, BackupServer& server,
                               storage::ChunkRepository& repository,
                               MaintenanceConfig config)
    : director_(&director),
      server_(&server),
      repository_(&repository),
      config_(config) {}

MaintenanceJob::MaintenanceJob(Cluster& cluster, MaintenanceConfig config)
    : director_(&cluster.director()),
      cluster_(&cluster),
      repository_(&cluster.repository()),
      config_(config) {}

MaintenanceJob::MaintenanceJob(ClusterNode& node, Director& director,
                               storage::ChunkRepository& repository,
                               MaintenanceConfig config)
    : director_(&director),
      node_(&node),
      repository_(&repository),
      config_(config) {}

Status MaintenanceJob::preconditions() const {
  if (cluster_ != nullptr) return cluster_->maintenance_preconditions();
  if (node_ != nullptr) return node_->maintenance_preconditions();
  if (server_->chunk_store().index().params().skip_bits != 0) {
    return {Errc::kUnsupported,
            "routed index parts need the Cluster maintenance form"};
  }
  if (server_->chunk_store().pending_count() > 0) {
    return {Errc::kBusy,
            format("maintenance cannot run with {} SIU entries pending",
                   server_->chunk_store().pending_count())};
  }
  return Status::Ok();
}

std::uint32_t MaintenanceJob::today() const {
  return config_.today != 0 ? config_.today : director_->current_day();
}

std::vector<JobVersionRecord> MaintenanceJob::surviving_versions(
    std::span<const std::pair<std::uint64_t, std::uint32_t>> expired) const {
  std::vector<JobVersionRecord> versions = director_->all_versions();
  std::erase_if(versions, [&](const JobVersionRecord& rec) {
    return std::find(expired.begin(), expired.end(),
                     std::pair<std::uint64_t, std::uint32_t>{
                         rec.job_id, rec.version}) != expired.end();
  });
  return versions;
}

Result<LiveMap> MaintenanceJob::mark(
    const std::vector<JobVersionRecord>& versions) {
  const std::vector<Fingerprint> fps = live_fingerprints(versions);
  LiveMap live_map;
  live_map.reserve(fps.size());

  const auto fold = [&](std::span<const Fingerprint> asked,
                        const std::vector<IndexEntry>& entries) -> Status {
    if (entries.size() != asked.size()) {
      // A recorded chunk with no index mapping would be unreachable;
      // refusing to reclaim is the only safe move.
      return {Errc::kCorrupt,
              format("{} live fingerprints missing from the index; "
                     "aborting maintenance",
                     asked.size() - entries.size())};
    }
    for (const IndexEntry& e : entries) live_map.emplace(e.fp, e.container);
    return Status::Ok();
  };

  if (cluster_ == nullptr && node_ == nullptr) {
    Result<std::vector<IndexEntry>> live =
        classify_live_entries(server_->chunk_store().index(), fps);
    if (!live.ok()) return live.error();
    if (Status s = fold(fps, live.value()); !s.ok()) {
      return Error{s.code(), s.message()};
    }
    return live_map;
  }

  // Cluster / SPMD: one epoch-fenced wire exchange per partition. The
  // sorted stream cuts into contiguous per-part runs (the routing bits
  // are the most significant ones).
  const PartitionMap& map =
      cluster_ != nullptr ? cluster_->partition_map() : node_->map();
  std::size_t begin = 0;
  for (std::size_t part = 0; part < map.part_count(); ++part) {
    std::size_t end = begin;
    while (end < fps.size() && map.owner_of(fps[end]) == part) ++end;
    if (end == begin) continue;  // no live fps routed here
    std::vector<Fingerprint> slice(fps.begin() + begin, fps.begin() + end);
    Result<std::vector<IndexEntry>> live =
        cluster_ != nullptr
            ? cluster_->maintenance_mark(part, std::move(slice))
            : node_->maintenance_mark(part, std::move(slice));
    if (!live.ok()) return live.error();
    if (Status s = fold(std::span<const Fingerprint>(fps).subspan(
                            begin, end - begin),
                        live.value());
        !s.ok()) {
      return Error{s.code(), s.message()};
    }
    begin = end;
  }
  return live_map;
}

std::vector<const JobVersionRecord*> MaintenanceJob::fragmented_versions(
    const std::vector<JobVersionRecord>& versions,
    const LiveMap& live_map) const {
  std::vector<const JobVersionRecord*> fragmented;
  for (const JobVersionRecord& rec : versions) {
    const FragmentationReport r =
        measure_fragmentation(rec, live_map, *repository_);
    const bool by_nodes = r.nodes_touched > config_.locality_node_threshold;
    const bool by_containers =
        config_.locality_container_threshold > 0.0 &&
        r.containers_per_1k_chunks > config_.locality_container_threshold;
    if (by_nodes || by_containers) fragmented.push_back(&rec);
  }
  // Newest first: the most-restored version gets the freshest layout and
  // shared chunks stay where it placed them.
  std::sort(fragmented.begin(), fragmented.end(),
            [](const JobVersionRecord* a, const JobVersionRecord* b) {
              return a->backup_day != b->backup_day
                         ? a->backup_day > b->backup_day
                         : (a->job_id != b->job_id
                                ? a->job_id < b->job_id
                                : a->version > b->version);
            });
  return fragmented;
}

Result<MaintenancePlan> MaintenanceJob::plan() {
  if (Status s = preconditions(); !s.ok()) return Error{s.code(), s.message()};
  MaintenancePlan plan;
  if (config_.expire) plan.expire = director_->expired_versions(today());
  const std::vector<JobVersionRecord> versions =
      surviving_versions(plan.expire);
  plan.live_versions = versions.size();
  Result<LiveMap> live_map = mark(versions);
  if (!live_map.ok()) return live_map.error();
  plan.live_chunks = live_map.value().size();
  if (config_.locality) {
    for (const JobVersionRecord* rec :
         fragmented_versions(versions, live_map.value())) {
      plan.rewrite.emplace_back(rec->job_id, rec->version);
    }
  }
  return plan;
}

Status MaintenanceJob::install_and_commit(const LiveMap& live_map,
                                          SweepPlan plan) {
  // Canonical rebuild stream(s): live entries only, sorted.
  std::vector<IndexEntry> sorted;
  sorted.reserve(live_map.size());
  for (const auto& [fp, cid] : live_map) sorted.push_back({fp, cid});
  std::sort(
      sorted.begin(), sorted.end(),
      [](const IndexEntry& a, const IndexEntry& b) { return a.fp < b.fp; });

  if (cluster_ == nullptr && node_ == nullptr) {
    Result<index::DiskIndex> idx = build_staged_index(
        *server_, server_->chunk_store().index().params(), std::move(sorted));
    if (!idx.ok()) return idx.status();
    // ---- COMMIT: pure in-memory from here. ----
    publish_staged(*repository_, std::move(plan.staged));
    server_->rebase_chunk_store_index(std::move(idx).value());
    return remove_containers(*repository_, plan.to_remove);
  }

  // Cluster / SPMD: every partition gets its slice installed on every
  // copy — including empty slices, which clear partitions whose entries
  // all died.
  const PartitionMap& map =
      cluster_ != nullptr ? cluster_->partition_map() : node_->map();
  std::size_t begin = 0;
  for (std::size_t part = 0; part < map.part_count(); ++part) {
    std::size_t end = begin;
    while (end < sorted.size() && map.owner_of(sorted[end].fp) == part) ++end;
    std::vector<IndexEntry> slice(sorted.begin() + begin,
                                  sorted.begin() + end);
    Status s = cluster_ != nullptr
                   ? cluster_->maintenance_install(part, std::move(slice))
                   : node_->maintenance_install(part, std::move(slice));
    if (!s.ok()) {
      if (cluster_ != nullptr) {
        cluster_->maintenance_abort();
      } else {
        node_->maintenance_abort();
      }
      return s;
    }
    begin = end;
  }
  // ---- COMMIT: pure in-memory from here (the SPMD form additionally
  // releases its peers; a lost ack means a dead peer, not a torn state,
  // and is reported without undoing the local commit). ----
  publish_staged(*repository_, std::move(plan.staged));
  if (cluster_ != nullptr) {
    cluster_->maintenance_commit_indexes();
  } else if (Status s = node_->maintenance_commit(); !s.ok()) {
    return s;
  }
  return remove_containers(*repository_, plan.to_remove);
}

Status MaintenanceJob::execute() {
  report_ = MaintenanceReport{};
  if (Status s = preconditions(); !s.ok()) return s;

  // ---- EXPIRE ----
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expired;
  if (config_.expire) expired = director_->expired_versions(today());
  const std::vector<JobVersionRecord> versions = surviving_versions(expired);

  // ---- MARK ----
  Result<LiveMap> marked = mark(versions);
  if (!marked.ok()) return marked.status();
  LiveMap live_map = std::move(marked).value();

  // ---- COMPACT (stage only; nothing published until COMMIT) ----
  std::vector<StagedContainer> staged_locality;
  std::vector<const JobVersionRecord*> rewritten;
  if (config_.locality) {
    rewritten = fragmented_versions(versions, live_map);
    std::unordered_set<Fingerprint, FingerprintHash> already_placed;
    LocalityOptions options;
    options.node_threshold = config_.locality_node_threshold;
    options.target_node = config_.locality_node;
    options.container_capacity = config_.container_capacity;
    for (const JobVersionRecord* rec : rewritten) {
      fold_report(report_.locality_before,
                  measure_fragmentation(*rec, live_map, *repository_));
      Result<LocalityRewrite> rewrite =
          stage_locality_rewrite(*rec, *repository_, live_map,
                                 already_placed, staged_locality, options);
      if (!rewrite.ok()) return rewrite.status();
      ++report_.versions_rewritten;
      report_.chunks_rewritten += rewrite.value().chunks_rewritten;
      report_.containers_written += rewrite.value().containers_written;
    }
  }

  SweepPlan sweep;
  if (config_.reclaim) {
    SweepOptions options;
    options.compact_threshold = config_.compact_threshold;
    options.container_capacity = config_.container_capacity;
    Result<SweepPlan> swept =
        sweep_containers(*repository_, live_map, options);
    if (!swept.ok()) return swept.status();
    sweep = std::move(swept).value();
  }
  // Locality output joins the sweep's staged containers so INSTALL and
  // COMMIT see one batch.
  for (StagedContainer& s : staged_locality) {
    sweep.staged.push_back(std::move(s));
  }

  // ---- INSTALL + COMMIT ----
  const std::vector<ContainerId> removed = sweep.to_remove;
  report_.containers_scanned = sweep.containers_scanned;
  report_.containers_compacted = sweep.containers_compacted;
  report_.containers_written += sweep.containers_written;
  // The sweep's live count is live-in-place only (locality moves read as
  // "moved"); the report's is the round's whole live set.
  report_.live_chunks = live_map.size();
  report_.dead_chunks = sweep.dead_chunks;
  report_.bytes_reclaimed = sweep.bytes_reclaimed;
  if (Status s = install_and_commit(live_map, std::move(sweep)); !s.ok()) {
    return s;
  }
  report_.containers_deleted = removed.size();

  // The round is committed; now the catalogue can drop expired versions
  // (dropping first would lose them if prepare failed after a crash the
  // rig injects — the metadata tombstone is durable, the reclaim is not).
  for (const auto& [job, version] : expired) {
    if (Status s = director_->drop_version(job, version); !s.ok()) return s;
    ++report_.versions_expired;
  }

  // Post-commit locality of the same versions the pass rewrote: the
  // staged containers are published now, so every placement resolves and
  // the before/after pair is like-for-like.
  for (const JobVersionRecord* rec : rewritten) {
    fold_report(report_.locality_after,
                measure_fragmentation(*rec, live_map, *repository_));
  }
  director_->note_maintenance(today());
  return Status::Ok();
}

}  // namespace debar::core
