// Backup server: one DEBAR node composing dedup-1 (FileStore) and dedup-2
// (ChunkStore) over its own simulated devices (NIC, chunk-log disk, index
// disk), as in Figure 2 of the paper.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "core/chunk_store.hpp"
#include "core/director.hpp"
#include "core/file_store.hpp"
#include "core/index_part.hpp"
#include "filter/preliminary_filter.hpp"
#include "index/disk_index.hpp"
#include "net/endpoint.hpp"
#include "sim/disk_model.hpp"
#include "sim/nic_model.hpp"
#include "storage/chunk_log.hpp"
#include "storage/chunk_repository.hpp"

namespace debar::core {

struct BackupServerConfig {
  index::DiskIndexParams index_params{.prefix_bits = 14, .skip_bits = 0};
  filter::PreliminaryFilterParams filter_params{};
  ChunkStoreConfig chunk_store{};
  std::uint64_t container_capacity = kContainerSize;

  sim::DiskProfile index_profile = sim::DiskProfile::PaperRaid();
  sim::DiskProfile log_profile = sim::DiskProfile::PaperChunkLog();
  sim::NicProfile nic_profile = sim::NicProfile::PaperGigabit();

  /// Optional device factories (fault injection, at-rest persistence):
  /// mint the chunk-log device and every index device — the initial one
  /// and the fresh devices capacity scaling allocates. Defaults mint
  /// growable in-memory devices. The server attaches its own disk models
  /// to whatever these return.
  std::function<std::unique_ptr<storage::BlockDevice>()> log_device_factory;
  std::function<std::unique_ptr<storage::BlockDevice>()> index_device_factory;
};

/// Snapshot of a server's simulated component clocks; benches diff two
/// snapshots to time a phase (elapsed = max over the devices active in
/// that phase, since they overlap within a pipeline stage).
struct ServerClocks {
  double nic = 0.0;
  double log_disk = 0.0;
  double index_disk = 0.0;
};

/// Outcome of one single-server dedup-2 round.
struct Dedup2Result {
  std::uint64_t undetermined = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t new_chunks = 0;
  std::uint64_t new_bytes = 0;
  std::uint64_t sil_runs = 0;
  bool ran_siu = false;
  double sil_seconds = 0.0;
  double siu_seconds = 0.0;
};

class BackupServer {
 public:
  BackupServer(std::size_t server_id, const BackupServerConfig& config,
               storage::ChunkRepository* repository, Director* director);

  [[nodiscard]] FileStore& file_store() noexcept { return *file_store_; }
  [[nodiscard]] const FileStore& file_store() const noexcept {
    return *file_store_;
  }
  [[nodiscard]] ChunkStore& chunk_store() noexcept { return *chunk_store_; }
  [[nodiscard]] std::size_t server_id() const noexcept { return server_id_; }

  /// Dedup-2 pressure the ingest admission gate reads (DESIGN.md §5l):
  /// undetermined fingerprints accumulated since the last round.
  [[nodiscard]] std::uint64_t ingest_pressure() const {
    return file_store_->undetermined_count();
  }

  /// Ok unless the configured index device factory failed during
  /// construction (possible under fault injection while a migration
  /// stages a new server). A non-ok server must not join the fleet.
  [[nodiscard]] const Status& boot_status() const noexcept {
    return boot_status_;
  }

  /// Run a complete single-server dedup-2 (Section 3.3): SIL in index-cache
  /// sized batches, chunk storing, then SIU when due (or forced).
  [[nodiscard]] Result<Dedup2Result> run_dedup2(bool force_siu = false);

  [[nodiscard]] ServerClocks clocks() const noexcept {
    return {nic_clock_.seconds(), log_clock_.seconds(),
            index_clock_.seconds()};
  }
  void reset_clocks() noexcept {
    nic_clock_.reset();
    log_clock_.reset();
    index_clock_.reset();
  }

  [[nodiscard]] sim::NicModel& nic() noexcept { return nic_model_; }
  [[nodiscard]] const BackupServerConfig& config() const noexcept {
    return config_;
  }

  /// Bind this server's cluster transport port (the Cluster registers one
  /// per server against its transport). Standalone servers have none.
  void attach_endpoint(std::unique_ptr<net::Endpoint> endpoint) noexcept {
    endpoint_ = std::move(endpoint);
  }
  [[nodiscard]] bool has_endpoint() const noexcept {
    return endpoint_ != nullptr;
  }
  [[nodiscard]] net::Endpoint& endpoint() noexcept { return *endpoint_; }

  // ---- Index copies (cluster replication, DESIGN.md §5g) ----
  //
  // Every copy of a part on this server is an IndexPart: the ChunkStore
  // (the copy the map marks via_store) or one hosted for another part.
  // All are metered on this server's index disk and share its dedup-2
  // pool.

  /// Host a fresh, empty copy of index part `part` here: a DiskIndex
  /// minted by the same device factory and params as the primary —
  /// identical entry sequences yield byte-identical images. A server may
  /// host copies of several parts at once (post-drain maps do this).
  [[nodiscard]] Status attach_replica(std::size_t part);
  /// Install a rebuilt copy of `part` (a migration or maintenance commit,
  /// or a file-backed image at start-up): rebase the ChunkStore's index
  /// (via_store) or host it as the part's copy, replacing any held.
  /// Infallible — commit-safe.
  void install_copy(std::size_t part, bool via_store, index::DiskIndex idx);
  void detach_all_replicas() noexcept { hosted_.clear(); }

  /// The copy of `part` served here: the ChunkStore (via_store) or the
  /// hosted copy; nullptr when this server hosts none.
  [[nodiscard]] IndexPart* find_part(std::size_t part, bool via_store);
  /// As find_part, for a copy the caller knows is here.
  [[nodiscard]] IndexPart& part_index(std::size_t part, bool via_store) {
    return via_store ? *chunk_store_ : *hosted_.at(part);
  }
  /// Every copy on this server: the ChunkStore first, then hosted copies
  /// by ascending part. They share one index disk model, so this order
  /// fixes the modeled seek cost of a commit's SIU passes.
  [[nodiscard]] std::vector<IndexPart*> index_parts();

  /// A copy around `idx` with this server's index disk, I/O size, SIU
  /// threshold and dedup-2 pool, not attached to any part.
  [[nodiscard]] std::unique_ptr<IndexPart> make_part(index::DiskIndex idx);

  /// Mint a fresh index block device (same factory and disk model as the
  /// primary index), for staging a rebuilt partition during migration.
  [[nodiscard]] std::unique_ptr<storage::BlockDevice> mint_index_device();

  /// Swap the primary ChunkStore index for a rebuilt one (split commit:
  /// the partition width changed, so skip_bits did too). Keeps the
  /// server's config in agreement so later copy mints match.
  void rebase_chunk_store_index(index::DiskIndex idx) noexcept {
    config_.index_params.skip_bits = idx.params().skip_bits;
    chunk_store_->rebase_index(std::move(idx));
  }

 private:
  std::size_t server_id_;
  BackupServerConfig config_;
  Status boot_status_ = Status::Ok();

  sim::SimClock nic_clock_;
  sim::SimClock log_clock_;
  sim::SimClock index_clock_;
  sim::NicModel nic_model_;
  sim::DiskModel log_model_;
  sim::DiskModel index_model_;

  /// One dedup-2 pool for every index copy here.
  std::shared_ptr<Dedup2Pool> dedup2_pool_;
  std::unique_ptr<storage::ChunkLog> chunk_log_;
  std::unique_ptr<FileStore> file_store_;
  std::unique_ptr<ChunkStore> chunk_store_;
  std::unique_ptr<net::Endpoint> endpoint_;
  /// Copies of other servers' partitions hosted here, keyed by part id
  /// (ordered, so commit-time iteration is deterministic).
  std::map<std::size_t, std::unique_ptr<IndexPart>> hosted_;
};

}  // namespace debar::core
