// Multi-server DEBAR cluster: PSIL / PSIU (Section 5.2, Figure 5).
//
// 2^w backup servers each own one disk-index part (fingerprints whose
// first w bits equal the server number) plus their own chunk log and
// container stream. A cluster dedup-2 round is five barrier phases:
//
//   A. exchange     each server partitions its undetermined fingerprints
//                   by the first w bits and ships each subset to its
//                   index-part owner;
//   B. PSIL         every owner runs SIL over its part concurrently and
//                   resolves multi-origin queries to a single designated
//                   storer (the cross-stream analogue of the checking-
//                   fingerprint mechanism — without it two servers would
//                   both store a chunk they share);
//   C. results      lookup results return to their origins;
//   D. storing      every origin replays its chunk log and containers the
//                   chunks PSIL declared new, in parallel;
//   E. PSIU         <fingerprint, containerID> entries route back to the
//                   part owners, which register them — immediately into
//                   the pending (checking) set, and into the on-disk index
//                   when SIU is due or forced.
//
// Every server's share of each phase — its sends, receives, PSIL, chunk
// storing and commit — and every restore served through it is a
// core::ClusterNode (core/cluster_node.hpp), the same code debar_clusterd
// runs one per process. Cluster is the in-process coordinator: it owns
// the servers, their transport, the director and the PartitionMap, runs
// each phase step on every node concurrently, and decides at each barrier
// what only a global view can:
//
//   * blame — which peers the failed exchanges point at;
//   * phase-A failover — a partition whose serving copy went dark is
//     re-hosted on its other copy and the exchange re-run for it, the
//     dark server's own batches excluded (DESIGN.md §5g);
//   * abort — a phase-C death, a failed store, or a partition losing BOTH
//     copies aborts the round all-or-nothing (each node takes its own
//     abort path: drained fingerprints back before D, entries deferred
//     from D on), with zero index mutation;
//   * phase-E late peers — dropped, their entries deferred, and a
//     partition left with one live copy commits there, owing the other
//     copy a catch-up its survivor re-ships once it is reachable again.
//
// Phases are barriers, so per-phase elapsed time is the maximum of the
// participating servers' modeled device times (plus the repository's
// busiest node during storing). Every exchange travels as a typed
// net::Message through the net::Transport, metered through both
// endpoints' NIC models at its actual wire size. Split/drain (DESIGN.md
// §5j) stay coordinator work: they rebuild partition copies between
// rounds and swap the map.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.hpp"
#include "core/backup_engine.hpp"
#include "core/backup_server.hpp"
#include "core/cluster_node.hpp"
#include "core/director.hpp"
#include "core/partition_map.hpp"
#include "net/endpoint.hpp"
#include "net/transport_factory.hpp"
#include "storage/chunk_repository.hpp"

namespace debar::core {

struct ClusterConfig {
  /// w: the cluster runs 2^w backup servers.
  unsigned routing_bits = 2;
  /// Explicit partition placement. Empty (the default) means "build the
  /// identity layout for routing_bits". Non-empty maps override
  /// routing_bits entirely — this is how a differential twin is born at
  /// the exact topology an elastically grown cluster ended up with
  /// (post-split/drain maps are permutations no identity layout matches).
  PartitionMap partition_map{};
  /// Per-server template; index_params.skip_bits is overridden to w.
  BackupServerConfig server_config{};
  /// Director policy (retention, maintenance cadence) for the cluster's
  /// embedded director.
  DirectorConfig director_config{};
  /// Storage nodes in the shared chunk repository.
  std::size_t repository_nodes = 4;
  sim::DiskProfile repository_profile = sim::DiskProfile::PaperRaid();
  /// Retransmission / receive-timeout budget for every cluster endpoint.
  net::RetryPolicy retry{};
  /// Wire-codec policy for every cluster endpoint (net/wire_codec). The
  /// default keeps the v1 wire — one frame per message, paper-model byte
  /// accounting — so existing parity anchors hold; benches and the codec
  /// tests opt in (e.g. net::WireCodecConfig::enabled()). Phases A, C and
  /// E use buffered sends, so with coalescing on each (sender, receiver)
  /// pair exchanges one jumbo frame per phase instead of one frame per
  /// batch.
  net::WireCodecConfig wire_codec{};
  /// How the cluster's wire is built: loopback (default when null),
  /// faulty-over-loopback, or sockets — one selection interface for every
  /// harness (see net/transport_factory.hpp). Shared so a test rig can
  /// keep a handle to the factory (e.g. FaultyTransportFactory::last).
  std::shared_ptr<net::TransportFactory> transport_factory;
  /// Observability/test hook: called at each run_dedup2 phase start
  /// ("A".."E", then "commit" immediately before index and pending-set
  /// mutation begins). The crash rig uses it to bracket the replicated
  /// commit window by device-op counts.
  std::function<void(const char*)> phase_hook;
};

struct ClusterDedup2Result {
  std::uint64_t undetermined = 0;
  std::uint64_t duplicates = 0;      // resolved on disk, pending, or multi-origin
  std::uint64_t new_chunks = 0;
  std::uint64_t new_bytes = 0;
  bool ran_siu = false;
  double exchange_seconds = 0.0;  // phases A + C (network)
  double sil_seconds = 0.0;       // phase B (max over owners)
  double store_seconds = 0.0;     // phase D (max of log replay, repo node)
  double siu_seconds = 0.0;       // phase E (max over owners)

  /// Degraded-round bookkeeping: partitions served by their backup copy
  /// this round, and the servers the round excluded as unreachable.
  std::uint64_t failovers = 0;
  std::vector<std::size_t> skipped_servers;
  [[nodiscard]] bool degraded() const noexcept {
    return failovers > 0 || !skipped_servers.empty();
  }

  [[nodiscard]] double total_seconds() const noexcept {
    return exchange_seconds + sil_seconds + store_seconds + siu_seconds;
  }
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  [[nodiscard]] std::size_t server_count() const noexcept {
    return servers_.size();
  }
  [[nodiscard]] BackupServer& server(std::size_t k) noexcept {
    return *servers_[k];
  }
  [[nodiscard]] Director& director() noexcept { return director_; }
  [[nodiscard]] storage::ChunkRepository& repository() noexcept {
    return repository_;
  }

  /// The transport every exchange rides on (outermost decorator).
  [[nodiscard]] net::Transport& transport() noexcept { return *transport_; }
  /// Cumulative frame/byte counters from the stack's single meter.
  [[nodiscard]] net::TransportStats transport_stats() const {
    return transport_->meter().stats();
  }
  /// Endpoint id of the restore-stream client. Fixed high id, so servers
  /// appended by a split can keep endpoint id == server slot.
  [[nodiscard]] net::EndpointId client_id() const noexcept {
    return net::kClientEndpointId;
  }

  /// The live partition map (placement + epoch).
  [[nodiscard]] const PartitionMap& partition_map() const noexcept {
    return map_;
  }
  [[nodiscard]] std::uint32_t epoch() const noexcept { return map_.epoch(); }

  /// Index-part owner of a fingerprint: its first routing_bits bits.
  [[nodiscard]] std::size_t owner_of(const Fingerprint& fp) const noexcept {
    return map_.owner_of(fp);
  }

  /// Online elastic repartitioning (DESIGN.md §5j), between rounds only.
  ///
  /// split(): grow the cluster w -> w+1. Every part p splits into 2p and
  /// 2p+1; the odd halves' primaries land on newly added servers, and
  /// every part gets a fresh backup copy per the post-split map. All
  /// fallible work (index extraction, wire shipment, staged rebuilds)
  /// happens on freshly minted devices before a pure in-memory commit
  /// swaps the map and bumps the epoch — a crash mid-prepare leaves the
  /// old topology byte-intact.
  [[nodiscard]] Status split();

  /// drain(slot): remove a server from the fleet. Both copies it hosts
  /// are handed off (survivor promoted to primary, replacement replica
  /// staged on the least-loaded live server) before the slot is retired.
  /// Works while the slot is dark: migration sources from the surviving
  /// copies, never the draining server.
  [[nodiscard]] Status drain(std::size_t slot);

  /// Run one parallel dedup-2 round across all servers.
  [[nodiscard]] Result<ClusterDedup2Result> run_dedup2(bool force_siu = false);

  // ---- Maintenance protocol (DESIGN.md §5k) ----
  // core::MaintenanceJob drives these between rounds. The shape mirrors
  // split()/drain(): every fallible step (wire exchanges, staged index
  // builds on freshly minted devices) happens before a pure in-memory
  // commit, so a crash anywhere in the prepare window leaves every
  // committed image byte-identical to a never-attempted twin.

  /// Quiescence gate. Every violated precondition — pending SIU on any
  /// copy, deferred phase-E entries, owed catch-up, an unreachable live
  /// slot — is transient (a forced round / heal clears it), so the error
  /// is the retryable kBusy rather than the migration gate's permanent-
  /// looking codes.
  [[nodiscard]] Status maintenance_preconditions();

  /// Mark exchange for one partition, driven by the first live node as
  /// debar_clusterd drives it from node 0: the sorted live fingerprints go
  /// to the primary host (GcMarkRequest) and the live <fp, container>
  /// entries it classified out of its serving copy come back
  /// (GcMarkReply). Epoch-fenced both ways.
  [[nodiscard]] Result<std::vector<IndexEntry>> maintenance_mark(
      std::size_t part, std::vector<Fingerprint> live_fps);

  /// Install exchange for one partition: ship the canonical post-GC entry
  /// stream to every copy host (GcInstall, acked) and stage a rebuilt
  /// index image on that host's node. Both copies are rebuilt from the
  /// same sorted stream, so their images are byte-identical — this is
  /// what closes the GC-era replica drift.
  [[nodiscard]] Status maintenance_install(std::size_t part,
                                           std::vector<IndexEntry> sorted);

  /// Swap every node's staged images in (rebase the primary's ChunkStore
  /// index / adopt the rebuilt replica). Pure in-memory, cannot fail; the
  /// map epoch does not advance because placement did not change.
  void maintenance_commit_indexes();

  /// Drop staged maintenance images (failed prepare).
  void maintenance_abort();

  /// Restore version `version` of `job_id` through `via_server` into
  /// `sink` (ClusterNode::restore).
  [[nodiscard]] Status restore(std::uint64_t job_id, std::uint32_t version,
                               std::size_t via_server, RestoreSink& sink);

  /// The same restore, collected into a Dataset held in memory.
  [[nodiscard]] Result<Dataset> restore(std::uint64_t job_id,
                                        std::uint32_t version,
                                        std::size_t via_server);

  /// A restore of the one-chunk recipe {fp}, which keeps no size.
  [[nodiscard]] Result<std::vector<Byte>> read_chunk(std::size_t via_server,
                                                     const Fingerprint& fp);

  /// Reset every simulated clock (between measurement windows).
  void reset_clocks();

 private:
  /// Register `server`'s endpoint (id = its slot) on the transport.
  [[nodiscard]] Status connect(BackupServer& server);
  /// (Re)create one ClusterNode per server slot over the current map.
  /// Called at construction and after every map change, whose
  /// preconditions leave no node state worth keeping.
  void rebuild_nodes();
  /// Re-ship entries a recovered copy missed during degraded commits:
  /// the surviving copy of each owed partition sends them over the wire.
  /// Runs at every round start; anything still undeliverable stays owed.
  void deliver_catch_up();
  /// The in-process stand-in for a peer's serve loop: answer the request
  /// node `driver` just sent `peer` on the peer's behalf.
  [[nodiscard]] PeerRelay maintenance_relay(std::size_t driver);
  /// Restore `files` through `via`, answering its locates inline and
  /// marking a holder that cannot be reached or answer unreachable.
  [[nodiscard]] Status restore_via(std::span<const FileRecord> files,
                                   std::size_t via, RestoreSink& sink);

  // ---- Elastic repartitioning internals ----
  /// A migration only runs from a quiescent, fully-consistent cluster:
  /// no deferred phase-E entries, no catch-up owed, every live slot
  /// transport-reachable, and zero pending entries on every live copy
  /// (callers run a forced-SIU round first, so the on-disk indexes are
  /// the whole truth and the rebuilt copies stay byte-identical to a
  /// cluster born at the target topology). `exclude` exempts the slot a
  /// drain is removing: its copies are sourced from the survivors.
  [[nodiscard]] Status migration_preconditions(std::size_t exclude);
  /// Move entries sender -> target as an epoch-stamped IndexEntryBatch
  /// over the wire (skipped when sender == target: no self-frames).
  [[nodiscard]] Result<std::vector<IndexEntry>> ship_entries(
      std::size_t sender, std::size_t target,
      std::vector<IndexEntry> entries, std::uint32_t epoch);
  /// The server object for a slot, whether committed or still staged.
  [[nodiscard]] BackupServer& server_ref(std::size_t slot);
  /// Ensure BackupServer objects (with registered endpoints) exist for
  /// every slot of `target` beyond the committed fleet. Kept across
  /// failed prepare attempts: endpoints register once.
  [[nodiscard]] Status ensure_staged_servers(const PartitionMap& target);

  ClusterConfig config_;
  PartitionMap map_;
  Director director_;
  storage::ChunkRepository repository_;
  // Transport before servers/client endpoint: endpoints hold raw transport
  // pointers, so they must be destroyed first (reverse declaration order).
  std::unique_ptr<net::Transport> transport_;
  std::unique_ptr<net::Endpoint> client_endpoint_;
  std::vector<std::unique_ptr<BackupServer>> servers_;
  /// Servers created for a split that has not committed yet (slot index =
  /// servers_.size() + position). Their endpoints are registered at
  /// creation and survive failed prepare attempts; commit moves them into
  /// servers_.
  std::vector<std::unique_ptr<BackupServer>> staged_servers_;
  /// One protocol node per committed server (declared after servers_:
  /// nodes point into them). Deferred entries, catch-up debt and staged
  /// maintenance images live on the node that owns them.
  std::vector<std::unique_ptr<ClusterNode>> nodes_;
};

}  // namespace debar::core
