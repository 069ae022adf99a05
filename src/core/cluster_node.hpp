// One backup server's share of the cluster protocol (DESIGN.md §5f) — the
// only implementation of it.
//
// A ClusterNode performs node k's part of every exchange through its
// endpoint: the five dedup-2 phases and the commit, both sides of a
// restore, catch-up resync, and the holder side of the maintenance
// MARK / INSTALL / COMMIT exchanges. Two drivers run it:
//
//   run_dedup2_round  the SPMD driver. Every node calls it concurrently
//                     (threads over a loopback transport, or one
//                     debar_clusterd process per node); the blocking
//                     receives are the barriers, and a peer that stays
//                     silent past round_timeout aborts this node's round
//                     with kUnavailable.
//   core::Cluster     the in-process coordinator. It calls the phase
//                     steps below on every node, phase by phase, and
//                     makes the decisions that need a global view at each
//                     boundary: whom to blame, which partition copy serves
//                     PSIL, whether the round completes degraded or
//                     aborts.
//
// Either way an abort takes one path per phase (abort_round): before
// phase D the drained fingerprints go back to the File Store; from D on
// the node's fresh index entries are deferred and re-shipped by its next
// round. The state a node keeps on its own behalf across rounds —
// deferred entries, catch-up debt, staged maintenance images — lives
// here, on the node that owns it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "core/backup_server.hpp"
#include "core/partition_map.hpp"
#include "core/restore_sink.hpp"
#include "index/disk_index.hpp"
#include "net/endpoint.hpp"
#include "net/message.hpp"

namespace debar::core {

struct ClusterNodeConfig {
  std::size_t node = 0;
  /// Partition placement every peer must agree on. Empty means the
  /// single-node identity map. Wire batches are stamped with map.epoch();
  /// a node holding a different map rejects them (kInvalidArgument)
  /// instead of silently mis-routing fingerprints.
  PartitionMap map{};
  /// Patience per phase-barrier receive. Generous: a peer process may be
  /// chewing through its own phase (or still booting) before it sends.
  std::chrono::nanoseconds round_timeout = std::chrono::seconds(30);
};

struct NodeRoundResult {
  std::uint64_t undetermined = 0;  // this node's drained queries
  std::uint64_t duplicates = 0;    // verdicts this node's index part issued
  std::uint64_t new_chunks = 0;    // chunks this node containered
  std::uint64_t new_bytes = 0;
  bool ran_siu = false;
};

/// A round's membership, as the coordinator decides it at phase
/// boundaries: which slots take part, and which copy of each partition
/// serves its PSIL. The SPMD round runs the static view (every live slot,
/// preferred copies).
struct RoundView {
  std::vector<bool> alive;        // per server slot
  std::vector<std::size_t> host;  // per part: copy index serving PSIL
};

/// Called after each request a node sends a peer, with the send's status.
/// An in-process coordinator answers the request on the peer's behalf
/// before the node awaits the reply (no serve thread runs there), and
/// keeps its reachability bookkeeping; SPMD peers answer from their own
/// serve loops, so their drivers pass none.
using PeerRelay = std::function<void(std::size_t peer, const Status& sent)>;

class ClusterNode {
 public:
  /// `server` must already have its endpoint attached to the transport
  /// this node shares with its peers.
  ClusterNode(ClusterNodeConfig config, BackupServer* server)
      : config_(std::move(config)), server_(server) {
    if (config_.map.empty()) config_.map = PartitionMap::identity(0);
  }

  [[nodiscard]] std::size_t node() const noexcept { return config_.node; }
  [[nodiscard]] const PartitionMap& map() const noexcept {
    return config_.map;
  }

  /// This node's share of one five-phase dedup-2 round. Every peer must
  /// call this once, concurrently; the receives are the barriers.
  [[nodiscard]] Result<NodeRoundResult> run_dedup2_round(bool force_siu);

  // ---- One round, step by step ----
  // run_dedup2_round is these steps in order over the static view. A
  // coordinator runs each step on every node before the next one, and
  // between steps may exclude origins (forget_origin), re-host partitions
  // (re-running the phase-A steps for them), or abort. Steps note the
  // peers they could not reach or hear from (take_unheard).

  /// The static view: every live slot, every partition on its preferred
  /// copy.
  [[nodiscard]] RoundView static_view() const;
  /// Phase A prelude: drain this node's undetermined fingerprints and
  /// split them by partition.
  void begin_round();
  /// Phase A: ship this node's queries for `parts` to their PSIL hosts,
  /// then, for each of `parts` this node hosts, collect one batch per
  /// live origin.
  [[nodiscard]] Status send_queries(const RoundView& view,
                                    std::span<const std::size_t> parts);
  [[nodiscard]] Status receive_queries(const RoundView& view,
                                       std::span<const std::size_t> parts);
  /// Drop everything `origin` contributed to this round (its queries and
  /// its phase-E entries): the coordinator excluded it.
  void forget_origin(std::size_t origin);
  /// Phase B: PSIL over every partition this node hosts this round.
  [[nodiscard]] Status run_psil(const RoundView& view);
  /// Phase C: verdicts back to their origins.
  [[nodiscard]] Status send_verdicts(const RoundView& view);
  [[nodiscard]] Status receive_verdicts(const RoundView& view);
  /// Phase D: container the chunks PSIL declared new; entries deferred
  /// by an earlier aborted round join this round's.
  [[nodiscard]] Status store_chunks();
  /// Phase E: fresh entries to every live copy of their partition.
  [[nodiscard]] Status send_entries(const RoundView& view);
  [[nodiscard]] Status receive_entries(const RoundView& view);
  /// Commit: register every hosted copy's entries (origin order), run
  /// SIU when due or forced, owe each dark copy holder what it missed,
  /// and release the drained versions' job affinity.
  [[nodiscard]] Status commit_round(const RoundView& view, bool force_siu);
  /// Abort this node's round (no-op once committed or aborted): before
  /// phase D the drained fingerprints go back, from D on the entries are
  /// deferred to the next round.
  void abort_round();
  /// The current (or last) round's counters.
  [[nodiscard]] const NodeRoundResult& round_result() const noexcept {
    return result_;
  }
  /// The peers this node's steps could not reach or hear from since the
  /// last call.
  [[nodiscard]] std::vector<std::size_t> take_unheard() {
    return std::exchange(unheard_, {});
  }
  /// Entries an aborted round deferred, waiting for the next one.
  [[nodiscard]] bool has_deferred_entries() const noexcept {
    return !deferred_.empty();
  }

  /// Catch-up resync: entries this node committed for `part` while the
  /// other copy's holder was dark. Delivery ships them over the wire to
  /// that holder's node, which registers them; the debt stays until then.
  [[nodiscard]] bool owes_catch_up(std::size_t part) const;
  [[nodiscard]] Status deliver_catch_up(std::size_t part,
                                        ClusterNode& holder);

  // ---- Restores ----

  /// Answer the serving node `via`'s locate requests (as answer() does)
  /// until it sends Control{kShutdown} (returns OK) or stays silent past
  /// round_timeout (returns kUnavailable).
  [[nodiscard]] Status serve_restores(net::EndpointId via) {
    return serve(via);
  }

  /// Restore `files` through this node (DESIGN.md §5p): its
  /// ChunkStore::restore, each LPC miss located on the partition's copies
  /// in failover order, each chunk sent to `client` (the restore-stream
  /// endpoint, hosted in this process) as one ChunkData frame, and `sink`
  /// fed what `client` received; a lost delivery is kUnavailable.
  [[nodiscard]] Status restore(std::span<const FileRecord> files,
                               net::Endpoint& client, RestoreSink& sink,
                               const PeerRelay& relay = {});

  // ---- Maintenance round (DESIGN.md §5k) ----
  //
  // The driver node runs MaintenanceJob against this surface while every
  // peer sits in serve_maintenance (or, in process, is answered through
  // the driver's relay). MARK and INSTALL ride GcMarkRequest /
  // GcMarkReply / GcInstall frames fenced by the map epoch; COMMIT and
  // abort ride Control frames. All staged state lives on the node that
  // will adopt it, so a crashed driver leaves every peer's serving state
  // untouched.

  /// Refuse a round while this node's own dedup-2 state is in flight
  /// (kBusy). The SPMD form cannot see peers' pending sets — the script
  /// must only run maintenance at a round boundary (clusterd does).
  [[nodiscard]] Status maintenance_preconditions() const;

  /// MARK for one partition: classify `live_fps` (sorted) against the
  /// part's primary copy — locally when this node serves it, else via the
  /// holder.
  [[nodiscard]] Result<std::vector<IndexEntry>> maintenance_mark(
      std::size_t part, std::vector<Fingerprint> live_fps,
      const PeerRelay& relay = {});

  /// INSTALL for one partition: stage a rebuilt index for EVERY copy of
  /// `part` from the canonical sorted live stream — local copies on this
  /// node's minted devices, remote ones on the holder's (acked).
  [[nodiscard]] Status maintenance_install(std::size_t part,
                                           std::vector<IndexEntry> sorted,
                                           const PeerRelay& relay = {});

  /// COMMIT: swap this node's staged copies in (pure in-memory), then
  /// release every peer's serve loop with Control{kMaintenanceCommit}
  /// and await their acks.
  [[nodiscard]] Status maintenance_commit();

  /// Drop local staged state and release peers with
  /// Control{kMaintenanceAbort} (fire-and-forget — the round is already
  /// failing).
  void maintenance_abort();

  /// Peer side: answer mark/install requests from `driver` until it
  /// commits, aborts, or shuts the loop down.
  [[nodiscard]] Status serve_maintenance(net::EndpointId driver) {
    return serve(driver);
  }

  /// Answer one request `from` sent this node — a restore locate, or a
  /// maintenance MARK / INSTALL / COMMIT / abort — as the serve loops do.
  /// `*done` is set when the frame ends a serve loop.
  [[nodiscard]] Status answer(net::EndpointId from, bool* done = nullptr);

  /// Swap in / drop the index copies maintenance staged on this node.
  void commit_staged();
  void drop_staged() noexcept { maintenance_staged_.clear(); }

 private:
  /// One staged index copy awaiting the round's commit.
  struct NodeStagedCopy {
    std::size_t part;
    bool via_store;
    index::DiskIndex idx;
  };

  /// Per-round exchange state, reset by begin_round.
  struct Round {
    bool active = false;
    bool stored = false;  // phase D ran: an abort defers, not restores
    std::vector<Fingerprint> drained;
    // outbox, verdicts and entries_out are indexed [part]; queries,
    // verdicts_out and entries [part][origin].
    std::vector<std::vector<Fingerprint>> outbox;
    std::vector<std::vector<net::FingerprintBatch>> queries;
    std::vector<std::vector<net::VerdictBatch>> verdicts_out;
    std::vector<net::VerdictBatch> verdicts;
    std::vector<std::vector<IndexEntry>> entries_out;
    std::vector<std::vector<net::IndexEntryBatch>> entries;
  };

  [[nodiscard]] net::Deadline barrier_deadline() const {
    return net::Deadline::after(config_.round_timeout);
  }
  /// This node's slot is live and hosts every copy the map assigns it.
  [[nodiscard]] Status check_slot() const;
  [[nodiscard]] std::size_t psil_host(const RoundView& view,
                                      std::size_t part) const {
    return config_.map.copy(part, view.host[part]).server;
  }
  /// Buffered send / phase-boundary flush to every live peer / barrier
  /// receive (epoch-fenced for batches that carry one). A peer the wire
  /// fails on is noted unheard.
  void post(std::size_t to, const net::Message& msg);
  void flush_peers(const RoundView& view);
  template <typename T>
  [[nodiscard]] std::optional<T> await(std::size_t from, Status& status);
  /// Request/reply round trip with one peer (locate, MARK, INSTALL,
  /// COMMIT), the relay seeing every send.
  template <typename Reply>
  [[nodiscard]] Result<Reply> ask(std::size_t peer, const net::Message& request,
                                  const PeerRelay& relay);
  /// The copy of `part` this node hosts (its ChunkStore or a hosted
  /// IndexPart, as the map says); nullptr when the map places none here
  /// or the server lacks the copy it assigns.
  [[nodiscard]] IndexPart* hosted_copy(std::size_t part) const;
  /// Classify sorted live fingerprints against whichever copy of `part`
  /// this node hosts.
  [[nodiscard]] Result<std::vector<IndexEntry>> classify_hosted(
      std::size_t part, std::span<const Fingerprint> sorted_live) const;
  /// Build a staged copy of `part` from `sorted` on this node.
  [[nodiscard]] Status stage_copy(std::size_t part, bool via_store,
                                  std::vector<IndexEntry> sorted);
  /// Register entries on whichever copy of `part` this node hosts.
  void add_pending(std::size_t part, std::span<const IndexEntry> entries);

  /// Locate over whichever copy of fp's partition this node hosts.
  /// kNotFound when we host neither copy.
  [[nodiscard]] Result<ContainerId> locate_hosted(const Fingerprint& fp) const;
  /// Answer `from` until a frame ends the loop.
  [[nodiscard]] Status serve(net::EndpointId from);

  ClusterNodeConfig config_;
  BackupServer* server_;
  Round round_;
  NodeRoundResult result_;
  std::vector<std::size_t> unheard_;
  /// Entries a round aborted from phase D on, re-shipped by the next.
  std::vector<IndexEntry> deferred_;
  /// Catch-up debt per part: entries the other copy's holder missed.
  std::vector<std::vector<IndexEntry>> owed_;
  std::vector<NodeStagedCopy> maintenance_staged_;
};

}  // namespace debar::core
