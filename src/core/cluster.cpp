#include "core/cluster.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <functional>
#include <numeric>

#include "common/fmt.hpp"
#include "common/thread_pool.hpp"
#include "core/maintenance.hpp"
#include "net/message.hpp"

namespace debar::core {

namespace {

double max_delta(const std::vector<double>& before,
                 const std::vector<double>& after) {
  double m = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i) {
    m = std::max(m, after[i] - before[i]);
  }
  return m;
}

/// One rebuilt partition copy a migration's prepare stage produced: where
/// it goes and the freshly loaded index the commit stage hands over.
struct StagedCopy {
  std::size_t part;
  std::size_t slot;
  bool via_store;
  index::DiskIndex idx;
};

constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

/// The node that drives in-process maintenance exchanges, as node 0 does
/// in debar_clusterd (maintenance preconditions keep every live slot
/// reachable).
std::size_t first_live_slot(const PartitionMap& map) {
  std::size_t k = 0;
  while (!map.is_live(k)) ++k;
  return k;
}

}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      director_(config.director_config),
      repository_(config.repository_nodes, config.repository_profile) {
  map_ = config_.partition_map.empty()
             ? PartitionMap::identity(config_.routing_bits)
             : config_.partition_map;
  // The map is the single source of truth for the routing width; keep the
  // config field in agreement for anyone who reads it back.
  config_.routing_bits = map_.routing_bits();

  const std::size_t n_slots = map_.server_slots();
  BackupServerConfig server_config = config_.server_config;
  server_config.index_params.skip_bits = map_.routing_bits();
  servers_.reserve(n_slots);
  for (std::size_t k = 0; k < n_slots; ++k) {
    servers_.push_back(
        std::make_unique<BackupServer>(k, server_config, &repository_,
                                       &director_));
  }
  // Replicated index parts (DESIGN.md §5g): every partition copy the map
  // places off the owner's ChunkStore is hosted as a bare IndexPart.
  // Attach in (slot ascending, part ascending) order so the index-device
  // mint sequence is deterministic — identity maps reproduce the classic
  // "all primaries, then one replica per server" order exactly.
  for (std::size_t k = 0; k < n_slots; ++k) {
    for (const std::size_t p : map_.parts_hosted_by(k)) {
      const PartitionCopy* copy = map_.copy_on(p, k);
      if (copy->via_store) continue;
      Status attached = servers_[k]->attach_replica(p);
      assert(attached.ok() && "index params validated by config construction");
      (void)attached;
    }
  }
  // Slots the map already drained (a twin born at a post-drain topology)
  // are permanently out of job assignment.
  for (std::size_t k = 0; k < n_slots; ++k) {
    if (!map_.is_live(k)) director_.retire_server(k);
  }

  transport_ = config_.transport_factory
                   ? config_.transport_factory->create()
                   : std::make_unique<net::LoopbackTransport>();
  for (auto& server : servers_) {
    Status connected = connect(*server);
    assert(connected.ok());
    (void)connected;
  }
  // The restore-stream client: no modeled NIC of its own (the serving
  // server's wire is the bottleneck the paper measures).
  Status registered = transport_->register_endpoint(client_id(), nullptr);
  assert(registered.ok());
  (void)registered;
  client_endpoint_ = std::make_unique<net::Endpoint>(transport_.get(),
                                                     client_id(),
                                                     config_.retry,
                                                     config_.wire_codec);
  rebuild_nodes();
}

Status Cluster::connect(BackupServer& server) {
  const auto id = static_cast<net::EndpointId>(server.server_id());
  if (Status registered = transport_->register_endpoint(id, &server.nic());
      !registered.ok()) {
    return registered;
  }
  server.attach_endpoint(std::make_unique<net::Endpoint>(
      transport_.get(), id, config_.retry, config_.wire_codec));
  return Status::Ok();
}

void Cluster::rebuild_nodes() {
  nodes_.clear();
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    nodes_.push_back(std::make_unique<ClusterNode>(
        ClusterNodeConfig{.node = k,
                          .map = map_,
                          .round_timeout = config_.retry.receive_timeout},
        servers_[k].get()));
  }
}

Result<ClusterDedup2Result> Cluster::run_dedup2(bool force_siu) {
  const std::size_t n = servers_.size();
  const std::size_t m = map_.part_count();
  ClusterDedup2Result result;

  auto phase = [&](const char* tag) {
    if (config_.phase_hook) config_.phase_hook(tag);
  };
  auto reachable = [&](std::size_t k) {
    return transport_->reachable(static_cast<net::EndpointId>(k));
  };
  auto clocks = [&](double ServerClocks::*device) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = servers_[i]->clocks().*device;
    return v;
  };

  // Round membership: alive[k] starts from the map (drained slots never
  // participate) and flips when the transport proves server k dark during
  // this round; host[p] moves when phase A fails partition p over.
  RoundView view = nodes_.front()->static_view();
  // Run one step on every participating node concurrently; the first
  // failure wins.
  std::vector<Status> step_status(n);
  auto run = [&](const std::function<Status(ClusterNode&)>& step) {
    parallel_for(n, n, [&](std::size_t k) {
      step_status[k] = view.alive[k] ? step(*nodes_[k]) : Status::Ok();
    });
    for (const Status& s : step_status) {
      if (!s.ok()) return s;
    }
    return Status::Ok();
  };
  // Distill the peers each node could not reach or hear from into blame.
  // A dead observer's complaints about healthy peers are noise (its own
  // sends fail too); keep only complaints whose peer the transport also
  // doubts, or complaints from observers the transport still trusts.
  auto blamed_peers = [&] {
    std::vector<std::size_t> bad;
    for (std::size_t k = 0; k < n; ++k) {
      for (const std::size_t peer : nodes_[k]->take_unheard()) {
        if (!reachable(k) && reachable(peer)) continue;
        bad.push_back(peer);
      }
    }
    std::sort(bad.begin(), bad.end());
    bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
    return bad;
  };
  // Drop a server the transport proved dark: its own round aborts, and
  // everything it contributed is forgotten everywhere — a dead origin must
  // never become a designated storer, and a copy that never heard from it
  // must match the copies that did.
  auto exclude = [&](std::size_t b) {
    if (!view.alive[b]) return;
    view.alive[b] = false;
    result.skipped_servers.push_back(b);
    director_.mark_unreachable(b);
    nodes_[b]->abort_round();
    for (auto& node : nodes_) node->forget_origin(b);
  };
  // All-or-nothing abort: each participating node takes its own abort
  // path, and nothing is registered anywhere.
  auto abort = [&](const Status& s) {
    for (std::size_t k = 0; k < n; ++k) {
      if (view.alive[k]) nodes_[k]->abort_round();
    }
    return Error{s.code(), s.message()};
  };
  auto degrade = [&](const std::vector<std::size_t>& bad, const char* tag) {
    for (const std::size_t p : bad) director_.mark_unreachable(p);
    return abort(Status(Errc::kUnavailable,
                        format("cluster dedup-2 aborted in phase {}: {} "
                               "peer(s) unreachable",
                               tag, bad.size())));
  };
  // A counter summed over the nodes taking part.
  auto total = [&](std::uint64_t NodeRoundResult::*counter) {
    std::uint64_t sum = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (view.alive[k]) sum += nodes_[k]->round_result().*counter;
    }
    return sum;
  };
  auto both_copies_dark = [&](std::size_t p) {
    return !view.alive[map_.copy(p, 0).server] &&
           !view.alive[map_.copy(p, 1).server];
  };

  // Round-boundary health probe: servers the transport reaches again
  // rejoin assignment, and entries their index copies missed during
  // degraded commits are re-delivered before the next exchange starts.
  director_.probe_reachability(n, reachable);
  deliver_catch_up();

  // ---- Phase A: drain undetermined sets and exchange by routing prefix.
  // Failover-aware: ship every wanted part to its current host, blame the
  // peers the transport proves dark, re-host their partitions on the
  // surviving copy, and re-run the delta. Each iteration either
  // completes, aborts (some partition lost both copies), or buries at
  // least one server — so the loop runs at most n times.
  phase("A");
  const std::vector<double> nic_a0 = clocks(&ServerClocks::nic);
  (void)run([](ClusterNode& node) {
    node.begin_round();
    return Status::Ok();
  });
  std::vector<std::size_t> wanted(m);
  std::iota(wanted.begin(), wanted.end(), std::size_t{0});
  Status received = Status::Ok();
  while (!wanted.empty()) {
    (void)run([&](auto& node) { return node.send_queries(view, wanted); });
    if (Status s = run([&](ClusterNode& node) {
          return node.receive_queries(view, wanted);
        });
        !s.ok() && received.ok()) {
      received = s;
    }
    const std::vector<std::size_t> bad = blamed_peers();
    if (bad.empty()) break;
    for (const std::size_t b : bad) exclude(b);
    std::vector<std::size_t> rerun;
    for (std::size_t p = 0; p < m; ++p) {
      if (view.alive[map_.copy(p, view.host[p]).server]) continue;
      // Both copies of partition p are dark (in an unreplicated map its
      // one copy is both): all-or-nothing abort.
      if (both_copies_dark(p)) return degrade(bad, "A");
      view.host[p] = 1 - view.host[p];
      ++result.failovers;
      rerun.push_back(p);
    }
    wanted = std::move(rerun);
  }
  if (!received.ok()) return abort(received);
  result.undetermined = total(&NodeRoundResult::undetermined);

  // ---- Phase B: PSIL on every partition's current host, concurrently.
  phase("B");
  const std::vector<double> idx_b0 = clocks(&ServerClocks::index_disk);
  if (Status s = run([&](ClusterNode& node) { return node.run_psil(view); });
      !s.ok()) {
    return abort(s);
  }
  result.duplicates = total(&NodeRoundResult::duplicates);
  result.sil_seconds = max_delta(idx_b0, clocks(&ServerClocks::index_disk));

  // ---- Phase C: results return to their origins (network only). A peer
  // that dies here aborts the whole round, replicas or not: its queries
  // are already folded into completed PSIL verdicts, so excising it
  // mid-round could leave a designated storer that never stores.
  phase("C");
  (void)run([&](auto& node) { return node.send_verdicts(view); });
  received = run([&](auto& node) { return node.receive_verdicts(view); });
  if (std::vector<std::size_t> bad = blamed_peers(); !bad.empty()) {
    return degrade(bad, "C");
  }
  if (!received.ok()) return abort(received);
  result.exchange_seconds = max_delta(nic_a0, clocks(&ServerClocks::nic));

  // ---- Phase D: parallel chunk storing on every origin. A failed store
  // aborts the round: origins that already containered defer their
  // entries, the failed one keeps its log and re-drains next round.
  phase("D");
  const std::vector<double> log_d0 = clocks(&ServerClocks::log_disk);
  const double repo_d0 = repository_.max_node_seconds();
  if (Status s = run([](ClusterNode& node) { return node.store_chunks(); });
      !s.ok()) {
    return abort(s);
  }
  result.new_chunks = total(&NodeRoundResult::new_chunks);
  result.new_bytes = total(&NodeRoundResult::new_bytes);
  result.store_seconds =
      std::max(max_delta(log_d0, clocks(&ServerClocks::log_disk)),
               repository_.max_node_seconds() - repo_d0);

  // ---- Phase E: entries route to every live copy of their partition;
  // every copy receives everything before anyone registers. A peer that
  // dies here is dropped (its entries deferred), and a partition whose
  // one copy went dark commits on the other with the missed entries owed
  // for catch-up. Only a partition losing BOTH copies aborts.
  phase("E");
  (void)run([&](auto& node) { return node.send_entries(view); });
  received = run([&](auto& node) { return node.receive_entries(view); });
  if (std::vector<std::size_t> late = blamed_peers(); !late.empty()) {
    for (const std::size_t b : late) exclude(b);
    for (std::size_t p = 0; p < m; ++p) {
      if (both_copies_dark(p)) return degrade(late, "E");
    }
  }
  // An epoch mismatch mid-phase-E: nothing committed; the routed entries
  // wait for a round run against a consistent map.
  if (!received.ok()) return abort(received);

  // Commit: every live copy registers entries; PSIU when due or forced.
  phase("commit");
  const std::vector<double> idx_e0 = clocks(&ServerClocks::index_disk);
  if (Status s = run([&](ClusterNode& node) {
        return node.commit_round(view, force_siu);
      });
      !s.ok()) {
    return Error{s.code(), s.message()};
  }
  for (std::size_t k = 0; k < n; ++k) {
    result.ran_siu = result.ran_siu ||
                     (view.alive[k] && nodes_[k]->round_result().ran_siu);
  }
  result.siu_seconds = max_delta(idx_e0, clocks(&ServerClocks::index_disk));

  // The round heard from every peer it did not exclude.
  for (std::size_t k = 0; k < n; ++k) {
    if (!map_.is_live(k)) continue;
    if (view.alive[k]) {
      director_.mark_reachable(k);
    } else {
      director_.mark_unreachable(k);
    }
  }
  std::sort(result.skipped_servers.begin(), result.skipped_servers.end());
  return result;
}

void Cluster::deliver_catch_up() {
  if (!map_.replicated()) return;
  for (std::size_t t = 0; t < servers_.size(); ++t) {
    if (!map_.is_live(t) ||
        !transport_->reachable(static_cast<net::EndpointId>(t))) {
      continue;
    }
    for (const std::size_t p : map_.parts_hosted_by(t)) {
      const std::size_t sender = map_.other_holder(p, t);
      ClusterNode& survivor = *nodes_[sender];
      if (!survivor.owes_catch_up(p) ||
          !transport_->reachable(static_cast<net::EndpointId>(sender))) {
        continue;
      }
      (void)survivor.deliver_catch_up(p, *nodes_[t]);
    }
  }
}

// ---- Elastic repartitioning (DESIGN.md §5j) ----

BackupServer& Cluster::server_ref(std::size_t slot) {
  return slot < servers_.size() ? *servers_[slot]
                                : *staged_servers_[slot - servers_.size()];
}

Status Cluster::migration_preconditions(std::size_t exclude) {
  for (std::size_t s = 0; s < nodes_.size(); ++s) {
    if (nodes_[s]->has_deferred_entries()) {
      return {Errc::kInvalidArgument,
              format("server {} holds deferred phase-E entries; run a clean "
                     "round first",
                     s)};
    }
    for (std::size_t p = 0; p < map_.part_count(); ++p) {
      if (!nodes_[s]->owes_catch_up(p)) continue;
      const std::size_t owed_to = map_.other_holder(p, s);
      if (owed_to == exclude) continue;  // rebuilt from this survivor anyway
      return {Errc::kInvalidArgument,
              format("server {} is owed catch-up entries for part {}; let "
                     "a round deliver them first",
                     owed_to, p)};
    }
  }
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    if (!map_.is_live(k) || k == exclude) continue;
    if (!transport_->reachable(static_cast<net::EndpointId>(k))) {
      return {Errc::kUnavailable,
              format("server {} unreachable; migration needs every surviving "
                     "server",
                     k)};
    }
  }
  // Zero pending entries on every surviving copy: migrations rebuild from
  // the on-disk indexes alone, so anything still in a checking set would
  // be silently dropped. Callers run a forced-SIU round first.
  for (std::size_t p = 0; p < map_.part_count(); ++p) {
    for (std::size_t c = 0; c < map_.copy_count(); ++c) {
      const PartitionCopy& copy = map_.copy(p, c);
      if (copy.server == exclude) continue;
      const std::uint64_t pending =
          servers_[copy.server]->part_index(p, copy.via_store).pending_count();
      if (pending != 0) {
        return {Errc::kInvalidArgument,
                format("part {} copy on server {} has {} pending entries; "
                       "run a forced-SIU round first",
                       p, copy.server, pending)};
      }
    }
  }
  return Status::Ok();
}

Result<std::vector<IndexEntry>> Cluster::ship_entries(
    std::size_t sender, std::size_t target, std::vector<IndexEntry> entries,
    std::uint32_t epoch) {
  if (sender == target) return entries;
  const auto sender_id = static_cast<net::EndpointId>(sender);
  const auto target_id = static_cast<net::EndpointId>(target);
  if (Status sent = server_ref(sender).endpoint().send(
          target_id, net::IndexEntryBatch{std::move(entries), epoch});
      !sent.ok()) {
    return Error{Errc::kUnavailable,
                 format("migration shipment {} -> {} failed", sender, target)};
  }
  Result<net::IndexEntryBatch> got =
      server_ref(target).endpoint().expect<net::IndexEntryBatch>(sender_id);
  if (!got.ok()) {
    return Error{Errc::kUnavailable,
                 format("migration shipment {} -> {} lost", sender, target)};
  }
  if (got.value().epoch != epoch) {
    return Error{Errc::kInvalidArgument,
                 format("migration shipment {} -> {} carries epoch {}, "
                        "expected {}",
                        sender, target, got.value().epoch, epoch)};
  }
  return std::move(got.value().entries);
}

Status Cluster::ensure_staged_servers(const PartitionMap& target) {
  BackupServerConfig server_config = config_.server_config;
  server_config.index_params.skip_bits = target.routing_bits();
  while (servers_.size() + staged_servers_.size() < target.server_slots()) {
    const std::size_t slot = servers_.size() + staged_servers_.size();
    auto server = std::make_unique<BackupServer>(slot, server_config,
                                                 &repository_, &director_);
    // A device fault during construction abandons this attempt before the
    // slot registers an endpoint; a later retry re-stages from scratch.
    if (!server->boot_status().ok()) return server->boot_status();
    if (Status connected = connect(*server); !connected.ok()) return connected;
    staged_servers_.push_back(std::move(server));
  }
  return Status::Ok();
}

Status Cluster::split() {
  Result<PartitionMap> next_map = map_.split();
  if (!next_map.ok()) return next_map.status();
  const PartitionMap& next = next_map.value();
  if (Status ready = migration_preconditions(kNoSlot); !ready.ok()) {
    return ready;
  }
  if (Status staged_fleet = ensure_staged_servers(next); !staged_fleet.ok()) {
    return staged_fleet;
  }

  // ---- Prepare: everything fallible happens here, and only freshly
  // minted devices are ever written. Each old partition is extracted once
  // from its preferred copy, cut into its two split halves by the new
  // routing prefix, shipped (epoch-stamped, over the wire) to every
  // server hosting a copy under the new map, and loaded into a staged
  // index with one sorted bulk insert. A fault at any point abandons the
  // staged objects; the old map, epoch, and every committed image are
  // untouched.
  index::DiskIndexParams new_params = config_.server_config.index_params;
  new_params.skip_bits = next.routing_bits();

  std::vector<StagedCopy> staged;
  for (std::size_t p = 0; p < map_.part_count(); ++p) {
    const PartitionCopy& source = map_.copy(p, 0);
    Result<std::vector<IndexEntry>> extracted = index::extract_sorted_entries(
        servers_[source.server]->part_index(p, source.via_store).index());
    if (!extracted.ok()) return extracted.status();
    // The sorted stream cuts cleanly: fingerprint order groups the new
    // low half (2p) before the high half (2p+1), and each half stays
    // sorted — exactly the per-generation bulk a twin born at the new
    // topology would insert.
    std::array<std::vector<IndexEntry>, 2> halves;
    for (IndexEntry& e : extracted.value()) {
      halves[next.owner_of(e.fp) & 1].push_back(e);
    }
    for (std::size_t half = 0; half < 2; ++half) {
      const std::size_t q = 2 * p + half;
      for (std::size_t c = 0; c < next.copy_count(); ++c) {
        const PartitionCopy& target = next.copy(q, c);
        Result<std::vector<IndexEntry>> shipped = ship_entries(
            source.server, target.server, halves[half], next.epoch());
        if (!shipped.ok()) return shipped.status();
        Result<index::DiskIndex> idx = build_staged_index(
            server_ref(target.server), new_params,
            std::move(shipped).value());
        if (!idx.ok()) return idx.status();
        staged.push_back(StagedCopy{q, target.server, target.via_store,
                                    std::move(idx).value()});
      }
    }
  }

  // ---- Commit: pure in-memory handover, nothing below can fail.
  for (auto& server : staged_servers_) servers_.push_back(std::move(server));
  staged_servers_.clear();
  for (auto& server : servers_) server->detach_all_replicas();
  for (StagedCopy& copy : staged) {
    servers_[copy.slot]->install_copy(copy.part, copy.via_store,
                                      std::move(copy.idx));
  }
  map_ = std::move(next_map).value();
  config_.routing_bits = map_.routing_bits();
  rebuild_nodes();
  return Status::Ok();
}

Status Cluster::drain(std::size_t slot) {
  if (slot >= servers_.size()) {
    return {Errc::kInvalidArgument,
            format("drain: no server slot {}", slot)};
  }
  Result<PartitionMap> next_map = map_.drained(slot);
  if (!next_map.ok()) return next_map.status();
  const PartitionMap& next = next_map.value();
  // The draining slot itself is exempt from the health checks: draining a
  // DARK server is the whole point — its copies are rebuilt from the
  // surviving ones, never read.
  if (Status ready = migration_preconditions(slot); !ready.ok()) {
    return ready;
  }

  index::DiskIndexParams params = config_.server_config.index_params;
  params.skip_bits = map_.routing_bits();

  // ---- Prepare: only the partitions that lost a copy to the drained
  // slot change. Each is extracted from its surviving copy and staged as
  // the replacement replica on the server the new map picked.
  std::vector<StagedCopy> staged;
  for (std::size_t p = 0; p < next.part_count(); ++p) {
    if (map_.copy_on(p, slot) == nullptr) continue;
    const PartitionCopy& source = next.copy(p, 0);  // the promoted survivor
    const PartitionCopy& target = next.copy(p, 1);  // the replacement
    Result<std::vector<IndexEntry>> extracted = index::extract_sorted_entries(
        servers_[source.server]->part_index(p, source.via_store).index());
    if (!extracted.ok()) return extracted.status();
    Result<std::vector<IndexEntry>> shipped =
        ship_entries(source.server, target.server, std::move(extracted).value(),
                     next.epoch());
    if (!shipped.ok()) return shipped.status();
    Result<index::DiskIndex> idx = build_staged_index(
        *servers_[target.server], params, std::move(shipped).value());
    if (!idx.ok()) return idx.status();
    staged.push_back(
        StagedCopy{p, target.server, /*via_store=*/false,
                   std::move(idx).value()});
  }

  // ---- Commit: pure in-memory handover.
  for (StagedCopy& copy : staged) {
    servers_[copy.slot]->install_copy(copy.part, copy.via_store,
                                      std::move(copy.idx));
  }
  servers_[slot]->detach_all_replicas();
  map_ = std::move(next_map).value();
  director_.retire_server(slot);
  // Epoch-scoped dedup state: if this address is ever reused (or the slot
  // somehow reappears), its fresh frames must not be discarded as
  // duplicates of the drained server's sequence space.
  const auto slot_id = static_cast<net::EndpointId>(slot);
  for (std::size_t k = 0; k < servers_.size(); ++k) {
    if (!map_.is_live(k)) continue;
    servers_[k]->endpoint().reset_peer(slot_id);
  }
  client_endpoint_->reset_peer(slot_id);
  rebuild_nodes();
  return Status::Ok();
}

Status Cluster::restore(std::uint64_t job_id, std::uint32_t version,
                        std::size_t via_server, RestoreSink& sink) {
  const std::optional<JobVersionRecord> record =
      director_.version(job_id, version);
  if (!record.has_value()) {
    return {Errc::kNotFound,
            format("job {} version {} not recorded", job_id, version)};
  }
  return restore_via(record->files, via_server, sink);
}

Result<Dataset> Cluster::restore(std::uint64_t job_id, std::uint32_t version,
                                 std::size_t via_server) {
  Dataset out;
  DatasetSink collect(out);
  if (Status s = restore(job_id, version, via_server, collect); !s.ok()) {
    return Error{s.code(), s.message()};
  }
  return out;
}

Result<std::vector<Byte>> Cluster::read_chunk(std::size_t via_server,
                                              const Fingerprint& fp) {
  const FileRecord recipe{.chunk_fps = {fp}};
  Dataset out;
  DatasetSink collect(out);
  if (Status s = restore_via({&recipe, 1}, via_server, collect); !s.ok()) {
    return Error{s.code(), s.message()};
  }
  return std::move(out.files.front().content);
}

Status Cluster::restore_via(std::span<const FileRecord> files,
                            std::size_t via, RestoreSink& sink) {
  assert(via < servers_.size());
  const auto via_id = static_cast<net::EndpointId>(via);
  return nodes_[via]->restore(
      files, *client_endpoint_, sink,
      [&](std::size_t holder, const Status& sent) {
        if (!sent.ok() || !nodes_[holder]->answer(via_id).ok()) {
          director_.mark_unreachable(holder);
        }
      });
}

void Cluster::reset_clocks() {
  for (auto& s : servers_) s->reset_clocks();
  repository_.reset_clocks();
}

Status Cluster::maintenance_preconditions() {
  if (Status s = migration_preconditions(kNoSlot); !s.ok()) {
    // Every violated precondition is transient — pending SIU drains with
    // a forced round, deferred/owed entries re-ship, dark copies heal —
    // so maintenance reports the retryable kBusy, not the migration
    // gate's codes.
    return {Errc::kBusy, s.message()};
  }
  return Status::Ok();
}

PeerRelay Cluster::maintenance_relay(std::size_t driver) {
  return [this, driver](std::size_t peer, const Status& sent) {
    if (sent.ok()) {
      (void)nodes_[peer]->answer(static_cast<net::EndpointId>(driver));
    }
  };
}

Result<std::vector<IndexEntry>> Cluster::maintenance_mark(
    std::size_t part, std::vector<Fingerprint> live_fps) {
  const std::size_t driver = first_live_slot(map_);
  return nodes_[driver]->maintenance_mark(part, std::move(live_fps),
                                          maintenance_relay(driver));
}

Status Cluster::maintenance_install(std::size_t part,
                                    std::vector<IndexEntry> sorted) {
  const std::size_t driver = first_live_slot(map_);
  return nodes_[driver]->maintenance_install(part, std::move(sorted),
                                             maintenance_relay(driver));
}

void Cluster::maintenance_commit_indexes() {
  for (auto& node : nodes_) node->commit_staged();
}

void Cluster::maintenance_abort() {
  for (auto& node : nodes_) node->drop_staged();
}

}  // namespace debar::core
