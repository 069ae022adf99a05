#include "core/cluster_node.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_set>

#include "common/fmt.hpp"
#include "core/maintenance.hpp"

namespace debar::core {

namespace {

/// Phase B, as one partition host runs it: fold the per-origin batches
/// (inbox[s] is origin s's queries, in batch order) into sorted unique
/// fingerprints, run SIL once on the hosted copy, and resolve per-origin
/// verdicts — a fingerprint found on disk or pending is a duplicate for
/// every asker; a new fingerprint asked about by several origins is
/// stored by the smallest origin id only, the rest are told "duplicate".
/// Origin batches are sorted (take_undetermined sorts), so the verdict
/// positions come out strictly ascending per origin, as VerdictBatch's
/// delta encoding wants.
/// `duplicates` accumulates the verdict count.
Result<std::vector<net::VerdictBatch>> resolve_psil(
    IndexPart& copy, const std::vector<net::FingerprintBatch>& inbox,
    std::uint64_t& duplicates) {
  const std::size_t n = inbox.size();
  std::vector<net::VerdictBatch> verdicts(n);

  struct Query {
    Fingerprint fp;
    std::size_t origin;
    std::uint32_t index;  // position in the origin's batch
  };
  std::vector<Query> queries;
  for (std::size_t s = 0; s < n; ++s) {
    const std::vector<Fingerprint>& fps = inbox[s].fps;
    verdicts[s].query_count = static_cast<std::uint32_t>(fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      queries.push_back({fps[i], s, static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(queries.begin(), queries.end(),
            [](const Query& a, const Query& b) {
              return a.fp < b.fp || (a.fp == b.fp && a.origin < b.origin);
            });

  std::vector<Fingerprint> unique_fps;
  unique_fps.reserve(queries.size());
  for (const Query& q : queries) {
    if (unique_fps.empty() || unique_fps.back() != q.fp) {
      unique_fps.push_back(q.fp);
    }
  }

  std::vector<std::uint8_t> found;
  Result<SilResult> sil = copy.sil(unique_fps, found);
  if (!sil.ok()) return sil.error();

  std::size_t qi = 0;
  for (std::size_t u = 0; u < unique_fps.size(); ++u) {
    bool designated = false;
    for (; qi < queries.size() && queries[qi].fp == unique_fps[u]; ++qi) {
      if (found[u] == 0 && !designated) {
        designated = true;  // this origin stores the chunk
        continue;
      }
      verdicts[queries[qi].origin].duplicate_indices.push_back(
          queries[qi].index);
      ++duplicates;
    }
  }
  return verdicts;
}

bool acked(const net::Control& ack, std::uint32_t epoch) {
  return ack.op == net::Control::kMaintenanceAck && ack.arg == epoch;
}

/// Sends each chunk from the serving node to the client as one ChunkData
/// frame and passes the bytes the client received on to `out`.
class DeliverySink final : public RestoreSink {
 public:
  DeliverySink(net::Endpoint& via, net::Endpoint& client, RestoreSink& out,
               std::chrono::nanoseconds timeout)
      : via_(via), client_(client), out_(out), timeout_(timeout) {}

  Status begin_file(const FileRecord& file) override {
    fps_ = file.chunk_fps.data();
    return out_.begin_file(file);
  }

  Status chunk(ByteSpan data) override {
    const net::EndpointId to = client_.id();
    if (via_.send(to, net::ChunkData{*fps_++, {data.begin(), data.end()}})
            .ok()) {
      const Result<net::ChunkData> got = client_.expect<net::ChunkData>(
          via_.id(), net::Deadline::after(timeout_));
      if (got.ok()) return out_.chunk(got.value().bytes);
    }
    return {Errc::kUnavailable,
            format("restore delivery from server {} failed", via_.id())};
  }

  Status end_file() override { return out_.end_file(); }

 private:
  net::Endpoint& via_;
  net::Endpoint& client_;
  RestoreSink& out_;
  std::chrono::nanoseconds timeout_;
  const Fingerprint* fps_ = nullptr;
};

Status epoch_mismatch(std::size_t node, const char* what, std::size_t from,
                      std::uint32_t got, std::uint32_t want) {
  return {Errc::kInvalidArgument,
          format("node {}: {} from {} carries epoch {}, this node's map is "
                 "at {}",
                 node, what, from, got, want)};
}

}  // namespace

// ---- Dedup-2 round ----

Status ClusterNode::check_slot() const {
  const PartitionMap& map = config_.map;
  const std::size_t k = config_.node;
  if (!map.is_live(k)) {
    return {Errc::kInvalidArgument,
            format("node {}: slot is drained in the map", k)};
  }
  // Replication (DESIGN.md §5g) is part of the wire protocol: every peer
  // dual-writes phase E, so a node missing a copy the map assigns it
  // would desync the round for everyone.
  for (const std::size_t p : map.parts_hosted_by(k)) {
    if (hosted_copy(p) == nullptr) {
      return {Errc::kInvalidArgument,
              format("node {}: no copy attached for part {}", k, p)};
    }
  }
  return Status::Ok();
}

Result<NodeRoundResult> ClusterNode::run_dedup2_round(bool force_siu) {
  if (Status s = check_slot(); !s.ok()) return Error{s.code(), s.message()};
  const PartitionMap& map = config_.map;
  const std::size_t k = config_.node;
  const RoundView view = static_view();
  std::vector<std::size_t> all_parts(map.part_count());
  std::iota(all_parts.begin(), all_parts.end(), std::size_t{0});
  // There is no coordinator to blame a silent peer or fail over around
  // it: any unheard peer aborts this node's round.
  unheard_.clear();
  const auto settle = [&](const char* phase, Status status) {
    if (status.ok() && !unheard_.empty()) {
      status = Status(Errc::kUnavailable,
                      format("node {}: phase {} exchange with node {} failed",
                             k, phase, unheard_.front()));
    }
    return status;
  };

  begin_round();
  Status s = settle("A", send_queries(view, all_parts));
  if (s.ok()) s = settle("A", receive_queries(view, all_parts));
  if (s.ok()) s = run_psil(view);
  if (s.ok()) s = settle("C", send_verdicts(view));
  if (s.ok()) s = settle("C", receive_verdicts(view));
  if (s.ok()) s = store_chunks();
  if (s.ok()) s = settle("E", send_entries(view));
  if (s.ok()) s = settle("E", receive_entries(view));
  if (s.ok()) s = commit_round(view, force_siu);
  if (!s.ok()) {
    abort_round();
    return Error{s.code(), s.message()};
  }
  return result_;
}

RoundView ClusterNode::static_view() const {
  RoundView view;
  view.alive.resize(config_.map.server_slots());
  for (std::size_t j = 0; j < view.alive.size(); ++j) {
    view.alive[j] = config_.map.is_live(j);
  }
  view.host.assign(config_.map.part_count(), 0);
  return view;
}

void ClusterNode::begin_round() {
  const std::size_t n = config_.map.server_slots();
  const std::size_t m = config_.map.part_count();
  round_ = Round{};
  result_ = NodeRoundResult{};
  round_.active = true;
  round_.drained = server_->file_store().take_undetermined();
  result_.undetermined = round_.drained.size();
  round_.outbox.resize(m);
  for (const Fingerprint& fp : round_.drained) {
    round_.outbox[config_.map.owner_of(fp)].push_back(fp);
  }
  round_.queries.assign(m, std::vector<net::FingerprintBatch>(n));
  round_.verdicts_out.resize(m);
  round_.verdicts.resize(m);
  round_.entries_out.resize(m);
  round_.entries.assign(m, std::vector<net::IndexEntryBatch>(n));
}

void ClusterNode::post(std::size_t to, const net::Message& msg) {
  if (!server_->endpoint()
           .send_buffered(static_cast<net::EndpointId>(to), msg)
           .ok()) {
    unheard_.push_back(to);
  }
}

void ClusterNode::flush_peers(const RoundView& view) {
  for (std::size_t t = 0; t < view.alive.size(); ++t) {
    if (t == config_.node || !view.alive[t]) continue;
    if (!server_->endpoint().flush(static_cast<net::EndpointId>(t)).ok()) {
      unheard_.push_back(t);
    }
  }
}

template <typename T>
std::optional<T> ClusterNode::await(std::size_t from, Status& status) {
  Result<T> got = server_->endpoint().expect<T>(
      static_cast<net::EndpointId>(from), barrier_deadline());
  if (!got.ok()) {
    unheard_.push_back(from);
    return std::nullopt;
  }
  if constexpr (requires { got.value().epoch; }) {
    // A batch minted against a different map must never be folded into
    // this round (DESIGN.md §5j epoch rules).
    if (got.value().epoch != config_.map.epoch()) {
      status = epoch_mismatch(config_.node, "batch", from, got.value().epoch,
                              config_.map.epoch());
      return std::nullopt;
    }
  }
  return std::move(got).value();
}

template <typename Reply>
Result<Reply> ClusterNode::ask(std::size_t peer, const net::Message& request,
                               const PeerRelay& relay) {
  const auto id = static_cast<net::EndpointId>(peer);
  const Status sent = server_->endpoint().send(id, request);
  if (relay) relay(peer, sent);
  if (!sent.ok()) {
    return Error{Errc::kUnavailable,
                 format("node {}: request to node {} failed: {}",
                        config_.node, peer, sent.message())};
  }
  return server_->endpoint().expect<Reply>(id, barrier_deadline());
}

// Every send step queues its batches per peer in ascending part order —
// the order the receiver awaits them in (per-pair delivery is FIFO) — and
// flushes at the phase boundary, so with coalescing on each (sender,
// receiver) pair exchanges one jumbo frame per phase. Empty batches still
// ship: every pair exchanges one message per part.

Status ClusterNode::send_queries(const RoundView& view,
                                 std::span<const std::size_t> parts) {
  for (const std::size_t p : parts) {
    const std::size_t j = psil_host(view, p);
    if (j == config_.node) continue;
    post(j, net::FingerprintBatch{round_.outbox[p], config_.map.epoch()});
  }
  flush_peers(view);
  return Status::Ok();
}

Status ClusterNode::receive_queries(const RoundView& view,
                                    std::span<const std::size_t> parts) {
  const std::size_t k = config_.node;
  Status status = Status::Ok();
  for (const std::size_t p : parts) {
    if (psil_host(view, p) != k) continue;
    round_.queries[p][k].fps = round_.outbox[p];
    for (std::size_t s = 0; s < view.alive.size(); ++s) {
      if (s == k || !view.alive[s]) continue;
      if (auto batch = await<net::FingerprintBatch>(s, status)) {
        round_.queries[p][s] = std::move(*batch);
      }
    }
  }
  return status;
}

void ClusterNode::forget_origin(std::size_t origin) {
  for (auto& batches : round_.queries) {
    if (origin < batches.size()) batches[origin] = {};
  }
  for (auto& batches : round_.entries) {
    if (origin < batches.size()) batches[origin] = {};
  }
}

Status ClusterNode::run_psil(const RoundView& view) {
  for (std::size_t p = 0; p < config_.map.part_count(); ++p) {
    if (psil_host(view, p) != config_.node) continue;
    Result<std::vector<net::VerdictBatch>> verdicts =
        resolve_psil(*hosted_copy(p), round_.queries[p], result_.duplicates);
    if (!verdicts.ok()) return verdicts.status();
    round_.verdicts_out[p] = std::move(verdicts).value();
  }
  return Status::Ok();
}

Status ClusterNode::send_verdicts(const RoundView& view) {
  const std::size_t k = config_.node;
  for (std::size_t p = 0; p < config_.map.part_count(); ++p) {
    if (psil_host(view, p) != k) continue;
    for (std::size_t s = 0; s < view.alive.size(); ++s) {
      if (s != k && view.alive[s]) post(s, round_.verdicts_out[p][s]);
    }
  }
  flush_peers(view);
  return Status::Ok();
}

Status ClusterNode::receive_verdicts(const RoundView& view) {
  Status status = Status::Ok();
  for (std::size_t p = 0; p < config_.map.part_count(); ++p) {
    const std::size_t j = psil_host(view, p);
    if (j == config_.node) {
      round_.verdicts[p] = std::move(round_.verdicts_out[p][j]);
      continue;
    }
    std::optional<net::VerdictBatch> verdict =
        await<net::VerdictBatch>(j, status);
    if (!verdict) continue;
    if (verdict->query_count != round_.outbox[p].size()) {
      status = Status(Errc::kCorrupt,
                      format("verdict from {} answers {} queries, {} were "
                             "asked",
                             j, verdict->query_count, round_.outbox[p].size()));
      continue;
    }
    round_.verdicts[p] = std::move(*verdict);
  }
  return status;
}

Status ClusterNode::store_chunks() {
  std::unordered_set<Fingerprint, FingerprintHash> dups;
  for (std::size_t p = 0; p < round_.verdicts.size(); ++p) {
    // Verdict indices are validated against query_count at decode and in
    // receive_verdicts, so they index the outbox safely.
    for (const std::uint32_t idx : round_.verdicts[p].duplicate_indices) {
      dups.insert(round_.outbox[p][idx]);
    }
  }
  std::vector<Fingerprint> new_fps;
  for (const Fingerprint& fp : round_.drained) {
    if (!dups.contains(fp)) new_fps.push_back(fp);
  }
  Result<StoreResult> stored = server_->chunk_store().store_new_chunks(new_fps);
  if (!stored.ok()) return stored.status();
  server_->chunk_store().clear_log();
  round_.stored = true;
  result_.new_chunks = stored.value().new_chunks;
  result_.new_bytes = stored.value().new_bytes;
  for (const IndexEntry& e : stored.value().entries) {
    round_.entries_out[config_.map.owner_of(e.fp)].push_back(e);
  }
  for (const IndexEntry& e : deferred_) {
    round_.entries_out[config_.map.owner_of(e.fp)].push_back(e);
  }
  deferred_.clear();
  return Status::Ok();
}

Status ClusterNode::send_entries(const RoundView& view) {
  for (std::size_t p = 0; p < config_.map.part_count(); ++p) {
    for (std::size_t c = 0; c < config_.map.copy_count(); ++c) {
      const std::size_t t = config_.map.copy(p, c).server;
      if (t == config_.node || !view.alive[t]) continue;
      post(t,
           net::IndexEntryBatch{round_.entries_out[p], config_.map.epoch()});
    }
  }
  flush_peers(view);
  return Status::Ok();
}

Status ClusterNode::receive_entries(const RoundView& view) {
  const std::size_t k = config_.node;
  Status status = Status::Ok();
  for (const std::size_t p : config_.map.parts_hosted_by(k)) {
    round_.entries[p][k].entries = round_.entries_out[p];
    for (std::size_t s = 0; s < view.alive.size(); ++s) {
      if (s == k || !view.alive[s]) continue;
      if (auto batch = await<net::IndexEntryBatch>(s, status)) {
        round_.entries[p][s] = std::move(*batch);
      }
    }
  }
  return status;
}

Status ClusterNode::commit_round(const RoundView& view, bool force_siu) {
  const PartitionMap& map = config_.map;
  const std::size_t k = config_.node;
  const std::vector<std::size_t> hosted = map.parts_hosted_by(k);
  // Every copy applies the same per-(part, origin) batches in the same
  // order through the same IndexPart code, and the serial, sharded and
  // pipelined scans it picks between write identical bytes, so the device
  // images of a partition's copies stay byte-identical while both live.
  for (const std::size_t p : hosted) {
    for (const net::IndexEntryBatch& batch : round_.entries[p]) {
      add_pending(p, batch.entries);
    }
    // A dark copy holder missed all of it: this surviving copy re-ships
    // it once the holder is reachable again (catch-up resync).
    if (!map.replicated() || view.alive[map.other_holder(p, k)]) continue;
    owed_.resize(map.part_count());
    for (const net::IndexEntryBatch& batch : round_.entries[p]) {
      owed_[p].insert(owed_[p].end(), batch.entries.begin(),
                      batch.entries.end());
    }
  }
  server_->file_store().commit_undetermined();
  round_ = Round{};  // registered: nothing is left to abort

  // PSIU on every copy here, the ChunkStore first and then the hosted
  // copies by ascending part: they share one index disk model, so the
  // order fixes the modeled seek cost.
  for (IndexPart* copy : server_->index_parts()) {
    if (!(force_siu || copy->siu_due())) continue;
    if (Result<SiuResult> siu = copy->siu(); !siu.ok()) return siu.status();
    // ran_siu reports the ChunkStore's SIU, as single-server dedup-2 does.
    if (copy == &server_->chunk_store()) result_.ran_siu = true;
  }
  return Status::Ok();
}

void ClusterNode::abort_round() {
  if (!round_.active) return;
  if (round_.stored) {
    for (const std::vector<IndexEntry>& part : round_.entries_out) {
      deferred_.insert(deferred_.end(), part.begin(), part.end());
    }
  } else {
    server_->file_store().restore_undetermined(std::move(round_.drained));
  }
  round_ = Round{};
}

void ClusterNode::add_pending(std::size_t part,
                              std::span<const IndexEntry> entries) {
  hosted_copy(part)->add_pending(entries);
}

// ---- Catch-up resync ----

bool ClusterNode::owes_catch_up(std::size_t part) const {
  return part < owed_.size() && !owed_[part].empty();
}

Status ClusterNode::deliver_catch_up(std::size_t part, ClusterNode& holder) {
  const std::uint32_t epoch = config_.map.epoch();
  if (Status sent = server_->endpoint().send(
          static_cast<net::EndpointId>(holder.node()),
          net::IndexEntryBatch{owed_[part], epoch});
      !sent.ok()) {
    return sent;
  }
  Result<net::IndexEntryBatch> batch =
      holder.server_->endpoint().expect<net::IndexEntryBatch>(
          static_cast<net::EndpointId>(config_.node),
          holder.barrier_deadline());
  if (!batch.ok()) return batch.status();
  if (batch.value().epoch != holder.config_.map.epoch()) {
    return epoch_mismatch(holder.node(), "catch-up batch", config_.node,
                          batch.value().epoch, holder.config_.map.epoch());
  }
  holder.add_pending(part, batch.value().entries);
  owed_[part].clear();
  return Status::Ok();
}

// ---- Maintenance ----

Status ClusterNode::maintenance_preconditions() const {
  if (Status s = check_slot(); !s.ok()) return s;
  for (const IndexPart* copy : server_->index_parts()) {
    if (const std::uint64_t pending = copy->pending_count(); pending > 0) {
      return {Errc::kBusy,
              format("node {}: {} SIU entries pending on an index copy",
                     config_.node, pending)};
    }
  }
  return Status::Ok();
}

IndexPart* ClusterNode::hosted_copy(std::size_t part) const {
  const PartitionCopy* copy = config_.map.copy_on(part, config_.node);
  return copy == nullptr ? nullptr : server_->find_part(part, copy->via_store);
}

Result<std::vector<IndexEntry>> ClusterNode::classify_hosted(
    std::size_t part, std::span<const Fingerprint> sorted_live) const {
  const IndexPart* copy = hosted_copy(part);
  if (copy == nullptr) {
    return Error{Errc::kInvalidArgument,
                 format("node {} hosts no copy of part {}", config_.node,
                        part)};
  }
  return classify_live_entries(copy->index(), sorted_live);
}

Status ClusterNode::stage_copy(std::size_t part, bool via_store,
                               std::vector<IndexEntry> sorted) {
  Result<index::DiskIndex> idx = build_staged_index(
      *server_, server_->part_index(part, via_store).index().params(),
      std::move(sorted));
  if (!idx.ok()) return idx.status();
  maintenance_staged_.push_back({part, via_store, std::move(idx).value()});
  return Status::Ok();
}

void ClusterNode::commit_staged() {
  for (NodeStagedCopy& c : maintenance_staged_) {
    server_->install_copy(c.part, c.via_store, std::move(c.idx));
  }
  maintenance_staged_.clear();
}

Result<std::vector<IndexEntry>> ClusterNode::maintenance_mark(
    std::size_t part, std::vector<Fingerprint> live_fps,
    const PeerRelay& relay) {
  const std::size_t j = config_.map.copy(part, 0).server;
  if (j == config_.node) return classify_hosted(part, live_fps);

  const std::uint32_t epoch = config_.map.epoch();
  Result<net::GcMarkReply> reply = ask<net::GcMarkReply>(
      j,
      net::GcMarkRequest{epoch, static_cast<std::uint32_t>(part),
                         std::move(live_fps)},
      relay);
  if (!reply.ok()) return reply.error();
  if (reply.value().epoch != epoch || reply.value().part != part) {
    return Error{Errc::kInvalidArgument,
                 format("mark reply from node {} answers part {} epoch {}, "
                        "asked part {} epoch {}",
                        j, reply.value().part, reply.value().epoch, part,
                        epoch)};
  }
  return std::move(reply.value().entries);
}

Status ClusterNode::maintenance_install(std::size_t part,
                                        std::vector<IndexEntry> sorted,
                                        const PeerRelay& relay) {
  const std::uint32_t epoch = config_.map.epoch();
  for (std::size_t c = 0; c < config_.map.copy_count(); ++c) {
    const PartitionCopy copy = config_.map.copy(part, c);
    if (copy.server == config_.node) {
      if (Status s = stage_copy(part, copy.via_store, sorted); !s.ok()) {
        return s;
      }
      continue;
    }
    Result<net::Control> ack = ask<net::Control>(
        copy.server,
        net::GcInstall{epoch, static_cast<std::uint32_t>(part),
                       static_cast<std::uint8_t>(copy.via_store ? 1 : 0),
                       sorted},
        relay);
    if (!ack.ok()) return ack.status();
    if (!acked(ack.value(), epoch)) {
      return {Errc::kInvalidArgument,
              format("node {} acked install for part {} with op {} arg {}",
                     copy.server, part, ack.value().op, ack.value().arg)};
    }
  }
  return Status::Ok();
}

Status ClusterNode::maintenance_commit() {
  // Local copies swap first (pure in-memory), then the peers are
  // released; their swaps are equally infallible, so a lost ack can only
  // mean a dead peer, not a half-committed fleet.
  commit_staged();
  const std::uint32_t epoch = config_.map.epoch();
  Status rc = Status::Ok();
  for (std::size_t j = 0; j < config_.map.server_slots(); ++j) {
    if (j == config_.node || !config_.map.is_live(j)) continue;
    Result<net::Control> ack = ask<net::Control>(
        j, net::Control{net::Control::kMaintenanceCommit, epoch}, {});
    if (ack.ok() && acked(ack.value(), epoch)) continue;
    if (rc.ok()) {
      rc = {Errc::kUnavailable,
            format("node {} did not acknowledge the maintenance commit", j)};
    }
  }
  return rc;
}

void ClusterNode::maintenance_abort() {
  drop_staged();
  net::Endpoint& ep = server_->endpoint();
  const std::uint32_t epoch = config_.map.epoch();
  for (std::size_t j = 0; j < config_.map.server_slots(); ++j) {
    if (j == config_.node || !config_.map.is_live(j)) continue;
    (void)ep.send(static_cast<net::EndpointId>(j),
                  net::Control{net::Control::kMaintenanceAbort, epoch});
  }
}

Status ClusterNode::serve(net::EndpointId from) {
  for (;;) {
    bool done = false;
    if (Status s = answer(from, &done); !s.ok()) {
      drop_staged();
      return s;
    }
    if (done) return Status::Ok();
  }
}

Status ClusterNode::answer(net::EndpointId from, bool* done) {
  net::Endpoint& ep = server_->endpoint();
  const std::uint32_t epoch = config_.map.epoch();
  const std::size_t k = config_.node;
  std::optional<net::Message> msg = ep.receive_from(from, barrier_deadline());
  if (!msg.has_value()) {
    return {Errc::kUnavailable,
            format("node {}: heard nothing from {} within the round timeout",
                   k, from)};
  }
  if (const auto* request = std::get_if<net::ChunkLocateRequest>(&*msg)) {
    net::ChunkLocateReply reply;
    Result<ContainerId> located = locate_hosted(request->fp);
    if (located.ok()) {
      reply.container = located.value();
    } else {
      reply.status = located.error().code;
    }
    return ep.send(from, reply);
  }
  if (const auto* mark = std::get_if<net::GcMarkRequest>(&*msg)) {
    if (mark->epoch != epoch) {
      return epoch_mismatch(k, "mark request", from, mark->epoch, epoch);
    }
    Result<std::vector<IndexEntry>> entries =
        classify_hosted(mark->part, mark->fps);
    if (!entries.ok()) return entries.status();
    return ep.send(from, net::GcMarkReply{epoch, mark->part,
                                          std::move(entries).value()});
  }
  if (auto* install = std::get_if<net::GcInstall>(&*msg)) {
    const PartitionCopy* copy = config_.map.copy_on(install->part, k);
    if (install->epoch != epoch || copy == nullptr ||
        copy->via_store != (install->via_store != 0)) {
      return {Errc::kInvalidArgument,
              format("node {}: install for part {} does not match this "
                     "node's map",
                     k, install->part)};
    }
    if (Status s = stage_copy(install->part, copy->via_store,
                              std::move(install->entries));
        !s.ok()) {
      return s;
    }
    return ep.send(from, net::Control{net::Control::kMaintenanceAck, epoch});
  }
  const auto* control = std::get_if<net::Control>(&*msg);
  if (control == nullptr) return Status::Ok();  // nothing to answer
  switch (control->op) {
    case net::Control::kMaintenanceCommit:
      commit_staged();
      if (done != nullptr) *done = true;
      return ep.send(from, net::Control{net::Control::kMaintenanceAck, epoch});
    case net::Control::kMaintenanceAbort:
    case net::Control::kShutdown:
      drop_staged();
      if (done != nullptr) *done = true;
      return Status::Ok();
    default:
      return Status::Ok();  // unknown control op: ignore
  }
}

// ---- Restores ----

Result<ContainerId> ClusterNode::locate_hosted(const Fingerprint& fp) const {
  const std::size_t owner = config_.map.owner_of(fp);
  const IndexPart* copy = hosted_copy(owner);
  if (copy == nullptr) {
    return Error{Errc::kNotFound,
                 format("node {} hosts no copy of part {}", config_.node,
                        owner)};
  }
  return copy->locate(fp);
}

Status ClusterNode::restore(std::span<const FileRecord> files,
                            net::Endpoint& client, RestoreSink& sink,
                            const PeerRelay& relay) {
  // Failover order (DESIGN.md §5g): the preferred copy, then the backup,
  // each looked up locally when this node hosts it and with a round trip
  // otherwise. Any failure (a "not found" from a copy that may lag a
  // catch-up included) moves on to the other copy.
  const ChunkStore::Locate locate = [&](const Fingerprint& fp) {
    const std::size_t owner = config_.map.owner_of(fp);
    Result<ContainerId> located = Error{
        Errc::kUnavailable, format("no copy of part {} reachable", owner)};
    for (std::size_t c = 0; c < config_.map.copy_count() && !located.ok();
         ++c) {
      const std::size_t h = config_.map.copy(owner, c).server;
      if (h == config_.node) {
        located = locate_hosted(fp);
        continue;
      }
      const Result<net::ChunkLocateReply> got =
          ask<net::ChunkLocateReply>(h, net::ChunkLocateRequest{fp}, relay);
      if (!got.ok()) {
        located = got.error();
      } else if (got.value().status != Errc::kOk) {
        located = Error{got.value().status,
                        format("chunk not located on holder {}", h)};
      } else {
        located = got.value().container;
      }
    }
    return located;
  };
  DeliverySink deliver(server_->endpoint(), client, sink,
                       config_.round_timeout);
  return server_->chunk_store().restore(files, deliver, locate);
}

}  // namespace debar::core
