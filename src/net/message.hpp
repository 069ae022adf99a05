// Typed wire messages for every cluster exchange (Section 5.2, Figure 5).
//
// Each message the PSIL/PSIU protocol or the restore path ships between
// backup servers is a struct with an explicit little-endian serialization
// (common/serial.hpp), framed by a fixed envelope:
//
//   u8  type        MessageType discriminator
//   u32 from        sending endpoint
//   u32 to          receiving endpoint
//   u32 seq         per-(sender, receiver) sequence number; receivers use
//                   it to discard duplicated deliveries
//   u32 payload     payload byte count
//
// Wire costs are whatever these encodings actually measure — the cluster
// meters serialized bytes through the NIC models, so accounting can never
// drift from the structs. Per-item costs match the paper's model: 20 B
// per shipped fingerprint, 25 B per index entry, and ~1 B per duplicate
// verdict (VerdictBatch delta-encodes the duplicate positions as LEB128
// varints, so dense verdict runs cost one byte each).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/result.hpp"
#include "common/serial.hpp"
#include "common/types.hpp"

namespace debar::net {

/// Transport address of one protocol participant. Backup server k is
/// endpoint k; a cluster registers one extra client endpoint for
/// restore-stream delivery.
using EndpointId = std::uint32_t;

/// Reserved endpoint id for the cluster's restore client. Server slots
/// count up from 0, and elastic scale-out appends new slots; pinning the
/// client far away keeps a grown fleet from colliding with it.
inline constexpr EndpointId kClientEndpointId = 0xFFFFFF00u;

enum class MessageType : std::uint8_t {
  kFingerprintBatch = 1,  // phase A: undetermined fps to their part owner
  kVerdictBatch = 2,      // phase C: duplicate verdicts back to the origin
  kIndexEntryBatch = 3,   // phase E: fresh <fp, container> entries to owner
  kChunkLocateRequest = 4,  // restore: which container holds this chunk?
  kChunkLocateReply = 5,    // restore: owner's answer
  kChunkData = 6,           // restore: chunk payload to the client
  kControl = 7,             // cluster runner coordination (e.g. shutdown)
  kJumbo = 8,               // coalesced same-type run, see net/wire_codec
  kGcMarkRequest = 9,   // maintenance: a partition's live fps to its host
  kGcMarkReply = 10,    // maintenance: surviving <fp, container> entries back
  kGcInstall = 11,      // maintenance: rebuilt entry stream to a copy host
  kIngestOpen = 12,     // ingest: a tenant opens a streaming dedup-1 job
  kIngestBatch = 13,    // ingest: one chunk-run batch of a streamed file
  kIngestClose = 14,    // ingest: finish the job, submit the version
  kIngestReply = 15,    // ingest: server's answer to any of the three
};

/// One past the highest MessageType value, for per-type stat arrays.
inline constexpr std::size_t kMessageTypeCount = 16;

/// Fixed envelope bytes prepended to every payload.
inline constexpr std::size_t kEnvelopeSize = 1 + 4 + 4 + 4 + 4;

/// Phase A: the undetermined fingerprints one origin routes to one
/// index-part owner, in the origin's (sorted) batch order. Verdicts refer
/// back to positions in this batch.
struct FingerprintBatch {
  static constexpr MessageType kType = MessageType::kFingerprintBatch;
  /// Wire bytes per shipped fingerprint (the old kFpWire).
  static constexpr std::size_t kPerFingerprint = Fingerprint::kSize;

  std::vector<Fingerprint> fps;
  /// PartitionMap epoch the sender routed this batch under. Serialized
  /// first in the payload; a receiver on a different epoch rejects the
  /// batch instead of applying fingerprints routed by a torn map.
  std::uint32_t epoch = 0;

  friend bool operator==(const FingerprintBatch&,
                         const FingerprintBatch&) = default;
};

/// Phase C: which queries of an origin's FingerprintBatch the owner
/// resolved as duplicates. Encoded as ascending batch positions,
/// delta-compressed (LEB128): a dense run of duplicates costs one byte
/// per verdict, the paper's kVerdictWire.
struct VerdictBatch {
  static constexpr MessageType kType = MessageType::kVerdictBatch;

  /// Echo of the origin batch size, so a mismatched reply is rejected.
  std::uint32_t query_count = 0;
  /// Strictly ascending positions into the origin's batch.
  std::vector<std::uint32_t> duplicate_indices;

  friend bool operator==(const VerdictBatch&, const VerdictBatch&) = default;
};

/// Phase E: freshly stored <fingerprint, containerID> entries routed to
/// their index-part owner for registration.
struct IndexEntryBatch {
  static constexpr MessageType kType = MessageType::kIndexEntryBatch;
  /// Wire bytes per entry (the old kEntryWire).
  static constexpr std::size_t kPerEntry = IndexEntry::kSerializedSize;

  std::vector<IndexEntry> entries;
  /// PartitionMap epoch under which these entries were routed (see
  /// FingerprintBatch::epoch). Elastic migration ships rebuilt partitions
  /// as entry batches stamped with the post-transition epoch.
  std::uint32_t epoch = 0;

  friend bool operator==(const IndexEntryBatch&,
                         const IndexEntryBatch&) = default;
};

/// Restore: a serving server asks a part owner where a chunk lives.
struct ChunkLocateRequest {
  static constexpr MessageType kType = MessageType::kChunkLocateRequest;

  Fingerprint fp;

  friend bool operator==(const ChunkLocateRequest&,
                         const ChunkLocateRequest&) = default;
};

/// Restore: the owner's answer — an Errc (kOk on success) plus the
/// container ID when found.
struct ChunkLocateReply {
  static constexpr MessageType kType = MessageType::kChunkLocateReply;

  Errc status = Errc::kOk;
  ContainerId container;

  friend bool operator==(const ChunkLocateReply&,
                         const ChunkLocateReply&) = default;
};

/// Restore: one chunk's bytes crossing the serving server's wire to the
/// client, tagged with its fingerprint.
struct ChunkData {
  static constexpr MessageType kType = MessageType::kChunkData;

  Fingerprint fp;
  std::vector<Byte> bytes;

  friend bool operator==(const ChunkData&, const ChunkData&) = default;
};

/// Cluster-runner coordination, outside the dedup/restore protocol proper:
/// debar_clusterd uses it to tell peer processes a round is over (their
/// serve loops may exit) without killing them mid-write.
struct Control {
  static constexpr MessageType kType = MessageType::kControl;

  enum Op : std::uint32_t {
    kShutdown = 1,           // stop serving and exit cleanly
    kMaintenanceCommit = 2,  // swap staged maintenance state in (arg: epoch)
    kMaintenanceAbort = 3,   // discard staged maintenance state (arg: epoch)
    kMaintenanceAck = 4,     // peer's acknowledgement of commit/abort
  };

  std::uint32_t op = kShutdown;
  std::uint64_t arg = 0;

  friend bool operator==(const Control&, const Control&) = default;
};

/// Maintenance mark phase (DESIGN.md §5k): the coordinator ships the
/// sorted live fingerprints belonging to partition `part` to the
/// partition's primary host, which classifies its index entries against
/// them. Epoch-fenced like every routed batch — a mark minted against a
/// torn map must not drive reclamation.
struct GcMarkRequest {
  static constexpr MessageType kType = MessageType::kGcMarkRequest;

  std::uint32_t epoch = 0;
  std::uint32_t part = 0;
  /// Sorted, deduplicated live fingerprints routed to `part`.
  std::vector<Fingerprint> fps;

  friend bool operator==(const GcMarkRequest&,
                         const GcMarkRequest&) = default;
};

/// Maintenance mark reply: the live <fp, container> entries of `part` —
/// every index entry of the partition whose fingerprint appeared in the
/// request. The coordinator cross-checks the count against its mark set
/// (a live fingerprint with no index entry is corruption).
struct GcMarkReply {
  static constexpr MessageType kType = MessageType::kGcMarkReply;

  std::uint32_t epoch = 0;
  std::uint32_t part = 0;
  std::vector<IndexEntry> entries;

  friend bool operator==(const GcMarkReply&, const GcMarkReply&) = default;
};

/// Maintenance install: the canonical post-GC entry stream of `part`,
/// shipped to the host of one partition copy so it can stage a rebuilt
/// index image. `via_store` selects which copy on that host (its
/// ChunkStore vs. a hosted IndexPart). Staged
/// images become visible only on a later Control::kMaintenanceCommit.
struct GcInstall {
  static constexpr MessageType kType = MessageType::kGcInstall;

  std::uint32_t epoch = 0;
  std::uint32_t part = 0;
  std::uint8_t via_store = 0;
  /// Sorted live entries (the rebuild stream).
  std::vector<IndexEntry> entries;

  friend bool operator==(const GcInstall&, const GcInstall&) = default;
};

/// Ingest (DESIGN.md §5l): a tenant's client opens one streaming dedup-1
/// job on a backup server. Epoch-fenced like every routed payload — an
/// ingest admitted under a torn partition map must not run.
struct IngestOpen {
  static constexpr MessageType kType = MessageType::kIngestOpen;

  std::uint32_t epoch = 0;
  std::uint64_t tenant = 0;
  std::uint64_t job_id = 0;

  friend bool operator==(const IngestOpen&, const IngestOpen&) = default;
};

/// Ingest: one chunk-run batch of a streamed file — the fingerprints (and
/// chunk sizes) of a contiguous run, offered for dedup-1 without the
/// payloads. kBeginFile batches carry the file's metadata; a file larger
/// than one batch streams as begin / middle / end batches. The server
/// answers with an IngestReply naming the positions whose payloads must
/// follow (as ChunkData messages).
struct IngestBatch {
  static constexpr MessageType kType = MessageType::kIngestBatch;

  enum Flags : std::uint8_t {
    kBeginFile = 1,  // this batch opens a new file (metadata present)
    kEndFile = 2,    // the file ends with this batch
  };

  std::uint32_t epoch = 0;
  std::uint64_t stream = 0;  // session handle from the open reply
  std::uint8_t flags = 0;
  /// File metadata, serialized only when kBeginFile is set.
  std::string path;
  std::uint64_t file_size = 0;
  std::uint64_t mtime = 0;
  std::uint32_t mode = 0644;
  std::vector<Fingerprint> fps;
  std::vector<std::uint32_t> sizes;  // parallel to fps

  friend bool operator==(const IngestBatch&, const IngestBatch&) = default;
};

/// Ingest: close the stream — the server ends the session and submits the
/// finished version to the director.
struct IngestClose {
  static constexpr MessageType kType = MessageType::kIngestClose;

  std::uint32_t epoch = 0;
  std::uint64_t stream = 0;

  friend bool operator==(const IngestClose&, const IngestClose&) = default;
};

/// Ingest: the server's answer to IngestOpen (admission verdict — kBusy
/// with a suggested backoff when dedup-2 pressure is above the high-water
/// mark), IngestBatch (`needed`: ascending batch positions whose payloads
/// must be transferred, delta-encoded like VerdictBatch), and IngestClose
/// (the recorded version number).
struct IngestReply {
  static constexpr MessageType kType = MessageType::kIngestReply;

  Errc status = Errc::kOk;
  std::uint64_t stream = 0;
  std::uint32_t version = 0;
  /// kBusy only: suggested client backoff before retrying admission.
  std::uint32_t retry_ms = 0;
  /// Echo of the batch size `needed` indexes into (decode bound).
  std::uint32_t query_count = 0;
  /// Strictly ascending positions into the batch that need payloads.
  std::vector<std::uint32_t> needed;

  friend bool operator==(const IngestReply&, const IngestReply&) = default;
};

using Message = std::variant<FingerprintBatch, VerdictBatch, IndexEntryBatch,
                             ChunkLocateRequest, ChunkLocateReply, ChunkData,
                             Control, GcMarkRequest, GcMarkReply, GcInstall,
                             IngestOpen, IngestBatch, IngestClose,
                             IngestReply>;

[[nodiscard]] MessageType type_of(const Message& msg) noexcept;

/// Serialize `msg` with its envelope. The result's size is the message's
/// wire cost.
[[nodiscard]] std::vector<Byte> encode(EndpointId from, EndpointId to,
                                       std::uint32_t seq, const Message& msg);

struct Decoded {
  EndpointId from = 0;
  EndpointId to = 0;
  std::uint32_t seq = 0;
  Message message;
};

/// Parse an encoded frame. Truncated, oversized, or internally
/// inconsistent buffers are rejected with kCorrupt — a payload must
/// consume exactly its declared byte count.
[[nodiscard]] Result<Decoded> decode(ByteSpan bytes);

/// Envelope + payload bytes `msg` costs on the wire (equals
/// encode(...).size() without building the buffer).
[[nodiscard]] std::size_t wire_bytes(const Message& msg) noexcept;

/// The v1 payload encoding alone (no envelope) — the building block the
/// wire codec's identity sub-frames reuse, and the "raw bytes" unit of
/// the paper's per-message wire model.
void write_payload_v1(ByteWriter& w, const Message& msg);
[[nodiscard]] std::size_t payload_bytes_v1(const Message& msg) noexcept;

/// Parse one v1 payload of `type` from `r`, consuming exactly its bytes.
/// kJumbo is rejected here — coalesced frames decode via net/wire_codec.
[[nodiscard]] Result<Message> read_payload_v1(MessageType type, ByteReader& r);

}  // namespace debar::net
