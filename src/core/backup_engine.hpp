// Backup Engine — the client side (Section 3.2).
//
// Reads files from a job's dataset, anchors them into variable-size
// chunks (CDC), fingerprints each chunk (SHA-1), and drives the backup
// protocol against a server's File Store: metadata backup, fingerprint
// offer, content transfer of admitted chunks. Restore retrieves the file
// index from the director and pulls chunks back through the server.
//
// Two input modes:
//   * real datasets (in-memory file trees) — full chunking fidelity;
//   * synthetic fingerprint streams (Section 6.2) — the evaluation's
//     workload model, where each fingerprint carries an 8 KB payload
//     stamped with the fingerprint itself so restores remain verifiable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "chunking/chunker_config.hpp"
#include "chunking/rabin_chunker.hpp"
#include "common/result.hpp"
#include "core/backup_server.hpp"
#include "core/director.hpp"
#include "core/metadata.hpp"

namespace debar::core {

/// Outcome of a verify job (the director's third operation class beside
/// backup and restore, Section 3.1).
struct VerifyReport {
  std::uint64_t chunks = 0;
  std::uint64_t ok_chunks = 0;
  std::uint64_t missing_chunks = 0;   // locate/read failed
  std::uint64_t corrupt_chunks = 0;   // content does not match fingerprint
  std::vector<std::string> damaged_files;

  [[nodiscard]] bool clean() const noexcept {
    return missing_chunks == 0 && corrupt_chunks == 0;
  }
};

struct BackupRunStats {
  std::uint64_t job_id = 0;
  std::uint32_t version = 0;
  std::uint64_t files = 0;
  std::uint64_t unchanged_files = 0;  // skipped by incremental pre-filter
  std::uint64_t chunks = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t transferred_bytes = 0;  // after preliminary filtering

  friend bool operator==(const BackupRunStats&,
                         const BackupRunStats&) = default;
};

struct BackupOptions {
  /// File-level preliminary filtering (Section 5.1): skip files whose
  /// (path, size, mtime) match the previous version — the "traditional
  /// incremental backup scheme" applied before chunk-level dedup. Their
  /// file indices are copied from the previous version's metadata, so no
  /// fingerprints cross the wire at all.
  bool incremental = false;
};

class BackupEngine {
 public:
  /// Paper-default engine: Rabin CDC with `cdc` parameters and the
  /// auto-dispatched SHA-1 lane (SimdPolicy::kAuto). Every lane yields
  /// the same digests, so boundaries and dedup behavior are the paper's.
  BackupEngine(std::string client_name, Director* director,
               chunking::CdcParams cdc = {});

  /// Policy-driven engine (DESIGN.md §5i): chunker algorithm and SIMD
  /// lane from `config` — the same knob ChunkStoreConfig carries, so a
  /// deployment (or an ablation bench) states its chunking policy once.
  BackupEngine(std::string client_name, Director* director,
               const chunking::ChunkerConfig& config);

  /// Back up `dataset` as one run of `job_id` through `store`.
  ///
  /// Chunking and fingerprinting run ahead on a process-wide worker pool
  /// (std::thread::hardware_concurrency() workers, started on first
  /// use), a few files per worker ahead of the commit, each worker with
  /// its own clone of chunker(). Files the incremental
  /// pre-filter skips are never chunked. Every FileStore call is made on
  /// the calling thread in file order, so the version record, chunk log,
  /// containers, index and modeled clocks are byte-identical to chunking
  /// each file inline. On an error, in-flight chunking finishes before
  /// the call returns.
  [[nodiscard]] Result<BackupRunStats> run_backup(std::uint64_t job_id,
                                                  const Dataset& dataset,
                                                  FileStore& store,
                                                  BackupOptions options = {});

  /// Back up a synthetic fingerprint stream (one logical file of
  /// `chunk_size`-byte chunks). Payloads are synthesized from the
  /// fingerprints; see synthetic_payload().
  [[nodiscard]] Result<BackupRunStats> run_backup_stream(
      std::uint64_t job_id, std::span<const Fingerprint> stream,
      FileStore& store, std::uint32_t chunk_size = kExpectedChunkSize);

  /// Restore version `version` of `job_id` from `server`, verifying each
  /// chunk's payload hashes back to its fingerprint when `verify` is set.
  [[nodiscard]] Result<Dataset> restore(std::uint64_t job_id,
                                        std::uint32_t version,
                                        BackupServer& server,
                                        bool verify = false);

  /// Verify job: walk every chunk of a recorded version, confirm it is
  /// retrievable and that its content matches its fingerprint (SHA-1 for
  /// real data, stamp for synthetic payloads). Never throws away data —
  /// purely diagnostic.
  [[nodiscard]] Result<VerifyReport> verify(std::uint64_t job_id,
                                            std::uint32_t version,
                                            BackupServer& server);

  [[nodiscard]] const std::string& client_name() const noexcept {
    return name_;
  }

  /// Deterministic payload for a synthetic fingerprint: `size` bytes
  /// beginning with the fingerprint, remainder a fixed pattern (stands in
  /// for the paper's zero-padded chunks while keeping restores checkable).
  [[nodiscard]] static std::vector<Byte> synthetic_payload(
      const Fingerprint& fp, std::uint32_t size);

  /// One file's anchored chunk run: CDC boundaries plus batched SHA-1
  /// fingerprints. This is the exact dedup-1 client path run_backup
  /// drives, factored out so the streaming IngestClient (DESIGN.md §5l)
  /// produces bit-identical runs to the stop-and-wait engine.
  struct ChunkRun {
    std::vector<chunking::ChunkBounds> bounds;
    std::vector<Fingerprint> fps;
  };
  [[nodiscard]] static ChunkRun chunk_run(chunking::Chunker& chunker,
                                          ByteSpan content, SimdPolicy simd);

  [[nodiscard]] const chunking::Chunker& chunker() const noexcept {
    return *chunker_;
  }

 private:
  std::string name_;
  Director* director_;
  std::unique_ptr<chunking::Chunker> chunker_;
  /// SIMD lane for Sha1::hash_batch over each file's chunk run.
  SimdPolicy simd_ = SimdPolicy::kAuto;
};

}  // namespace debar::core
