// Crash-consistency rig: a single-server DEBAR deployment whose every
// device — repository node container logs, metadata log, chunk log, disk
// index — is a FaultyBlockDevice sharing ONE FaultInjector, so a single
// global op counter spans the whole storage stack and a crash point
// freezes the deployment at one instant.
//
// The rig drives the dedup-2 phases by hand (instead of run_dedup2) so it
// can record the op-count span of each crash window per generation:
//
//   chunk-log-append   client backup: chunk-log writes + metadata append
//   sil                sequential index lookup reads
//   container-commit   chunk-log replay reads + container frame writes
//   siu                sequential index update read-modify-writes
//
// A backup generation is ACKED only when all four phases completed. The
// durability invariant under test: after a crash at ANY op, every acked
// generation restores byte-identical from the frozen disk images alone
// (repository reopen + metadata replay + index rebuild).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backup_engine.hpp"
#include "core/backup_server.hpp"
#include "core/metadata_store.hpp"
#include "index/disk_index.hpp"
#include "storage/faulty_block_device.hpp"

namespace debar::testsupport {

/// One contiguous span of global op indices belonging to a crash window.
struct WindowSpan {
  std::string window;
  std::uint32_t generation = 0;  // 0-based
  std::uint64_t begin = 0;       // first op index inside the window
  std::uint64_t end = 0;         // one past the last
  [[nodiscard]] bool empty() const noexcept { return begin >= end; }
};

struct RunOutcome {
  std::uint32_t acked = 0;  // generations whose whole pipeline completed
  bool failed = false;
  std::string error;  // first failing phase, for diagnostics
};

class CrashRig {
 public:
  struct Options {
    std::uint64_t seed = 0xC4A5;
    std::size_t nodes = 2;
    index::DiskIndexParams index_params{.prefix_bits = 6,
                                        .blocks_per_bucket = 2};
    /// Small SIL/SIU batching so the index windows span several ops.
    std::uint64_t io_buckets = 8;
    /// Dedup-2 threading for the server under test. The default (serial)
    /// keeps the op stream fully deterministic; threads > 1 exercises the
    /// sharded-SIL / pipelined-SIU windows. The per-phase op COUNT stays
    /// deterministic either way (same set of ops, any interleaving), so
    /// window spans recorded from a fault-free probe still locate crash
    /// points in the right phase.
    core::Dedup2Options dedup2{.threads = 1};
  };

  /// Builds the deployment fault-free (the injector is armed later), so
  /// two rigs with equal options + datasets issue identical op streams.
  CrashRig(Options options, std::vector<core::Dataset> generations);

  /// Arm fault rates and/or the crash point. `faults.seed` is ignored —
  /// the stream continues from the construction seed.
  void arm(const storage::FaultConfig& faults) { injector_->set_config(faults); }

  /// Back up every generation in sequence until the first failure.
  [[nodiscard]] RunOutcome run();

  /// Clone the frozen device images, recover a fresh fault-free
  /// deployment from them, and verify versions 1..acked restore
  /// byte-identical to their source datasets.
  [[nodiscard]] Status recover_and_verify(std::uint32_t acked) const;

  [[nodiscard]] const std::vector<WindowSpan>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] const storage::FaultInjector& injector() const noexcept {
    return *injector_;
  }

 private:
  [[nodiscard]] Status run_generation(std::uint32_t g);

  Options options_;
  std::vector<core::Dataset> generations_;

  std::shared_ptr<storage::FaultInjector> injector_;
  /// Raw views of the devices under the faulty wrappers, for freezing.
  std::vector<storage::MemBlockDevice*> node_inner_;
  storage::MemBlockDevice* metadata_inner_ = nullptr;

  std::unique_ptr<storage::ChunkRepository> repo_;
  std::unique_ptr<core::MetadataStore> metadata_;
  core::Director director_;
  std::unique_ptr<core::BackupServer> server_;
  std::unique_ptr<core::BackupEngine> engine_;
  std::uint64_t job_ = 0;

  std::vector<WindowSpan> windows_;
};

}  // namespace debar::testsupport
