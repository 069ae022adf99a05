// Backup metadata model: files, file indices, job objects and versions.
//
// A *file index* is the paper's term for the sequence of chunk
// fingerprints that reconstructs a file (Section 3.2). Jobs are the
// director's unit of scheduling; repeated runs of one job form a job
// chain, whose adjacent versions feed the preliminary filter.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace debar::core {

struct FileMetadata {
  std::string path;
  std::uint64_t size = 0;
  std::uint64_t mtime = 0;
  std::uint32_t mode = 0644;

  friend bool operator==(const FileMetadata&, const FileMetadata&) = default;
};

/// One backed-up file: metadata plus its file index.
struct FileRecord {
  FileMetadata meta;
  std::vector<Fingerprint> chunk_fps;
  std::vector<std::uint32_t> chunk_sizes;  // parallel to chunk_fps

  [[nodiscard]] std::uint64_t logical_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const std::uint32_t s : chunk_sizes) total += s;
    return total;
  }

  friend bool operator==(const FileRecord&, const FileRecord&) = default;
};

/// A completed run of a job: everything needed to restore it.
struct JobVersionRecord {
  std::uint64_t job_id = 0;
  std::uint32_t version = 0;
  /// Simulated day the version was taken (0 = unknown); the retention
  /// policy's keep-days clock. Stamped by Director::submit_version from
  /// its current day when left unset.
  std::uint32_t backup_day = 0;
  std::vector<FileRecord> files;
  std::uint64_t logical_bytes = 0;

  /// Every fingerprint of the version in stream order — the filtering
  /// fingerprints for the next run in the job chain.
  [[nodiscard]] std::vector<Fingerprint> all_fingerprints() const {
    std::vector<Fingerprint> out;
    for (const FileRecord& f : files) {
      out.insert(out.end(), f.chunk_fps.begin(), f.chunk_fps.end());
    }
    return out;
  }

  friend bool operator==(const JobVersionRecord&,
                         const JobVersionRecord&) = default;
};

/// A job object (Section 3.1): what to back up, from which client, when.
struct JobSpec {
  std::uint64_t job_id = 0;
  std::string client_name;
  std::string dataset_name;
  /// Schedule expressed as a simulated day period (e.g. 1 = daily).
  std::uint32_t schedule_period_days = 1;
};

/// In-memory dataset a backup client reads from.
struct FileData {
  std::string path;
  std::vector<Byte> content;
  /// Modification time; the incremental pre-filter compares (size, mtime)
  /// against the previous version to skip unchanged files entirely.
  std::uint64_t mtime = 0;
};

struct Dataset {
  std::vector<FileData> files;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    std::uint64_t total = 0;
    for (const FileData& f : files) total += f.content.size();
    return total;
  }
};

}  // namespace debar::core
