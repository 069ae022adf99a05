// Disaster recovery walk-through: lose the disk index AND the director's
// in-memory state, then rebuild both — the index from the self-describing
// chunk repository (Section 4.1), the metadata catalogue from the
// director's persistent metadata store (Section 6.3) — and restore and
// verify a backup that predates the "crash". Restores stream straight into
// files under a scratch directory through a RestoreSink, as a recovery
// onto a replacement disk would, without holding a version in memory.
#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/backup_engine.hpp"
#include "core/restore_sink.hpp"
#include "core/metadata_store.hpp"
#include "index/recovery.hpp"
#include "workload/file_tree.hpp"

using namespace debar;
namespace fs = std::filesystem;

namespace {

/// Writes each restored file under `root`, chunk by chunk as it arrives.
class DirectorySink final : public core::RestoreSink {
 public:
  explicit DirectorySink(fs::path root) : root_(std::move(root)) {}

  Status begin_file(const core::FileRecord& file) override {
    const fs::path path = root_ / fs::path(file.meta.path).relative_path();
    std::error_code ec;
    fs::create_directories(path.parent_path(), ec);
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (ec || !out_) return {Errc::kIoError, "cannot create " + path.string()};
    ++files_;
    return Status::Ok();
  }

  Status chunk(ByteSpan data) override {
    out_.write(reinterpret_cast<const char*>(data.data()),
               static_cast<std::streamsize>(data.size()));
    return out_ ? Status::Ok() : Status{Errc::kIoError, "short write"};
  }

  Status end_file() override {
    out_.close();
    return out_ ? Status::Ok() : Status{Errc::kIoError, "close failed"};
  }

  [[nodiscard]] std::size_t files() const noexcept { return files_; }

 private:
  fs::path root_;
  std::ofstream out_;
  std::size_t files_ = 0;
};

/// Whether every file of `expect` sits under `root` with its content.
bool matches_on_disk(const fs::path& root, const core::Dataset& expect) {
  for (const core::FileData& file : expect.files) {
    std::ifstream in(root / fs::path(file.path).relative_path(),
                     std::ios::binary);
    if (!in) return false;
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    if (!std::equal(bytes.begin(), bytes.end(), file.content.begin(),
                    file.content.end(),
                    [](char a, Byte b) { return static_cast<Byte>(a) == b; })) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  storage::ChunkRepository repository(2);

  // The director persists job metadata as it arrives.
  core::MetadataStore metadata(std::make_unique<storage::MemBlockDevice>());
  core::Director director;
  director.attach_metadata_store(&metadata);

  core::BackupServerConfig config;
  config.index_params = {.prefix_bits = 10, .blocks_per_bucket = 16};
  config.chunk_store.siu_threshold = 1;
  core::BackupServer server(0, config, &repository, &director);
  core::BackupEngine client("prod-db", &director);

  // --- 1. Normal operation: two backup generations. -------------------
  const std::uint64_t job = director.define_job("prod-db", "datadir");
  core::Dataset v1 = workload::make_dataset(
      {.files = 12, .mean_file_bytes = 128 * KiB, .seed = 42});
  core::Dataset v2 = workload::mutate_dataset(v1, {.seed = 43});
  for (const core::Dataset* d : {&v1, &v2}) {
    if (!client.run_backup(job, *d, server.file_store()).ok() ||
        !server.run_dedup2(true).ok()) {
      std::fprintf(stderr, "backup failed\n");
      return 1;
    }
  }
  std::printf("backed up 2 versions: %llu containers, %llu index entries, "
              "%llu metadata records\n",
              static_cast<unsigned long long>(repository.container_count()),
              static_cast<unsigned long long>(
                  server.chunk_store().index().entry_count()),
              static_cast<unsigned long long>(metadata.record_count()));

  // --- 2. Disaster: the index device and director state are lost. -----
  // (Simulated by rebuilding both from scratch; the repository and the
  // metadata log are the durable ground truth.)
  std::printf("\n*** simulated crash: disk index and director state lost "
              "***\n\n");

  index::RecoveryStats stats;
  auto rebuilt = index::rebuild_index(
      repository, std::make_unique<storage::MemBlockDevice>(),
      config.index_params, &stats);
  if (!rebuilt.ok()) {
    std::fprintf(stderr, "index recovery failed: %s\n",
                 rebuilt.error().to_string().c_str());
    return 1;
  }
  std::printf("index rebuilt from repository scan: %llu containers -> %llu "
              "entries (%llu duplicates collapsed)\n",
              static_cast<unsigned long long>(stats.containers_scanned),
              static_cast<unsigned long long>(stats.entries_recovered),
              static_cast<unsigned long long>(stats.duplicate_fingerprints));

  core::Director recovered_director;
  recovered_director.attach_metadata_store(&metadata);
  if (!recovered_director.recover().ok()) {
    std::fprintf(stderr, "metadata recovery failed\n");
    return 1;
  }
  std::printf("director recovered: %u versions of job %llu\n",
              recovered_director.version_count(job),
              static_cast<unsigned long long>(job));

  // --- 3. Bring up a fresh server around the recovered index. ---------
  core::BackupServer fresh(1, config, &repository, &recovered_director);
  // Transplant the recovered index into the fresh server's chunk store.
  fresh.chunk_store().index() = std::move(rebuilt).value();

  // --- 4. Restore each version onto the "replacement disk". -----------
  std::string scratch = (fs::temp_directory_path() / "debar-dr-XXXXXX").string();
  if (mkdtemp(scratch.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a scratch directory\n");
    return 1;
  }
  const fs::path target = scratch;
  core::BackupEngine restore_client("prod-db", &recovered_director);
  int rc = 0;
  for (std::uint32_t v = 1; v <= 2 && rc == 0; ++v) {
    const auto verify = restore_client.verify(job, v, fresh);
    if (!verify.ok() || !verify.value().clean()) {
      std::fprintf(stderr, "verify of version %u FAILED\n", v);
      rc = 1;
      break;
    }
    const fs::path root = target / ("v" + std::to_string(v));
    DirectorySink sink(root);
    if (Status s = restore_client.restore(job, v, fresh, sink, true); !s.ok()) {
      std::fprintf(stderr, "restore of version %u failed: %s\n", v,
                   s.to_string().c_str());
      rc = 1;
      break;
    }
    if (!matches_on_disk(root, v == 1 ? v1 : v2)) {
      std::fprintf(stderr, "version %u content mismatch\n", v);
      rc = 1;
      break;
    }
    std::printf("version %u: verified clean and restored byte-exact into "
                "files (%zu files)\n",
                v, sink.files());
  }
  std::error_code ec;
  fs::remove_all(target, ec);
  if (rc == 0) std::printf("\ndisaster recovery complete: no data lost\n");
  return rc;
}
