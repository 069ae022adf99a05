#include "core/backup_engine.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

#include "common/fmt.hpp"
#include "common/sha1.hpp"

namespace debar::core {

namespace {

using ChunkRun = BackupEngine::ChunkRun;

/// Changed files chunked ahead of the commit loop, per worker.
constexpr std::size_t kLookAheadPerWorker = 3;

/// A finished run, or the exception chunking it threw.
struct Finished {
  std::optional<ChunkRun> run;
  std::exception_ptr error;

  [[nodiscard]] bool ready() const noexcept {
    return run.has_value() || error != nullptr;
  }
};

/// One run_backup's look-ahead. It lives on the caller's stack and the
/// workers reach it only between Dedup1Workers::open() and close().
struct Batch {
  const std::vector<FileData>& files;
  std::vector<std::size_t> order{};  // the files to chunk, in commit order
  std::vector<std::unique_ptr<chunking::Chunker>> chunkers{};  // per worker
  SimdPolicy simd;
  std::size_t depth;             // runs of this batch in flight, at most
  std::vector<Finished> ring{};  // run k lands in ring[k % depth]
  std::size_t claimed = 0;       // runs a worker has started
  std::size_t taken = 0;         // runs the commit loop has taken
  std::size_t busy = 0;          // workers chunking for this batch now
  Batch* next = nullptr;         // the next open batch
};

/// Dedup-1 chunking workers, shared by every engine, started on first use
/// and joined at exit (DESIGN.md §5m). A worker allocates a run's vectors
/// and the committing thread frees them; nothing else crosses threads,
/// so no per-file task, future or queue node is allocated on one thread
/// and freed on another. That keeps the calling thread's malloc arena
/// laid out by its own calls alone, and peak RSS the same from run to
/// run.
class Dedup1Workers {
 public:
  static Dedup1Workers& instance() {
    static Dedup1Workers workers(
        std::max(1U, std::thread::hardware_concurrency()));
    return workers;
  }

  explicit Dedup1Workers(std::size_t n) {
    threads_.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      threads_.emplace_back([this, w] { work(w); });
    }
  }

  ~Dedup1Workers() {
    {
      std::lock_guard lock(mutex_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  Dedup1Workers(const Dedup1Workers&) = delete;
  Dedup1Workers& operator=(const Dedup1Workers&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  void open(Batch& batch) {
    {
      std::lock_guard lock(mutex_);
      batch.next = open_;
      open_ = &batch;
    }
    work_cv_.notify_all();
  }

  /// The batch's next run in commit order, once a worker has finished it.
  [[nodiscard]] ChunkRun take(Batch& batch) {
    std::unique_lock lock(mutex_);
    Finished& slot = batch.ring[batch.taken % batch.depth];
    done_cv_.wait(lock, [&] { return slot.ready(); });
    ++batch.taken;
    Finished finished = std::move(slot);
    slot = {};
    lock.unlock();
    work_cv_.notify_one();  // the window moved on by one run
    if (finished.error) std::rethrow_exception(finished.error);
    return std::move(*finished.run);
  }

  /// Stop the batch's claims and wait out its runs in flight.
  void close(Batch& batch) {
    std::unique_lock lock(mutex_);
    batch.claimed = batch.order.size();
    done_cv_.wait(lock, [&] { return batch.busy == 0; });
    Batch** link = &open_;
    while (*link != &batch) link = &(*link)->next;
    *link = batch.next;
  }

 private:
  /// An open batch with a run to start inside its window, if any.
  [[nodiscard]] Batch* claimable() const noexcept {
    for (Batch* b = open_; b != nullptr; b = b->next) {
      if (b->claimed < b->order.size() && b->claimed < b->taken + b->depth) {
        return b;
      }
    }
    return nullptr;
  }

  void work(std::size_t w) {
    std::unique_lock lock(mutex_);
    for (;;) {
      Batch* batch = nullptr;
      work_cv_.wait(lock, [&] {
        return stop_ || (batch = claimable()) != nullptr;
      });
      if (stop_) return;
      const std::size_t k = batch->claimed++;
      ++batch->busy;
      lock.unlock();
      Finished finished;
      try {
        const FileData& file = batch->files[batch->order[k]];
        finished.run = BackupEngine::chunk_run(
            *batch->chunkers[w],
            ByteSpan(file.content.data(), file.content.size()), batch->simd);
      } catch (...) {
        finished.error = std::current_exception();
      }
      lock.lock();
      batch->ring[k % batch->depth] = std::move(finished);
      --batch->busy;
      done_cv_.notify_all();
    }
  }

  std::vector<std::thread> threads_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // workers: a claimable run, or stop
  std::condition_variable done_cv_;  // callers: a run finished
  Batch* open_ = nullptr;
  bool stop_ = false;
};

}  // namespace

BackupEngine::BackupEngine(std::string client_name, Director* director,
                           chunking::CdcParams cdc)
    : name_(std::move(client_name)),
      director_(director),
      // SIMD only accelerates fingerprinting here; digests are
      // bit-identical in every lane, so the paper-default engine keeps
      // its exact seed behavior while still getting the batch speedup.
      chunker_(std::make_unique<chunking::RabinChunker>(cdc)),
      simd_(SimdPolicy::kAuto) {
  assert(director_ != nullptr);
}

BackupEngine::BackupEngine(std::string client_name, Director* director,
                           const chunking::ChunkerConfig& config)
    : name_(std::move(client_name)),
      director_(director),
      chunker_(chunking::make_chunker(config)),
      simd_(config.simd) {
  assert(director_ != nullptr);
}

Result<BackupRunStats> BackupEngine::run_backup(std::uint64_t job_id,
                                                const Dataset& dataset,
                                                FileStore& store,
                                                BackupOptions options) {
  BackupRunStats stats;
  stats.job_id = job_id;
  stats.version = director_->next_version(job_id);

  // File-level pre-filter: index the previous version's files by path.
  std::unordered_map<std::string, const FileRecord*> previous_files;
  std::optional<JobVersionRecord> previous;
  if (options.incremental) {
    previous = director_->latest_version(job_id);
    if (previous.has_value()) {
      for (const FileRecord& f : previous->files) {
        previous_files.emplace(f.meta.path, &f);
      }
    }
  }
  // Each file's pre-filter verdict, decided once so the look-ahead and
  // the commit loop agree on which files get chunked: the previous
  // version's record when (path, size, mtime) all match, else null.
  const std::vector<FileData>& files = dataset.files;
  std::vector<const FileRecord*> unchanged(files.size(), nullptr);
  for (std::size_t f = 0; f < files.size(); ++f) {
    const auto it = previous_files.find(files[f].path);
    if (it != previous_files.end() &&
        it->second->meta.size == files[f].content.size() &&
        it->second->meta.mtime == files[f].mtime) {
      unchanged[f] = it->second;
    }
  }

  // Look-ahead (DESIGN.md §5m): the workers chunk and fingerprint the
  // next changed files while this thread commits the current one. A run
  // holds only bounds and fingerprints; content stays borrowed from
  // `dataset`. Each worker chunks with its own clone of chunker().
  Dedup1Workers& workers = Dedup1Workers::instance();
  Batch batch{.files = files,
              .simd = simd_,
              .depth = kLookAheadPerWorker * workers.size()};
  for (std::size_t f = 0; f < files.size(); ++f) {
    if (unchanged[f] == nullptr) batch.order.push_back(f);
  }
  for (std::size_t w = 0; w < workers.size(); ++w) {
    batch.chunkers.push_back(chunker_->clone());
  }
  batch.ring.resize(batch.depth);
  workers.open(batch);
  // However the call exits, the runs still in flight finish before the
  // batch and the caller's dataset can go away.
  struct CloseBatch {
    Dedup1Workers& workers;
    Batch& batch;
    ~CloseBatch() { workers.close(batch); }
  } close_batch{workers, batch};

  // Every FileStore call stays on this thread in file order, so records,
  // the chunk log and modeled clocks match a serial engine byte for byte.
  store.begin_job(job_id);
  for (std::size_t f = 0; f < files.size(); ++f) {
    const FileData& file = files[f];
    if (const FileRecord* same = unchanged[f]) {
      // Unchanged since the last run: coarse-granularity dedup —
      // nothing crosses the wire, the old file index is reused.
      store.record_unchanged_file(*same);
      ++stats.files;
      ++stats.unchanged_files;
      stats.logical_bytes += same->logical_bytes();
      continue;
    }
    // Metadata backup.
    store.begin_file({.path = file.path,
                      .size = file.content.size(),
                      .mtime = file.mtime,
                      .mode = 0644});
    // Anchoring + chunk fingerprinting (ahead, on the workers) + content
    // backup.
    const ByteSpan content(file.content.data(), file.content.size());
    const ChunkRun run = workers.take(batch);
    const std::vector<chunking::ChunkBounds>& bounds = run.bounds;
    const std::vector<Fingerprint>& fps = run.fps;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      const ByteSpan chunk = content.subspan(bounds[i].offset, bounds[i].size);
      const Fingerprint& fp = fps[i];
      ++stats.chunks;
      stats.logical_bytes += chunk.size();
      if (store.offer_fingerprint(
              fp, static_cast<std::uint32_t>(bounds[i].size))) {
        if (Status s = store.receive_chunk(fp, chunk); !s.ok()) {
          return Error{s.code(), s.message()};
        }
        stats.transferred_bytes += chunk.size();
      }
    }
    store.end_file();
    ++stats.files;
  }
  Result<JobVersionRecord> record = store.end_job();
  if (!record.ok()) return record.error();
  return stats;
}

Result<BackupRunStats> BackupEngine::run_backup_stream(
    std::uint64_t job_id, std::span<const Fingerprint> stream,
    FileStore& store, std::uint32_t chunk_size) {
  BackupRunStats stats;
  stats.job_id = job_id;
  stats.version = director_->next_version(job_id);

  store.begin_job(job_id);
  store.begin_file({.path = format("{}/stream-v{}", name_, stats.version),
                    .size = stream.size() * std::uint64_t{chunk_size},
                    .mtime = 0,
                    .mode = 0644});
  for (const Fingerprint& fp : stream) {
    ++stats.chunks;
    stats.logical_bytes += chunk_size;
    if (store.offer_fingerprint(fp, chunk_size)) {
      const std::vector<Byte> payload = synthetic_payload(fp, chunk_size);
      if (Status s = store.receive_chunk(
              fp, ByteSpan(payload.data(), payload.size()));
          !s.ok()) {
        return Error{s.code(), s.message()};
      }
      stats.transferred_bytes += payload.size();
    }
  }
  store.end_file();
  stats.files = 1;
  Result<JobVersionRecord> record = store.end_job();
  if (!record.ok()) return record.error();
  return stats;
}

Result<Dataset> BackupEngine::restore(std::uint64_t job_id,
                                      std::uint32_t version,
                                      BackupServer& server, bool verify) {
  const std::optional<JobVersionRecord> record =
      director_->version(job_id, version);
  if (!record.has_value()) {
    return Error{Errc::kNotFound,
                 format("job {} version {} not recorded", job_id, version)};
  }

  Dataset out;
  out.files.reserve(record->files.size());
  for (const FileRecord& file : record->files) {
    FileData data;
    data.path = file.meta.path;
    data.content.reserve(file.logical_bytes());
    for (std::size_t i = 0; i < file.chunk_fps.size(); ++i) {
      Result<std::vector<Byte>> chunk =
          server.chunk_store().read_chunk(file.chunk_fps[i]);
      if (!chunk.ok()) return chunk.error();
      if (chunk.value().size() != file.chunk_sizes[i]) {
        return Error{Errc::kCorrupt,
                     format("chunk {} of {} has size {} (expected {})", i,
                            file.meta.path, chunk.value().size(),
                            file.chunk_sizes[i])};
      }
      if (verify) {
        const Fingerprint actual = Sha1::hash(
            ByteSpan(chunk.value().data(), chunk.value().size()));
        // Synthetic payloads are stamped, not hashed; accept either form.
        // (A chunk shorter than a fingerprint cannot carry a stamp.)
        const bool stamped =
            chunk.value().size() >= Fingerprint::kSize &&
            std::equal(file.chunk_fps[i].bytes.begin(),
                       file.chunk_fps[i].bytes.end(), chunk.value().begin());
        if (actual != file.chunk_fps[i] && !stamped) {
          return Error{Errc::kCorrupt,
                       format("chunk {} of {} failed verification", i,
                              file.meta.path)};
        }
      }
      // Restored content crosses the wire back to the client.
      server.nic().transfer(chunk.value().size());
      data.content.insert(data.content.end(), chunk.value().begin(),
                          chunk.value().end());
    }
    out.files.push_back(std::move(data));
  }
  return out;
}

Result<VerifyReport> BackupEngine::verify(std::uint64_t job_id,
                                          std::uint32_t version,
                                          BackupServer& server) {
  const std::optional<JobVersionRecord> record =
      director_->version(job_id, version);
  if (!record.has_value()) {
    return Error{Errc::kNotFound,
                 format("job {} version {} not recorded", job_id, version)};
  }

  VerifyReport report;
  for (const FileRecord& file : record->files) {
    bool damaged = false;
    for (std::size_t i = 0; i < file.chunk_fps.size(); ++i) {
      ++report.chunks;
      Result<std::vector<Byte>> chunk =
          server.chunk_store().read_chunk(file.chunk_fps[i]);
      if (!chunk.ok()) {
        ++report.missing_chunks;
        damaged = true;
        continue;
      }
      const Fingerprint actual =
          Sha1::hash(ByteSpan(chunk.value().data(), chunk.value().size()));
      const bool stamped =
          chunk.value().size() >= Fingerprint::kSize &&
          std::equal(file.chunk_fps[i].bytes.begin(),
                     file.chunk_fps[i].bytes.end(), chunk.value().begin());
      if (chunk.value().size() != file.chunk_sizes[i] ||
          (actual != file.chunk_fps[i] && !stamped)) {
        ++report.corrupt_chunks;
        damaged = true;
        continue;
      }
      ++report.ok_chunks;
    }
    if (damaged) report.damaged_files.push_back(file.meta.path);
  }
  return report;
}

BackupEngine::ChunkRun BackupEngine::chunk_run(chunking::Chunker& chunker,
                                               ByteSpan content,
                                               SimdPolicy simd) {
  // The whole file's chunk run is fingerprinted as one batch so the
  // multi-lane SHA-1 (Sha1::hash_batch) keeps its lanes full.
  ChunkRun run;
  run.bounds = chunker.chunk(content);
  std::vector<ByteSpan> spans;
  spans.reserve(run.bounds.size());
  for (const chunking::ChunkBounds& b : run.bounds) {
    spans.push_back(content.subspan(b.offset, b.size));
  }
  run.fps = Sha1::hash_batch(std::span<const ByteSpan>(spans), simd);
  return run;
}

std::vector<Byte> BackupEngine::synthetic_payload(const Fingerprint& fp,
                                                  std::uint32_t size) {
  std::vector<Byte> payload(size, Byte{0xA5});
  const std::size_t n =
      std::min<std::size_t>(Fingerprint::kSize, payload.size());
  std::copy_n(fp.bytes.begin(), n, payload.begin());
  return payload;
}

}  // namespace debar::core
