#include "core/chunk_store.hpp"

#include <cassert>
#include <future>
#include <unordered_set>

#include "common/log.hpp"

namespace debar::core {

ChunkStore::ChunkStore(index::DiskIndex idx, ChunkStoreConfig config,
                       storage::ChunkRepository* repository,
                       storage::ChunkLog* log, DeviceFactory device_factory,
                       std::shared_ptr<Dedup2Pool> pool)
    : IndexPart(std::move(idx), config.io_buckets, config.siu_threshold,
                std::move(device_factory),
                pool != nullptr ? std::move(pool)
                                : std::make_shared<Dedup2Pool>(config.dedup2)),
      config_(config),
      repository_(repository),
      containers_(repository, config.container_capacity),
      log_(log),
      lpc_(config.lpc_containers) {
  assert(repository_ != nullptr);
  assert(log_ != nullptr);
}

Result<StoreResult> ChunkStore::store_new_chunks(
    const std::vector<Fingerprint>& new_fps) {
  StoreResult result;
  cache::IndexCache cache(config_.cache_params);
  for (const Fingerprint& fp : new_fps) {
    // insert() refuses duplicates (harmless: one entry suffices) and
    // refuses at capacity (a real error: the caller must batch).
    if (!cache.insert(fp) && !cache.contains(fp)) {
      return Error{Errc::kInvalidArgument,
                   "new-fingerprint batch exceeds index cache capacity"};
    }
  }

  // Fingerprints whose chunk already sits in the (unsealed) open
  // container this round: their cache container ID is still null, so a
  // second log record for the same fingerprint must be suppressed here.
  std::unordered_set<Fingerprint, FingerprintHash> open_pending;
  const auto on_seal = [&](ContainerId id,
                           const std::vector<storage::ChunkMeta>& metas) {
    for (const storage::ChunkMeta& m : metas) cache.set_container(m.fp, id);
    open_pending.clear();
  };

  Status s = log_->scan([&](const Fingerprint& fp, ByteSpan data) {
    const std::optional<ContainerId> cid = cache.container_of(fp);
    if (!cid.has_value() || !cid->is_null() || open_pending.contains(fp)) {
      ++result.discarded;
      return;
    }
    containers_.append(fp, data, on_seal);
    open_pending.insert(fp);
    ++result.new_chunks;
    result.new_bytes += data.size();
  });
  if (!s.ok()) return Error{s.code(), s.message()};
  containers_.flush(on_seal);

  // Persistent repositories write containers through to their node
  // devices; a write-through that failed (even after retries) means the
  // chunks this round claims to have stored would not survive a restart.
  // Fail the round so the backup is never acknowledged.
  if (Status durable = repository_->take_backing_error(); !durable.ok()) {
    return Error{durable.code(),
                 "container write-through failed: " + durable.message()};
  }

  result.entries = cache.sorted_entries();
  // A cache entry still holding a null container means SIL declared the
  // fingerprint new but no log record carried its payload — an invariant
  // violation upstream. Drop it loudly rather than register a dead entry.
  std::erase_if(result.entries, [&](const IndexEntry& e) {
    if (e.container.is_null()) {
      ++result.orphans;
      DEBAR_LOG_WARN("orphan new fingerprint with no chunk data in log");
      return true;
    }
    return false;
  });
  return result;
}

/// The container of the next LPC miss, located and charged ahead of need,
/// and its device read in flight on the dedup-2 pool.
struct ChunkStore::ReadAhead {
  Cursor at;                // the miss it serves
  Status status;            // the error locating or charging it met
  storage::ChunkRepository::PendingRead read;
  storage::FrameBuffer buffer;
  std::future<Status> fetched;  // valid until taken or settled
};

Status ChunkStore::restore(std::span<const FileRecord> files,
                           RestoreSink& sink) {
  // Read ahead only where a miss costs a device read and a pool can make
  // it; otherwise every miss reads at the miss, as read_chunk() does.
  ThreadPool* const pool =
      repository_->persistent() ? dedup2_pool().workers() : nullptr;
  std::optional<ReadAhead> ahead;
  // However the restore exits, the read in flight finishes before its
  // frame, the repository or the caller's recipe can go away.
  struct Settle {
    ChunkStore& store;
    std::optional<ReadAhead>& ahead;
    ~Settle() {
      if (ahead.has_value()) store.settle(*ahead);
    }
  } settle_on_exit{*this, ahead};

  for (std::size_t f = 0; f < files.size(); ++f) {
    const FileRecord& file = files[f];
    if (Status s = sink.begin_file(file); !s.ok()) return s;
    for (std::size_t i = 0; i < file.chunk_fps.size(); ++i) {
      const Fingerprint& fp = file.chunk_fps[i];
      if (const std::optional<ByteSpan> hit = lpc_.find(fp)) {
        if (Status s = sink.chunk(*hit); !s.ok()) return s;
        continue;
      }
      assert((!ahead.has_value() || ahead->at == Cursor{f, i}) &&
             "between two misses every access hits");
      Result<storage::Container> container = fetch_miss(fp, ahead);
      ahead.reset();
      const Result<ByteSpan> chunk =
          cache_container(fp, std::move(container), pool != nullptr);
      if (!chunk.ok()) return chunk.status();
      if (Status s = sink.chunk(chunk.value()); !s.ok()) return s;
      if (pool == nullptr) continue;
      // Hits change recency, never membership: the first later chunk the
      // LPC does not hold now is exactly the next miss.
      if (const std::optional<Cursor> next = next_miss(files, {f, i})) {
        read_ahead(files[next->file].chunk_fps[next->chunk], *next, *pool,
                   ahead);
      }
    }
    if (Status s = sink.end_file(); !s.ok()) return s;
  }
  return Status::Ok();
}

std::optional<ChunkStore::Cursor> ChunkStore::next_miss(
    std::span<const FileRecord> files, Cursor from) const {
  ++from.chunk;
  for (; from.file < files.size(); ++from.file, from.chunk = 0) {
    const std::vector<Fingerprint>& fps = files[from.file].chunk_fps;
    for (; from.chunk < fps.size(); ++from.chunk) {
      if (!lpc_.holds(fps[from.chunk])) return from;
    }
  }
  return std::nullopt;
}

void ChunkStore::read_ahead(const Fingerprint& fp, Cursor at, ThreadPool& pool,
                            std::optional<ReadAhead>& ahead) {
  ReadAhead& next = ahead.emplace();
  next.at = at;
  // The locate and the repository charge a read at the miss would make,
  // made now: only hits, which charge neither, come in between.
  const Result<ContainerId> cid = locate(fp);
  if (!cid.ok()) {
    next.status = cid.status();
    return;
  }
  Result<storage::ChunkRepository::PendingRead> read =
      repository_->charge_read(cid.value());
  if (!read.ok()) {
    next.status = read.status();
    return;
  }
  next.read = std::move(read).value();
  if (next.read.held != nullptr) return;  // in memory: nothing to fetch
  // The spare frame was taken at the last miss; only a container of
  // another capacity needs a frame of its own here.
  if (spare_.size() != next.read.buffer_bytes()) {
    spare_ = repository_->frame_pool().acquire(next.read.buffer_bytes());
  }
  next.buffer = std::move(spare_);
  next.fetched = pool.submit([repository = repository_, &next] {
    return repository->read_into(next.read, next.buffer);
  });
}

Result<storage::Container> ChunkStore::fetch_miss(
    const Fingerprint& fp, std::optional<ReadAhead>& ahead) {
  if (!ahead.has_value()) {
    const Result<ContainerId> cid = locate(fp);
    if (!cid.ok()) return cid.error();
    return containers_.read(cid.value());
  }
  if (!ahead->status.ok()) {
    return Error{ahead->status.code(), ahead->status.message()};
  }
  if (ahead->read.held != nullptr) {
    return storage::Container::deserialize(ahead->read.held->image());
  }
  if (Status s = ahead->fetched.get(); !s.ok()) {
    spare_ = std::move(ahead->buffer);
    return Error{s.code(), s.message()};
  }
  return storage::Container::parse(std::move(ahead->buffer),
                                   ahead->read.image_bytes);
}

void ChunkStore::settle(ReadAhead& ahead) {
  if (ahead.fetched.valid()) ahead.fetched.wait();
  if (ahead.buffer) spare_ = std::move(ahead.buffer);
}

Result<ByteSpan> ChunkStore::cache_container(
    const Fingerprint& fp, Result<storage::Container> container,
    bool refill_spare) {
  if (!container.ok()) return container.error();
  auto shared =
      std::make_shared<const storage::Container>(std::move(container).value());
  const std::optional<ByteSpan> chunk = shared->find(fp);
  if (!chunk.has_value()) {
    return Error{Errc::kCorrupt,
                 "index maps fingerprint to a container that lacks it"};
  }
  // The next read-ahead's frame comes from the pool here, where a read at
  // the miss takes its own, before the insert below returns an evicted
  // container's frame: the pool sees the traffic a per-chunk restore
  // makes (DESIGN.md §5o).
  if (refill_spare && !spare_) {
    spare_ = repository_->frame_pool().acquire(
        storage::Container::buffer_bytes(shared->capacity()));
  }
  lpc_.insert(std::move(shared));  // prefetch the whole container (LPC)
  return *chunk;
}

std::optional<std::vector<Byte>> ChunkStore::lpc_probe(const Fingerprint& fp) {
  if (const std::optional<ByteSpan> hit = lpc_.find(fp)) {
    return std::vector<Byte>(hit->begin(), hit->end());
  }
  return std::nullopt;
}

Result<std::vector<Byte>> ChunkStore::read_chunk(const Fingerprint& fp) {
  if (std::optional<std::vector<Byte>> hit = lpc_probe(fp)) {
    return std::move(*hit);
  }
  Result<ContainerId> cid = locate(fp);
  if (!cid.ok()) return cid.error();
  return read_chunk_at(fp, cid.value());
}

Result<std::vector<Byte>> ChunkStore::read_chunk_at(const Fingerprint& fp,
                                                    ContainerId id) {
  Result<storage::Container> container = containers_.read(id);
  if (!container.ok()) return container.error();

  auto shared =
      std::make_shared<const storage::Container>(std::move(container).value());
  const std::optional<ByteSpan> chunk = shared->find(fp);
  if (!chunk.has_value()) {
    return Error{Errc::kCorrupt,
                 "index maps fingerprint to a container that lacks it"};
  }
  std::vector<Byte> out(chunk->begin(), chunk->end());
  lpc_.insert(std::move(shared));  // prefetch the whole container (LPC)
  return out;
}

}  // namespace debar::core
