#include "core/chunk_store.hpp"

#include <algorithm>
#include <cassert>
#include <future>
#include <unordered_set>

#include "common/fmt.hpp"
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

namespace {

/// Payload runs of needed chunks closer together than this, about one
/// average chunk, are read as one: the chunks between cost less to read
/// than another device read does (DESIGN.md §5o has the measurements).
constexpr std::uint64_t kRunGap = 8 * KiB;

}  // namespace

/// The container of the next LPC miss, located and charged ahead of need,
/// and its device reads in flight on the dedup-2 pool.
struct ChunkStore::ReadAhead {
  Cursor at;                // the miss it serves
  Status status;            // the error locating or charging it met
  storage::ChunkRepository::PendingRead read;
  std::future<Result<storage::Container>> fetched;  // valid until taken
};

Status ChunkStore::restore(std::span<const FileRecord> files,
                           RestoreSink& sink, const Locate& locate) {
  // A chunk reaches the sink only at the size its record keeps, if any.
  const auto deliver = [&sink](const FileRecord& file, std::size_t i,
                               ByteSpan chunk) -> Status {
    if (file.chunk_sizes.empty() || chunk.size() == file.chunk_sizes[i]) {
      return sink.chunk(chunk);
    }
    return {Errc::kCorrupt,
            format("chunk {} of {} has size {} (expected {})", i,
                   file.meta.path, chunk.size(), file.chunk_sizes[i])};
  };
  // Read ahead only where a miss costs a device read and a pool can make
  // it; otherwise every miss reads at the miss.
  ThreadPool* const pool =
      repository_->persistent() ? dedup2_pool().workers() : nullptr;
  // Built at the first miss that reads a device; the read-ahead reads it.
  LastUse last_use;
  std::optional<ReadAhead> ahead;
  // However the restore exits, the read in flight finishes before its
  // frame, the repository or the caller's recipe can go away.
  struct Settle {
    std::optional<ReadAhead>& ahead;
    ~Settle() {
      if (ahead.has_value() && ahead->fetched.valid()) ahead->fetched.wait();
    }
  } settle_on_exit{ahead};

  std::uint64_t pos = 0;
  for (std::size_t f = 0; f < files.size(); ++f) {
    const FileRecord& file = files[f];
    if (Status s = sink.begin_file(file); !s.ok()) return s;
    for (std::size_t i = 0; i < file.chunk_fps.size(); ++i, ++pos) {
      const Fingerprint& fp = file.chunk_fps[i];
      if (const std::optional<cache::LpcCache::Hit> hit = lpc_.lookup(fp)) {
        storage::Container& c = *hit->container;
        if (!c.loaded(hit->index)) {
          if (Status s = complete(c); !s.ok()) return s;
        }
        if (Status s = deliver(file, i, c.chunk_at(hit->index)); !s.ok()) {
          return s;
        }
        continue;
      }
      assert((!ahead.has_value() || ahead->at == Cursor{f, i, pos}) &&
             "between two misses every access hits");
      if (last_use.empty() && repository_->persistent()) {
        std::uint64_t at = 0;
        for (const FileRecord& r : files) {
          for (const Fingerprint& c : r.chunk_fps) last_use[c] = at++;
        }
      }
      Result<storage::Container> container =
          fetch_miss(fp, pos, last_use, locate, ahead);
      ahead.reset();
      const Result<ByteSpan> chunk =
          cache_container(fp, std::move(container), pool != nullptr);
      if (!chunk.ok()) return chunk.status();
      if (Status s = deliver(file, i, chunk.value()); !s.ok()) return s;
      if (pool == nullptr) continue;
      // Hits change recency, never membership: the first later chunk the
      // LPC does not hold now is exactly the next miss.
      if (const std::optional<Cursor> next = next_miss(files, {f, i, pos})) {
        read_ahead(files[next->file].chunk_fps[next->chunk], *next, last_use,
                   locate, *pool, ahead);
      }
    }
    if (Status s = sink.end_file(); !s.ok()) return s;
  }
  return Status::Ok();
}

std::optional<ChunkStore::Cursor> ChunkStore::next_miss(
    std::span<const FileRecord> files, Cursor from) const {
  ++from.chunk;
  ++from.pos;
  for (; from.file < files.size(); ++from.file, from.chunk = 0) {
    const std::vector<Fingerprint>& fps = files[from.file].chunk_fps;
    for (; from.chunk < fps.size(); ++from.chunk, ++from.pos) {
      if (!lpc_.holds(fps[from.chunk])) return from;
    }
  }
  return std::nullopt;
}

void ChunkStore::read_ahead(const Fingerprint& fp, Cursor at,
                            const LastUse& last_use, const Locate& find,
                            ThreadPool& pool,
                            std::optional<ReadAhead>& ahead) {
  ReadAhead& next = ahead.emplace();
  next.at = at;
  // The locate and the repository charge a read at the miss would make,
  // made now: only hits, which charge neither, come in between.
  const Result<ContainerId> cid = find ? find(fp) : locate(fp);
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
  // The recipe, and so `last_use`, stays put while the read runs.
  next.fetched = pool.submit(
      [this, &next, &last_use, buffer = std::move(spare_)]() mutable {
        return read_needed(next.read, std::move(buffer), last_use,
                           next.at.pos);
      });
}

Result<storage::Container> ChunkStore::fetch_miss(
    const Fingerprint& fp, std::uint64_t pos, const LastUse& last_use,
    const Locate& find, std::optional<ReadAhead>& ahead) {
  storage::ChunkRepository::PendingRead read;
  if (ahead.has_value()) {
    if (!ahead->status.ok()) {
      return Error{ahead->status.code(), ahead->status.message()};
    }
    if (ahead->read.held == nullptr) return ahead->fetched.get();
    read = std::move(ahead->read);
  } else {
    const Result<ContainerId> cid = find ? find(fp) : locate(fp);
    if (!cid.ok()) return cid.error();
    Result<storage::ChunkRepository::PendingRead> charged =
        repository_->charge_read(cid.value());
    if (!charged.ok()) return charged.error();
    read = std::move(charged).value();
  }
  // Held in memory: a whole copy, as ChunkRepository::read() makes.
  if (read.held != nullptr) {
    return storage::Container::deserialize(read.held->image());
  }
  return read_needed(
      read, repository_->frame_pool().acquire(read.buffer_bytes()), last_use,
      pos);
}

Result<storage::Container> ChunkStore::read_needed(
    const storage::ChunkRepository::PendingRead& read,
    storage::FrameBuffer buffer, const LastUse& last_use,
    std::uint64_t pos) const {
  using storage::Container;
  const std::uint64_t head = Container::head_bytes(read.chunk_count);
  if (head > read.image_bytes) {
    return Error{Errc::kCorrupt, "container metadata overflows its image"};
  }
  if (Status s = repository_->read_range(
          read.source, 0,
          std::span<Byte>(buffer.data() + Container::kFrameRoom, head));
      !s.ok()) {
    return Error{s.code(), s.message()};
  }
  Result<Container> parsed =
      Container::parse_head(std::move(buffer), read.image_bytes, read.source);
  if (!parsed.ok()) return parsed;
  Container& c = parsed.value();
  const std::vector<storage::ChunkMeta>& metas = c.metadata();
  const std::size_t n = metas.size();
  const auto end_of = [&](std::size_t i) {
    return std::uint64_t{metas[i].offset} + metas[i].size;
  };
  const auto needed = [&](std::size_t i) {
    const auto it = last_use.find(metas[i].fp);
    return it != last_use.end() && it->second >= pos;
  };
  for (std::size_t i = 0; i < n;) {
    if (!needed(i)) {
      ++i;
      continue;
    }
    // A run from chunk i to the last needed chunk that starts at most
    // kRunGap past the run's end; the chunks between are read with it.
    std::size_t last = i;
    for (std::size_t j = i + 1; j < n && metas[j].offset >= end_of(last) &&
                                metas[j].offset - end_of(last) < kRunGap;
         ++j) {
      if (needed(j)) last = j;
    }
    const std::uint64_t begin = head + metas[i].offset;
    const std::uint64_t end = head + end_of(last);
    if (Status s = repository_->read_range(read.source, begin,
                                           c.image_span(begin, end));
        !s.ok()) {
      return Error{s.code(), s.message()};
    }
    // Each needed chunk of the run lies in it, and so does every chunk
    // between them in a payload packed chunk after chunk, as containers
    // are written.
    for (std::size_t k = i; k <= last; ++k) {
      if (head + metas[k].offset >= begin && head + end_of(k) <= end) {
        c.set_loaded(k, k + 1);
      }
    }
    i = last + 1;
  }
  return parsed;
}

Result<ByteSpan> ChunkStore::cache_container(
    const Fingerprint& fp, Result<storage::Container> container,
    bool refill_spare) {
  if (!container.ok()) return container.error();
  auto shared =
      std::make_shared<storage::Container>(std::move(container).value());
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

Status ChunkStore::complete(storage::Container& c) const {
  // One read from the first chunk not read to the end of the last; the
  // runs between are read again. The miss that cached the container paid
  // for all of it, so this charges nothing.
  const std::uint64_t head = storage::Container::head_bytes(c.chunk_count());
  std::uint64_t begin = c.capacity();
  std::uint64_t end = 0;
  for (std::size_t i = 0; i < c.chunk_count(); ++i) {
    if (c.loaded(i)) continue;
    const storage::ChunkMeta& m = c.metadata()[i];
    begin = std::min<std::uint64_t>(begin, head + m.offset);
    end = std::max<std::uint64_t>(end, head + m.offset + m.size);
  }
  if (Status s =
          repository_->read_range(c.source(), begin, c.image_span(begin, end));
      !s.ok()) {
    return s;
  }
  c.set_loaded(0, c.chunk_count());
  return Status::Ok();
}

Result<std::vector<Byte>> ChunkStore::read_chunk(const Fingerprint& fp) {
  const std::optional<cache::LpcCache::Hit> hit = lpc_.lookup(fp);
  if (hit && (hit->container->loaded(hit->index) ||
              complete(*hit->container).ok())) {
    const ByteSpan chunk = hit->container->chunk_at(hit->index);
    return std::vector<Byte>(chunk.begin(), chunk.end());
  }
  const Result<ContainerId> cid = locate(fp);
  if (!cid.ok()) return cid.error();
  const Result<ByteSpan> chunk = cache_container(
      fp, containers_.read(cid.value()), /*refill_spare=*/false);
  if (!chunk.ok()) return chunk.error();
  return std::vector<Byte>(chunk.value().begin(), chunk.value().end());
}

}  // namespace debar::core
