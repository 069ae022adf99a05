#include "core/chunk_store.hpp"

#include <algorithm>
#include <cassert>
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

constexpr const char* kLacksChunk =
    "index maps fingerprint to a container that lacks it";

}  // namespace

/// A restore's walk over its recipe: the cursor of the next chunk to look
/// up, and what its misses need.
struct ChunkStore::Walk {
  Walk(std::span<const FileRecord> recipe, const Locate& find)
      : files(recipe), locate(find) {
    skip_empty_files();
  }

  [[nodiscard]] bool done() const {
    return !error.ok() || at.file == files.size();
  }
  [[nodiscard]] const Fingerprint& fp() const {
    return files[at.file].chunk_fps[at.chunk];
  }
  void next() {
    ++at.pos;
    ++at.chunk;
    skip_empty_files();
  }
  /// Stop the walk at the chunk it just looked up.
  [[nodiscard]] Step stop(Status s) {
    error = std::move(s);
    return {};
  }
  /// Built at the first miss that reads a device; not changed after, so
  /// the pool reads it while the walk goes on.
  void build_last_use() {
    std::uint64_t pos = 0;
    for (const FileRecord& r : files) {
      for (const Fingerprint& c : r.chunk_fps) last_use[c] = pos++;
    }
  }

  std::span<const FileRecord> files;
  const Locate& locate;
  Cursor at;
  LastUse last_use;
  Status error;  // what stopped the walk

 private:
  void skip_empty_files() {
    while (at.file < files.size() &&
           at.chunk == files[at.file].chunk_fps.size()) {
      ++at.file;
      at.chunk = 0;
    }
  }
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
  // it; otherwise the walk moves with the sink, one chunk at a time.
  ThreadPool* const pool =
      repository_->persistent() ? dedup2_pool().workers() : nullptr;
  Walk walk(files, locate);
  // However the restore exits, the reads in flight finish before their
  // frames, the repository or the caller's recipe can go away.
  struct Settle {
    ChunkStore& store;
    ~Settle() { store.settle_all(); }
  } settle_on_exit{*this};

  for (const FileRecord& file : files) {
    if (Status s = sink.begin_file(file); !s.ok()) return s;
    for (std::size_t i = 0; i < file.chunk_fps.size(); ++i) {
      if (pool != nullptr) walk_ahead(walk, *pool);
      const Step step = window_head_ < window_.size()
                            ? window_[window_head_++]
                            : walk_one(walk, pool);
      if (step.container == nullptr) return walk.error;
      if (step.miss) {
        if (Status s = settle_miss(); !s.ok()) return s;
      }
      storage::Container& c = *step.container;
      if (!c.loaded(step.index)) {
        if (Status s = complete(c); !s.ok()) return s;
      }
      if (Status s = deliver(file, i, c.chunk_at(step.index)); !s.ok()) {
        return s;
      }
    }
    if (Status s = sink.end_file(); !s.ok()) return s;
  }
  return Status::Ok();
}

void ChunkStore::walk_ahead(Walk& walk, ThreadPool& pool) {
  if (window_head_ == window_.size()) {
    window_.clear();
    window_head_ = 0;
  }
  while (!walk.done()) {
    // A miss needs a place among the window's misses and a spare frame;
    // without them the walk stops at it. holds() finds it without
    // counting it or touching recency.
    if ((miss_count_ == kReadAheadDepth || spares_.empty()) &&
        !lpc_.holds(walk.fp())) {
      return;
    }
    window_.push_back(walk_one(walk, &pool));
  }
}

ChunkStore::Step ChunkStore::walk_one(Walk& walk, ThreadPool* pool) {
  using storage::Container;
  const Fingerprint& fp = walk.fp();
  const std::uint64_t pos = walk.at.pos;
  walk.next();
  if (const std::optional<cache::LpcCache::Hit> hit = lpc_.lookup(fp)) {
    return {hit->container, hit->index, false};
  }
  // A miss: the locate and the repository charge read_chunk() makes.
  const Result<ContainerId> cid = walk.locate ? walk.locate(fp) : locate(fp);
  if (!cid.ok()) return walk.stop(cid.status());
  const Result<storage::ChunkRepository::PendingRead> charged =
      repository_->charge_read(cid.value());
  if (!charged.ok()) return walk.stop(charged.status());
  const storage::ChunkRepository::PendingRead& read = charged.value();

  bool ahead = false;  // payloads left for the pool to read
  Result<Container> fetched = [&]() -> Result<Container> {
    // Held in memory: a whole copy, as ChunkRepository::read() makes.
    if (read.held != nullptr) {
      return Container::deserialize(read.held->image());
    }
    if (walk.last_use.empty()) walk.build_last_use();
    if (pool == nullptr) {
      Result<Container> c = read_head(
          read, repository_->frame_pool().acquire(read.buffer_bytes()));
      if (!c.ok()) return c;
      if (Status s = read_needed(c.value(), walk.last_use, pos); !s.ok()) {
        return Error{s.code(), s.message()};
      }
      return c;
    }
    // With no spare the window is empty: the sink is at this miss, where
    // a per-chunk restore takes its frame, and tops the spares up.
    if (spares_.empty()) top_up_spares(read.buffer_bytes());
    storage::FrameBuffer frame = std::move(spares_.back());
    spares_.pop_back();
    // Only a container of another capacity needs a frame of its own.
    if (frame.size() != read.buffer_bytes()) {
      frame = repository_->frame_pool().acquire(read.buffer_bytes());
    }
    ahead = true;
    return read_head(read, std::move(frame));
  }();
  if (!fetched.ok()) return walk.stop(fetched.status());
  const std::optional<std::uint32_t> index = fetched.value().index_of(fp);
  if (!index.has_value()) return walk.stop({Errc::kCorrupt, kLacksChunk});
  auto container = std::make_shared<Container>(std::move(fetched).value());
  // Prefetch the whole container (LPC). Without a pool nothing views
  // what the insert evicts, and it goes at once.
  std::shared_ptr<Container> evicted = lpc_.insert(container);
  const Step step{container.get(), *index, pool != nullptr};
  if (pool == nullptr) return step;

  Miss& miss = misses_[(miss_head_ + miss_count_++) % kReadAheadDepth];
  miss.evicted = std::move(evicted);
  miss.container = std::move(container);
  if (ahead) {
    // The recipe, and so `last_use`, stays put while the reads run.
    miss.payload = pool->submit(
        [this, &c = *miss.container, &last_use = walk.last_use, pos] {
          return read_needed(c, last_use, pos);
        });
  }
  return step;
}

Status ChunkStore::settle_miss() {
  Miss& miss = misses_[miss_head_];
  const Status s = miss.payload.valid() ? miss.payload.get() : Status::Ok();
  // The spares are topped up here, where a per-chunk restore takes its
  // frame, before the evicted container's frame goes back to the pool: the
  // pool sees the traffic a per-chunk restore makes (DESIGN.md §5o).
  if (s.ok()) {
    top_up_spares(storage::Container::buffer_bytes(miss.container->capacity()));
  }
  miss = Miss{};
  miss_head_ = (miss_head_ + 1) % kReadAheadDepth;
  --miss_count_;
  return s;
}

void ChunkStore::top_up_spares(std::size_t bytes) {
  std::size_t in_flight = 0;
  for (const Miss& m : misses_) in_flight += m.payload.valid() ? 1 : 0;
  while (spares_.size() + in_flight < kReadAheadDepth) {
    spares_.push_back(repository_->frame_pool().acquire(bytes));
  }
}

void ChunkStore::settle_all() {
  for (Miss& m : misses_) {
    if (m.payload.valid()) m.payload.wait();
  }
  for (Miss& m : misses_) m = Miss{};
  miss_head_ = 0;
  miss_count_ = 0;
  window_.clear();
  window_head_ = 0;
}

Result<storage::Container> ChunkStore::read_head(
    const storage::ChunkRepository::PendingRead& read,
    storage::FrameBuffer buffer) const {
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
  return Container::parse_head(std::move(buffer), read.image_bytes,
                               read.source);
}

Status ChunkStore::read_needed(storage::Container& c, const LastUse& last_use,
                               std::uint64_t pos) const {
  const std::uint64_t head = storage::Container::head_bytes(c.chunk_count());
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
    if (Status s = repository_->read_range(c.source(), begin,
                                           c.image_span(begin, end));
        !s.ok()) {
      return s;
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
  return Status::Ok();
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
  Result<storage::Container> read = containers_.read(cid.value());
  if (!read.ok()) return read.error();
  auto container = std::make_shared<storage::Container>(std::move(read).value());
  const std::optional<ByteSpan> chunk = container->find(fp);
  if (!chunk.has_value()) return Error{Errc::kCorrupt, kLacksChunk};
  lpc_.insert(std::move(container));  // prefetch the whole container (LPC)
  return std::vector<Byte>(chunk->begin(), chunk->end());
}

}  // namespace debar::core
