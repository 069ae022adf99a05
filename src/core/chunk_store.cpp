#include "core/chunk_store.hpp"

#include <cassert>
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
