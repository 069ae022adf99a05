#include "ddfs/ddfs_server.hpp"

#include <algorithm>
#include <cassert>

#include "common/sha1.hpp"
#include "core/backup_engine.hpp"

namespace debar::ddfs {

void DdfsServer::FingerprintCache::insert_container(
    ContainerId id, const std::vector<storage::ChunkMeta>& metas) {
  if (cap_ == 0) return;
  if (containers_.contains(id.value)) return;
  while (containers_.size() >= cap_) evict_lru();

  lru_.push_front(id.value);
  std::vector<Fingerprint> fps;
  fps.reserve(metas.size());
  for (const storage::ChunkMeta& m : metas) {
    fps.push_back(m.fp);
    fp_to_container_[m.fp] = id.value;
  }
  containers_.emplace(id.value,
                      std::make_pair(std::move(fps), lru_.begin()));
}

void DdfsServer::FingerprintCache::evict_lru() {
  assert(!lru_.empty());
  const std::uint64_t victim = lru_.back();
  lru_.pop_back();
  const auto it = containers_.find(victim);
  for (const Fingerprint& fp : it->second.first) {
    const auto fit = fp_to_container_.find(fp);
    if (fit != fp_to_container_.end() && fit->second == victim) {
      fp_to_container_.erase(fit);
    }
  }
  containers_.erase(it);
}

namespace {

index::DiskIndex make_index(const DdfsConfig& config,
                            sim::DiskModel* model) {
  auto device = std::make_unique<storage::MemBlockDevice>();
  device->attach_model(model);
  Result<index::DiskIndex> idx =
      index::DiskIndex::create(std::move(device), config.index_params);
  assert(idx.ok());
  return std::move(idx).value();
}

}  // namespace

DdfsServer::DdfsServer(const DdfsConfig& config,
                       storage::ChunkRepository* repository)
    : config_(config),
      nic_(config.nic_profile, &nic_clock_),
      index_model_(config.index_profile, &index_clock_),
      bloom_(config.bloom_bits, config.bloom_hashes),
      index_(make_index(config, &index_model_)),
      repository_(repository),
      containers_(repository, config.container_capacity),
      fp_cache_(config.fp_cache_containers),
      lpc_(config.lpc_containers) {
  assert(repository_ != nullptr);
}

void DdfsServer::store_new_chunk(const Fingerprint& fp, ByteSpan payload,
                                 DdfsBackupStats& stats) {
  const auto on_seal = [&](ContainerId id,
                           const std::vector<storage::ChunkMeta>& metas) {
    for (const storage::ChunkMeta& m : metas) {
      const auto it = write_buffer_.find(m.fp);
      if (it != write_buffer_.end() && it->second.is_null()) {
        it->second = id;
      }
    }
  };
  containers_.append(fp, payload, on_seal);
  bloom_.insert(fp);
  write_buffer_.emplace(fp, kNullContainer);
  ++stored_chunks_;
  ++stats.new_chunks;

  if (write_buffer_.size() >=
      static_cast<std::size_t>(config_.write_buffer_entries)) {
    // The system pauses to flush the buffer to the disk index with a
    // sequential pass — the paper's inline-throughput degradation.
    ++stats.buffer_flushes;
    const Status s = flush_write_buffer();
    assert(s.ok());
    (void)s;
  }
}

Result<DdfsBackupStats> DdfsServer::backup_stream(
    std::span<const Fingerprint> stream, std::uint32_t chunk_size) {
  DdfsBackupStats stats;
  for (const Fingerprint& fp : stream) {
    ++stats.chunks;
    stats.logical_bytes += chunk_size;
    // All content crosses the wire: DDFS de-duplicates at the target.
    nic_.transfer(std::uint64_t{chunk_size} + Fingerprint::kSize);

    if (fp_cache_.contains(fp)) {
      ++stats.cache_hits;
      ++stats.duplicate_chunks;
      continue;
    }
    if (write_buffer_.contains(fp)) {
      ++stats.buffer_hits;
      ++stats.duplicate_chunks;
      continue;
    }
    const std::vector<Byte> payload =
        core::BackupEngine::synthetic_payload(fp, chunk_size);
    if (!bloom_.maybe_contains(fp)) {
      ++stats.bloom_negatives;
      store_new_chunk(fp, ByteSpan(payload.data(), payload.size()), stats);
      continue;
    }
    // Summary vector says "maybe": pay one random on-disk lookup.
    ++stats.index_lookups;
    Result<ContainerId> cid = index_.lookup(fp);
    if (cid.ok()) {
      ++stats.duplicate_chunks;
      // Locality-preserved prefetch: pull the whole container's
      // fingerprints into the cache — the next chunks of this stream are
      // very likely in it.
      Result<storage::Container> container = containers_.read(cid.value());
      if (container.ok()) {
        fp_cache_.insert_container(cid.value(),
                                   container.value().metadata());
        ++stats.prefetches;
      }
      continue;
    }
    if (cid.error().code != Errc::kNotFound) return cid.error();
    ++stats.false_positives;
    store_new_chunk(fp, ByteSpan(payload.data(), payload.size()), stats);
  }
  return stats;
}

Status DdfsServer::flush_write_buffer() {
  // Seal the open container first so every buffered entry has a real ID.
  containers_.flush([&](ContainerId id,
                        const std::vector<storage::ChunkMeta>& metas) {
    for (const storage::ChunkMeta& m : metas) {
      const auto it = write_buffer_.find(m.fp);
      if (it != write_buffer_.end() && it->second.is_null()) {
        it->second = id;
      }
    }
  });

  std::vector<IndexEntry> entries;
  entries.reserve(write_buffer_.size());
  for (const auto& [fp, cid] : write_buffer_) {
    if (!cid.is_null()) entries.push_back({fp, cid});
  }
  std::sort(entries.begin(), entries.end(),
            [](const IndexEntry& a, const IndexEntry& b) { return a.fp < b.fp; });

  Status s = index_.bulk_insert(std::span<const IndexEntry>(entries),
                                config_.io_buckets);
  // kFull would mean the fixed-size DDFS index overflowed; unlike DEBAR it
  // has no scaling story, so surface the error.
  if (!s.ok()) return s;
  write_buffer_.clear();
  return Status::Ok();
}

void DdfsServer::inflate_summary_vector(std::uint64_t extra) {
  // Synthetic occupants drawn far away from the workload counter space.
  for (std::uint64_t i = 0; i < extra; ++i) {
    bloom_.insert(Sha1::hash_counter(0xF000000000000000ULL + i));
  }
}

Result<std::vector<Byte>> DdfsServer::read_chunk(const Fingerprint& fp) {
  if (const std::optional<ByteSpan> hit = lpc_.find(fp)) {
    return std::vector<Byte>(hit->begin(), hit->end());
  }
  ContainerId cid = kNullContainer;
  if (const auto it = write_buffer_.find(fp);
      it != write_buffer_.end() && !it->second.is_null()) {
    cid = it->second;
  } else {
    Result<ContainerId> looked = index_.lookup(fp);
    if (!looked.ok()) return looked.error();
    cid = looked.value();
  }
  Result<storage::Container> container = containers_.read(cid);
  if (!container.ok()) return container.error();
  auto shared =
      std::make_shared<storage::Container>(std::move(container).value());
  const std::optional<ByteSpan> chunk = shared->find(fp);
  if (!chunk.has_value()) {
    return Error{Errc::kCorrupt,
                 "index maps fingerprint to a container that lacks it"};
  }
  std::vector<Byte> out(chunk->begin(), chunk->end());
  lpc_.insert(std::move(shared));
  return out;
}

}  // namespace debar::ddfs
