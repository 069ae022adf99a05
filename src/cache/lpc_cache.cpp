#include "cache/lpc_cache.hpp"

#include <cassert>

namespace debar::cache {

LpcCache::LpcCache(std::size_t max_containers) : cap_(max_containers) {
  assert(cap_ >= 1);
}

void LpcCache::touch(Slot& slot) {
  lru_.splice(lru_.begin(), lru_, slot.lru_pos);
}

std::optional<LpcCache::Hit> LpcCache::lookup(const Fingerprint& fp) {
  const auto it = fp_to_chunk_.find(fp);
  if (it == fp_to_chunk_.end()) {
    ++misses_;
    return std::nullopt;
  }
  const Location& at = it->second;
  touch(*at.slot);
  ++hits_;
  return Hit{at.slot->container.get(), at.index};
}

std::optional<ByteSpan> LpcCache::find(const Fingerprint& fp) {
  const std::optional<Hit> hit = lookup(fp);
  if (!hit.has_value()) return std::nullopt;
  return hit->container->chunk_at(hit->index);
}

std::shared_ptr<storage::Container> LpcCache::evict_lru() {
  assert(!lru_.empty());
  const std::uint64_t victim = lru_.back();
  lru_.pop_back();
  const auto it = by_id_.find(victim);
  assert(it != by_id_.end());
  for (const storage::ChunkMeta& m : it->second.container->metadata()) {
    const auto fit = fp_to_chunk_.find(m.fp);
    // Only erase mappings still pointing at the victim: a newer container
    // may have re-registered the same fingerprint.
    if (fit != fp_to_chunk_.end() && fit->second.slot == &it->second) {
      fp_to_chunk_.erase(fit);
    }
  }
  std::shared_ptr<storage::Container> evicted = std::move(it->second.container);
  by_id_.erase(it);
  return evicted;
}

std::shared_ptr<storage::Container> LpcCache::insert(
    std::shared_ptr<storage::Container> container) {
  assert(container != nullptr);
  const std::uint64_t id = container->id().value;

  if (const auto it = by_id_.find(id); it != by_id_.end()) {
    touch(it->second);
    std::swap(it->second.container, container);
    return container;
  }
  // One in, at most one out: the cache never holds more than cap_.
  std::shared_ptr<storage::Container> evicted;
  if (by_id_.size() >= cap_) evicted = evict_lru();

  lru_.push_front(id);
  Slot& slot =
      by_id_.emplace(id, Slot{std::move(container), lru_.begin()})
          .first->second;
  const std::vector<storage::ChunkMeta>& metas = slot.container->metadata();
  for (std::uint32_t i = 0; i < metas.size(); ++i) {
    // The newest container wins a fingerprint; within it, the first slot.
    const auto [fit, fresh] =
        fp_to_chunk_.try_emplace(metas[i].fp, Location{&slot, i});
    if (!fresh && fit->second.slot != &slot) fit->second = {&slot, i};
  }
  return evicted;
}

void LpcCache::clear() {
  lru_.clear();
  by_id_.clear();
  fp_to_chunk_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace debar::cache
