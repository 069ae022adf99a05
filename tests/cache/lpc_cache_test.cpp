#include "cache/lpc_cache.hpp"

#include <gtest/gtest.h>

#include "common/sha1.hpp"

namespace debar::cache {
namespace {

std::shared_ptr<storage::Container> make_container(
    std::uint64_t id, std::uint64_t fp_base, std::size_t chunks) {
  auto c = std::make_shared<storage::Container>(64 * 1024);
  for (std::size_t i = 0; i < chunks; ++i) {
    std::vector<Byte> data(128, static_cast<Byte>(fp_base + i));
    c->try_append(Sha1::hash_counter(fp_base + i),
                  ByteSpan(data.data(), data.size()));
  }
  c->set_id(ContainerId{id});
  return c;
}

TEST(LpcCacheTest, MissThenHitAfterInsert) {
  LpcCache cache(4);
  const Fingerprint fp = Sha1::hash_counter(100);
  EXPECT_FALSE(cache.find(fp).has_value());
  EXPECT_EQ(cache.misses(), 1u);

  cache.insert(make_container(1, 100, 10));
  const auto hit = cache.find(fp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0], static_cast<Byte>(100));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(LpcCacheTest, PrefetchMakesNeighboursHit) {
  // The LPC property: one container insert turns the whole SISL
  // neighbourhood into cache hits.
  LpcCache cache(4);
  cache.insert(make_container(1, 0, 50));
  for (std::uint64_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(cache.find(Sha1::hash_counter(i)).has_value());
  }
  EXPECT_DOUBLE_EQ(cache.hit_rate(), 1.0);
}

TEST(LpcCacheTest, EvictsLeastRecentlyUsedContainer) {
  LpcCache cache(2);
  cache.insert(make_container(1, 0, 5));
  cache.insert(make_container(2, 100, 5));
  // Touch container 1 so container 2 is LRU.
  EXPECT_TRUE(cache.find(Sha1::hash_counter(0)).has_value());
  cache.insert(make_container(3, 200, 5));

  EXPECT_TRUE(cache.contains_container(ContainerId{1}));
  EXPECT_FALSE(cache.contains_container(ContainerId{2}));
  EXPECT_TRUE(cache.contains_container(ContainerId{3}));
  EXPECT_FALSE(cache.find(Sha1::hash_counter(100)).has_value());
}

TEST(LpcCacheTest, HoldsProbesWithoutCountingOrTouching) {
  LpcCache cache(2);
  cache.insert(make_container(1, 0, 5));
  cache.insert(make_container(2, 100, 5));
  // Container 1 is LRU. Probing its chunks (and an absent one) must leave
  // the counters and the recency order alone.
  EXPECT_TRUE(cache.holds(Sha1::hash_counter(0)));
  EXPECT_TRUE(cache.holds(Sha1::hash_counter(104)));
  EXPECT_FALSE(cache.holds(Sha1::hash_counter(500)));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);

  cache.insert(make_container(3, 200, 5));
  EXPECT_FALSE(cache.contains_container(ContainerId{1}));
  EXPECT_FALSE(cache.holds(Sha1::hash_counter(0)));
  EXPECT_TRUE(cache.contains_container(ContainerId{2}));
  EXPECT_TRUE(cache.holds(Sha1::hash_counter(200)));
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(LpcCacheTest, ReinsertSameContainerRefreshes) {
  LpcCache cache(2);
  cache.insert(make_container(1, 0, 5));
  cache.insert(make_container(2, 100, 5));
  cache.insert(make_container(1, 0, 5));  // refresh 1 -> 2 becomes LRU
  cache.insert(make_container(3, 200, 5));
  EXPECT_TRUE(cache.contains_container(ContainerId{1}));
  EXPECT_FALSE(cache.contains_container(ContainerId{2}));
}

TEST(LpcCacheTest, SharedFingerprintAcrossContainers) {
  // A fingerprint can appear in two cached containers (duplicate storage
  // from asynchronous rounds); eviction of one must not break the other.
  LpcCache cache(3);
  cache.insert(make_container(1, 0, 5));
  cache.insert(make_container(2, 0, 5));  // same fingerprints, newer wins
  EXPECT_TRUE(cache.find(Sha1::hash_counter(0)).has_value());

  // Evict container 2 (LRU order: 1 older... touch to force): fill up.
  cache.insert(make_container(3, 100, 5));
  cache.insert(make_container(4, 200, 5));  // evicts LRU
  // Whatever remains, find() must never return a dangling mapping.
  const auto r = cache.find(Sha1::hash_counter(0));
  if (r.has_value()) {
    EXPECT_EQ((*r)[0], static_cast<Byte>(0));
  }
}

TEST(LpcCacheTest, CapacityOne) {
  LpcCache cache(1);
  cache.insert(make_container(1, 0, 3));
  cache.insert(make_container(2, 50, 3));
  EXPECT_FALSE(cache.contains_container(ContainerId{1}));
  EXPECT_TRUE(cache.find(Sha1::hash_counter(50)).has_value());
}

TEST(LpcCacheTest, ClearResetsStatsAndContents) {
  LpcCache cache(2);
  cache.insert(make_container(1, 0, 3));
  (void)cache.find(Sha1::hash_counter(0));
  cache.clear();
  EXPECT_EQ(cache.container_count(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_FALSE(cache.find(Sha1::hash_counter(0)).has_value());
}

TEST(LpcCacheTest, HitRateMath) {
  LpcCache cache(2);
  cache.insert(make_container(1, 0, 2));
  (void)cache.find(Sha1::hash_counter(0));   // hit
  (void)cache.find(Sha1::hash_counter(1));   // hit
  (void)cache.find(Sha1::hash_counter(99));  // miss
  EXPECT_NEAR(cache.hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(LpcCacheTest, NewestContainerAndFirstSlotWinAFingerprint) {
  // Container 1 holds fingerprint X twice (payload 0x11 first, 0x22
  // second); container 2, inserted later, holds X with payload 0x33.
  const Fingerprint x = Sha1::hash_counter(7);
  auto make = [&](std::uint64_t id, std::initializer_list<Byte> fills) {
    auto c = std::make_shared<storage::Container>(64 * 1024);
    for (const Byte fill : fills) {
      std::vector<Byte> data(64, fill);
      EXPECT_TRUE(c->try_append(x, ByteSpan(data.data(), data.size())));
    }
    c->set_id(ContainerId{id});
    return c;
  };
  LpcCache cache(4);
  cache.insert(make(1, {0x11, 0x22}));
  ASSERT_TRUE(cache.find(x).has_value());
  EXPECT_EQ((*cache.find(x))[0], 0x11);  // first slot within a container
  cache.insert(make(2, {0x33}));
  EXPECT_EQ((*cache.find(x))[0], 0x33);  // newest container
  // Re-inserting the older container only refreshes it.
  cache.insert(make(1, {0x11, 0x22}));
  EXPECT_EQ((*cache.find(x))[0], 0x33);
}

}  // namespace
}  // namespace debar::cache
