// Reference-model property tests for the caching layers: the LPC cache
// against a brute-force model, and the preliminary filter against set
// semantics.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <unordered_map>

#include "cache/lpc_cache.hpp"
#include "common/rng.hpp"
#include "common/sha1.hpp"
#include "filter/preliminary_filter.hpp"

namespace debar {
namespace {

std::shared_ptr<storage::Container> make_container(std::uint64_t id,
                                                         std::uint64_t base,
                                                         std::size_t chunks) {
  auto c = std::make_shared<storage::Container>(64 * 1024);
  for (std::size_t i = 0; i < chunks; ++i) {
    std::vector<Byte> data(64, static_cast<Byte>(base + i));
    c->try_append(Sha1::hash_counter(base + i),
                  ByteSpan(data.data(), data.size()));
  }
  c->set_id(ContainerId{id});
  return c;
}

class LpcModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpcModelTest, AgreesWithBruteForceLru) {
  Xoshiro256 rng(GetParam());
  constexpr std::size_t kCap = 3;
  cache::LpcCache cache(kCap);

  // Model: list of container ids in recency order (front = most recent)
  // plus the fingerprint sets of every container ever created.
  std::deque<std::uint64_t> recency;
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::size_t>>
      container_contents;  // id -> (fp base, chunk count)
  std::uint64_t next_id = 1;

  auto model_find_container =
      [&](const Fingerprint& fp) -> std::optional<std::uint64_t> {
    // Newest-registered container wins for shared fingerprints, which is
    // ambiguous in a model; avoid by giving containers disjoint ranges.
    for (const std::uint64_t id : recency) {
      const auto& [base, count] = container_contents.at(id);
      for (std::size_t i = 0; i < count; ++i) {
        if (Sha1::hash_counter(base + i) == fp) return id;
      }
    }
    return std::nullopt;
  };

  for (int step = 0; step < 600; ++step) {
    if (rng.chance(0.35)) {
      // Insert a fresh container (disjoint fingerprint range).
      const std::uint64_t id = next_id++;
      const std::uint64_t base = id * 1000;
      const std::size_t chunks = 2 + rng.below(6);
      container_contents[id] = {base, chunks};
      cache.insert(make_container(id, base, chunks));
      recency.push_front(id);
      if (recency.size() > kCap) recency.pop_back();
    } else if (!container_contents.empty()) {
      // Probe a random fingerprint from any known container.
      auto it = container_contents.begin();
      std::advance(it, static_cast<long>(rng.below(container_contents.size())));
      const auto& [base, count] = it->second;
      const Fingerprint fp = Sha1::hash_counter(base + rng.below(count));

      const auto model_hit = model_find_container(fp);
      const auto cache_hit = cache.find(fp);
      ASSERT_EQ(cache_hit.has_value(), model_hit.has_value())
          << "step " << step;
      if (model_hit.has_value()) {
        // LRU refresh in the model too.
        recency.erase(std::find(recency.begin(), recency.end(), *model_hit));
        recency.push_front(*model_hit);
      }
    }
    ASSERT_EQ(cache.container_count(), recency.size());
    for (const std::uint64_t id : recency) {
      ASSERT_TRUE(cache.contains_container(ContainerId{id}));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpcModelTest, ::testing::Values(1, 7, 42));

class FilterModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilterModelTest, UnboundedFilterMatchesSetSemantics) {
  // With capacity never reached, admit() must behave exactly like a set:
  // first sighting admits, every later sighting suppresses; collect
  // returns exactly the distinct admitted+referenced fingerprints.
  Xoshiro256 rng(GetParam());
  filter::PreliminaryFilter filter({.hash_bits = 6, .capacity = 100000});
  std::set<Fingerprint> seeded, referenced;

  for (int i = 0; i < 300; ++i) {
    const Fingerprint fp = Sha1::hash_counter(rng.below(150));
    if (rng.chance(0.3) && !filter.contains(fp) && !referenced.contains(fp)) {
      filter.seed(fp);
      seeded.insert(fp);
      continue;
    }
    const bool expect_admit = !seeded.contains(fp) && !referenced.contains(fp);
    EXPECT_EQ(filter.admit(fp), expect_admit) << "step " << i;
    referenced.insert(fp);
  }

  const auto undetermined = filter.collect_undetermined();
  EXPECT_EQ(undetermined.size(), referenced.size());
  for (const Fingerprint& fp : undetermined) {
    EXPECT_TRUE(referenced.contains(fp));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterModelTest,
                         ::testing::Values(2, 11, 77));

TEST(FilterModelTest, BoundedFilterNeverLosesReferencedFingerprints) {
  // Under heavy eviction pressure the filter may re-admit duplicates
  // (wire inefficiency) but collect_undetermined must still cover every
  // referenced fingerprint — the correctness half of the contract.
  Xoshiro256 rng(5);
  filter::PreliminaryFilter filter({.hash_bits = 4, .capacity = 12});
  std::set<Fingerprint> referenced;
  for (int i = 0; i < 500; ++i) {
    const Fingerprint fp = Sha1::hash_counter(rng.below(60));
    (void)filter.admit(fp);
    referenced.insert(fp);
  }
  const auto undetermined = filter.collect_undetermined();
  const std::set<Fingerprint> collected(undetermined.begin(),
                                        undetermined.end());
  for (const Fingerprint& fp : referenced) {
    EXPECT_TRUE(collected.contains(fp));
  }
}

}  // namespace
}  // namespace debar
