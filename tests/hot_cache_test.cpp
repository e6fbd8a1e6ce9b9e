/// Tests of the store's set-associative answer cache (store/hot_cache.hpp):
/// capacity is a hard bound for every shard count, a full set evicts its
/// least recently used way, full sets spill instead of evicting while the
/// cache has room, storage grows with the entries instead of being
/// allocated up front, a miss is admitted while a put would not evict and
/// otherwise only when it repeats, and concurrent get/put churn stays
/// consistent.

#include "facet/store/hot_cache.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

namespace facet {
namespace {

struct TestValue {
  std::uint32_t id = 0;
  std::uint32_t check = 0;
};

using TestCache = SetAssociativeCache<TestValue>;

/// Distinct single-word keys.
std::vector<std::uint64_t> distinct_keys(std::size_t count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<std::uint64_t> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    keys.push_back((rng() << 20) | i);  // the low bits keep them distinct
  }
  return keys;
}

void put_key(const TestCache& cache, std::uint64_t key, std::uint32_t id)
{
  const std::array<std::uint64_t, 1> payload{~key};
  cache.put({&key, 1}, TestValue{id, static_cast<std::uint32_t>(key)}, payload);
}

/// The id cached under `key`, or -1 on a miss; checks the payload and value
/// belong to the key.
std::int64_t get_key(const TestCache& cache, std::uint64_t key)
{
  TestValue value;
  std::array<std::uint64_t, 1> payload{};
  if (!cache.get({&key, 1}, value, payload)) {
    return -1;
  }
  EXPECT_EQ(payload[0], ~key);
  EXPECT_EQ(value.check, static_cast<std::uint32_t>(key));
  return value.id;
}

TEST(HotCache, EntriesNeverExceedCapacity)
{
  const auto keys = distinct_keys(2000, 0x51);
  for (const std::size_t capacity : {1u, 4u, 63u, 64u}) {
    for (const std::size_t shards : {1u, 8u}) {
      const TestCache cache{1, 1, capacity, shards};
      for (std::size_t i = 0; i < keys.size(); ++i) {
        put_key(cache, keys[i], static_cast<std::uint32_t>(i));
        ASSERT_LE(cache.size(), capacity) << "capacity " << capacity << " shards " << shards;
      }
      const HotCacheStats stats = cache.stats();
      EXPECT_EQ(stats.capacity, capacity);
      EXPECT_LE(stats.slots, capacity);
      EXPECT_GT(stats.entries, 0u);
      EXPECT_LE(cache.num_shards(), capacity);
      // Every live entry answers, and nothing else does.
      std::size_t found = 0;
      for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::int64_t id = get_key(cache, keys[i]);
        if (id >= 0) {
          EXPECT_EQ(id, static_cast<std::int64_t>(i));
          ++found;
        }
      }
      EXPECT_EQ(found, stats.entries);
    }
  }
}

TEST(HotCache, ZeroCapacityStoresNothing)
{
  for (const std::size_t shards : {1u, 8u}) {
    const TestCache cache{1, 1, 0, shards};
    put_key(cache, 42, 7);
    EXPECT_EQ(get_key(cache, 42), -1);
    const HotCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.slots, 0u);
    EXPECT_EQ(stats.insertions, 0u);
    EXPECT_EQ(stats.misses, 1u);
  }
}

TEST(HotCache, FullSetEvictsItsLeastRecentlyUsedWay)
{
  // Capacity kWays over one shard is exactly one set.
  const std::size_t ways = TestCache::kWays;
  const TestCache cache{1, 1, ways, 1};
  const auto keys = distinct_keys(ways + 2, 0x77);
  for (std::size_t i = 0; i < ways; ++i) {
    put_key(cache, keys[i], static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(cache.size(), ways);
  // A get refreshes keys[0]: the next insert evicts keys[1] instead.
  EXPECT_EQ(get_key(cache, keys[0]), 0);
  put_key(cache, keys[ways], static_cast<std::uint32_t>(ways));
  EXPECT_EQ(get_key(cache, keys[1]), -1);
  EXPECT_EQ(get_key(cache, keys[0]), 0);
  EXPECT_EQ(get_key(cache, keys[ways]), static_cast<std::int64_t>(ways));
  // A put of a present key refreshes it too: keys[2] survives, keys[3] goes.
  put_key(cache, keys[2], 102);
  put_key(cache, keys[ways + 1], static_cast<std::uint32_t>(ways + 1));
  EXPECT_EQ(get_key(cache, keys[3]), -1);
  EXPECT_EQ(get_key(cache, keys[2]), 102);
  const HotCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, ways);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.insertions, ways + 2);
}

/// The verdict of a get of `key` that must miss: true = admit.
bool miss_admits(const TestCache& cache, std::uint64_t key)
{
  TestValue value;
  std::array<std::uint64_t, 1> payload{};
  const CacheProbe probe = cache.get({&key, 1}, value, payload);
  EXPECT_FALSE(probe.hit);
  return probe.admit;
}

TEST(HotCache, FullSetDeclinesAKeyItHasNotSeen)
{
  const std::size_t ways = TestCache::kWays;
  const TestCache cache{1, 1, ways, 1};  // one set
  const auto keys = distinct_keys(ways + 1, 0x3a);
  for (std::size_t i = 0; i < ways; ++i) {
    put_key(cache, keys[i], static_cast<std::uint32_t>(i));
  }
  const HotCacheStats before = cache.stats();
  EXPECT_FALSE(miss_admits(cache, keys[ways]));
  const HotCacheStats after = cache.stats();
  EXPECT_EQ(after.entries, before.entries);
  EXPECT_EQ(after.evictions, before.evictions);
  EXPECT_EQ(after.insertions, before.insertions);
  for (std::size_t i = 0; i < ways; ++i) {
    EXPECT_EQ(get_key(cache, keys[i]), static_cast<std::int64_t>(i));
  }
}

TEST(HotCache, FullSetAdmitsAKeyOnItsSecondMiss)
{
  const std::size_t ways = TestCache::kWays;
  const TestCache cache{1, 1, ways, 1};
  const auto keys = distinct_keys(ways + 1, 0x3b);
  for (std::size_t i = 0; i < ways; ++i) {
    put_key(cache, keys[i], static_cast<std::uint32_t>(i));
  }
  const std::uint64_t repeat = keys[ways];
  EXPECT_FALSE(miss_admits(cache, repeat));
  EXPECT_TRUE(miss_admits(cache, repeat));
  // The match consumed the ghost: a third miss starts over.
  EXPECT_FALSE(miss_admits(cache, repeat));
  EXPECT_TRUE(miss_admits(cache, repeat));
  put_key(cache, repeat, 99);
  EXPECT_EQ(get_key(cache, repeat), 99);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(HotCache, ThreeNewerGhostsPushAKeyOut)
{
  const std::size_t ways = TestCache::kWays;
  const TestCache cache{1, 1, ways, 1};
  const auto keys = distinct_keys(ways + 6, 0x3c);
  for (std::size_t i = 0; i < ways; ++i) {
    put_key(cache, keys[i], static_cast<std::uint32_t>(i));
  }
  const std::uint64_t first = keys[ways];
  EXPECT_FALSE(miss_admits(cache, first));
  // Two newer ghosts still leave it among the set's three...
  EXPECT_FALSE(miss_admits(cache, keys[ways + 1]));
  EXPECT_FALSE(miss_admits(cache, keys[ways + 2]));
  EXPECT_TRUE(miss_admits(cache, first));
  // ...three push it out.
  EXPECT_FALSE(miss_admits(cache, first));
  EXPECT_FALSE(miss_admits(cache, keys[ways + 3]));
  EXPECT_FALSE(miss_admits(cache, keys[ways + 4]));
  EXPECT_FALSE(miss_admits(cache, keys[ways + 5]));
  EXPECT_FALSE(miss_admits(cache, first));
}

TEST(HotCache, AdmitsEveryMissWhileAPutWouldNotEvict)
{
  // A growing shard admits every miss.
  const TestCache growing{1, 1, std::size_t{1} << 12, 1};
  const auto keys = distinct_keys(1000, 0x3d);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(miss_admits(growing, keys[i])) << i;
    put_key(growing, keys[i], static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(growing.stats().evictions, 0u);
  // At its final geometry, a shard admits while the set has a free way.
  const std::size_t ways = TestCache::kWays;
  const TestCache single{1, 1, ways, 1};
  for (std::size_t i = 0; i < ways; ++i) {
    ASSERT_TRUE(miss_admits(single, keys[i])) << i;
    put_key(single, keys[i], static_cast<std::uint32_t>(i));
  }
  EXPECT_FALSE(miss_admits(single, keys[ways]));
  EXPECT_EQ(single.stats().evictions, 0u);
}

TEST(HotCache, StorageFollowsEntries)
{
  const TestCache cache{1, 1, std::size_t{1} << 16, 8};
  EXPECT_LE(cache.stats().slots, 8 * TestCache::kWays);  // one set per shard
  const auto keys = distinct_keys(1000, 0x99);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    put_key(cache, keys[i], static_cast<std::uint32_t>(i));
  }
  const HotCacheStats stats = cache.stats();
  EXPECT_LE(stats.slots, std::size_t{4096});
  EXPECT_GE(stats.slots, stats.entries);
  EXPECT_GE(stats.entries, 990u);  // growth rehashes keep the entries
  std::size_t found = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    found += get_key(cache, keys[i]) == static_cast<std::int64_t>(i) ? 1 : 0;
  }
  EXPECT_EQ(found, stats.entries);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_LE(cache.stats().slots, 8 * TestCache::kWays);
}

TEST(HotCache, HoldsEveryKeyAtHalfCapacity)
{
  // Keys whose home set is full spill into the next sets, so a cache sized
  // at twice its working set keeps all of it (no conflict evictions).
  for (const std::size_t count : {100u, 3000u, 20000u}) {
    for (const std::size_t shards : {1u, 8u}) {
      const TestCache cache{1, 1, 2 * count + 16, shards};
      const auto keys = distinct_keys(count, count + shards);
      for (std::size_t i = 0; i < keys.size(); ++i) {
        put_key(cache, keys[i], static_cast<std::uint32_t>(i));
      }
      for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_EQ(get_key(cache, keys[i]), static_cast<std::int64_t>(i))
            << count << " keys over " << shards << " shards";
      }
      EXPECT_EQ(cache.stats().evictions, 0u);
    }
  }
}

TEST(HotCache, MultiWordKeysCompareEveryWord)
{
  const SetAssociativeCache<TestValue> cache{4, 4, 64, 2};
  std::array<std::uint64_t, 4> a{1, 2, 3, 4};
  std::array<std::uint64_t, 4> b{1, 2, 3, 5};
  cache.put(a, TestValue{1, 0}, a);
  cache.put(b, TestValue{2, 0}, b);
  TestValue value;
  std::array<std::uint64_t, 4> payload{};
  ASSERT_TRUE(cache.get(a, value, payload));
  EXPECT_EQ(value.id, 1u);
  EXPECT_EQ(payload, a);
  ASSERT_TRUE(cache.get(b, value, payload));
  EXPECT_EQ(value.id, 2u);
  EXPECT_EQ(payload, b);
  const std::array<std::uint64_t, 4> c{1, 2, 4, 4};
  EXPECT_FALSE(cache.get(c, value, payload));
}

TEST(HotCache, ConcurrentGetPutChurnStaysConsistent)
{
  const std::size_t capacity = 512;
  const TestCache cache{1, 1, capacity, 8};
  const auto keys = distinct_keys(4096, 0xc0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937_64 rng{static_cast<std::uint64_t>(t)};
      for (int op = 0; op < 20000; ++op) {
        const std::size_t i = rng() % keys.size();
        if ((rng() & 1u) != 0) {
          put_key(cache, keys[i], static_cast<std::uint32_t>(i));
        } else if (const std::int64_t id = get_key(cache, keys[i]); id >= 0) {
          EXPECT_EQ(id, static_cast<std::int64_t>(i));
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  const HotCacheStats stats = cache.stats();
  EXPECT_LE(stats.entries, capacity);
  EXPECT_LE(stats.slots, capacity);
  EXPECT_GT(stats.hits, 0u);
}

}  // namespace
}  // namespace facet
