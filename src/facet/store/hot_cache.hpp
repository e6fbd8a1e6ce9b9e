/// \file hot_cache.hpp
/// \brief Sharded LRU cache fronting the class store.
///
/// Repeated lookups are the common case of a serving workload (the same cut
/// functions recur across mapped circuits), so the store keeps a bounded
/// function -> lookup-result cache in front of the canonicalize-and-search
/// path. The cache is sharded by key hash: each shard owns its own mutex,
/// hash index and LRU list, so concurrent readers (e.g. the batch engine's
/// worker threads probing the store) contend only within a shard. Eviction
/// is per-shard LRU, which approximates global LRU well once the key hash
/// spreads the load.
///
/// The template is generic over (Key, Value, Hash); the store instantiates
/// it with TruthTable keys, twice: the hot cache (query -> answer) and the
/// semiclass memo (semiclass image -> answer). Each entry stores its key
/// once, in the LRU list node; the hash index points at that copy.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "facet/util/hash.hpp"

namespace facet {

struct HotCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedLruCache {
 public:
  /// `capacity` = 0 disables the cache (every get misses, put is a no-op).
  /// Shard count is rounded up to at least 1; per-shard capacity is the
  /// total divided evenly, at least 1 entry per shard.
  explicit ShardedLruCache(std::size_t capacity, std::size_t num_shards = 8)
      : capacity_{capacity}
  {
    const std::size_t shards = std::max<std::size_t>(1, num_shards);
    shard_capacity_ = capacity == 0 ? 0 : std::max<std::size_t>(1, (capacity + shards - 1) / shards);
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  /// Returns the cached value and promotes the entry to most-recently-used.
  [[nodiscard]] std::optional<Value> get(const Key& key) const
  {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock{shard.mutex};
    const auto it = shard.index.find(&key);
    if (it == shard.index.end()) {
      ++shard.misses;
      return std::nullopt;
    }
    ++shard.hits;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return it->second->second;
  }

  /// Inserts or refreshes an entry, evicting the shard's LRU tail if full.
  void put(const Key& key, Value value) const
  {
    if (shard_capacity_ == 0) {
      return;
    }
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock{shard.mutex};
    if (const auto it = shard.index.find(&key); it != shard.index.end()) {
      it->second->second = std::move(value);
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return;
    }
    if (shard.lru.size() >= shard_capacity_) {
      shard.index.erase(&shard.lru.back().first);
      shard.lru.pop_back();
      ++shard.evictions;
    }
    shard.lru.emplace_front(key, std::move(value));
    shard.index.emplace(&shard.lru.front().first, shard.lru.begin());
    ++shard.insertions;
  }

  void clear() const
  {
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock{shard->mutex};
      shard->index.clear();
      shard->lru.clear();
    }
  }

  [[nodiscard]] HotCacheStats stats() const
  {
    HotCacheStats total;
    total.capacity = capacity_;
    for (const auto& shard : shards_) {
      const std::lock_guard<std::mutex> lock{shard->mutex};
      total.hits += shard->hits;
      total.misses += shard->misses;
      total.insertions += shard->insertions;
      total.evictions += shard->evictions;
      total.entries += shard->lru.size();
    }
    return total;
  }

  [[nodiscard]] std::size_t size() const { return stats().entries; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t num_shards() const noexcept { return shards_.size(); }

 private:
  /// Hash and equality of the index's key pointers, by the keys they point
  /// at (list nodes never move, so the pointers stay valid until erased).
  struct PointeeHash {
    [[nodiscard]] std::size_t operator()(const Key* key) const { return Hash{}(*key); }
  };
  struct PointeeEqual {
    [[nodiscard]] bool operator()(const Key* a, const Key* b) const { return *a == *b; }
  };

  struct Shard {
    mutable std::mutex mutex;
    /// front = most recently used.
    std::list<std::pair<Key, Value>> lru;
    std::unordered_map<const Key*, typename std::list<std::pair<Key, Value>>::iterator,
                       PointeeHash, PointeeEqual>
        index;
    mutable std::uint64_t hits = 0;
    mutable std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] Shard& shard_for(const Key& key) const
  {
    // Remix the key hash so shard choice and in-shard bucketing are
    // decorrelated.
    const std::uint64_t h = hash_mix64(static_cast<std::uint64_t>(Hash{}(key)));
    return *shards_[static_cast<std::size_t>(h % shards_.size())];
  }

  std::size_t capacity_;
  std::size_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace facet
