/// \file hot_cache.hpp
/// \brief Flat, sharded, set-associative cache fronting the class store.
///
/// Repeated lookups are the common case of a serving workload (the same cut
/// functions recur across mapped circuits), so the store keeps a bounded
/// key -> answer cache in front of the canonicalize-and-search path. The
/// store instantiates it twice: the hot cache (query -> answer) and the
/// semiclass memo (semiclass image -> answer).
///
/// Keys are fixed-width truth tables stored as words: a store has one width,
/// so every key is `key_words` words long. A value is a trivially copyable
/// struct plus `payload_words` words (the store's class id and transform,
/// plus the representative's words). Entries live in one flat word array
/// per shard; nothing is allocated per entry.
///
/// The key hash picks a shard (each with its own mutex, so concurrent
/// readers contend only within a shard), then a home set of at most kWays
/// ways inside it. A set's tags (32 hash bits per way) and LRU ranks share
/// one 64-byte line, so a miss reads one line; only a tag match compares
/// the stored key words. A new key whose home set is full takes a free way
/// in one of the next three sets, and the home set notes that it spilled
/// (only then does a miss read those lines too). With no free way there,
/// the put evicts the home set's least recently used way.
///
/// A get that misses also says whether a put of the key should follow
/// (CacheProbe::admit), under the shard lock it already holds. While a put
/// would take a free way — the shard is still growing, or a set of the
/// key's probe span has room — every miss is admitted. Once it would evict,
/// a miss is admitted only when it repeats: each set keeps the tags of the
/// last three keys declined there (ghosts, in the spare bytes of its line),
/// and a miss whose tag is a ghost of its home set consumes that ghost and
/// is admitted; any other miss becomes the newest ghost and is declined.
/// So a stream of keys that never come back costs one set line per miss
/// instead of a put and an eviction, and the cache keeps what does repeat.
/// put itself stays unconditional: admission is the caller's choice.
///
/// `capacity` is a hard bound on the entries of the whole cache: it is
/// split across the shards, and each shard's final geometry has exactly its
/// share of ways. Storage is not allocated up front: a shard starts with
/// one set and doubles its set count (rehashing its entries) when it is
/// half full, until it reaches its final geometry.

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <type_traits>
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
  /// Entry slots currently allocated (grows with entries, at most capacity).
  std::size_t slots = 0;
};

/// What a get found: a hit (the value and payload were copied out), or a
/// miss and whether a put of the key should follow it.
struct CacheProbe {
  bool hit = false;
  /// On a miss: the key repeats, or a put would take a free way.
  bool admit = false;
  explicit operator bool() const noexcept { return hit; }
};

template <typename Value>
class SetAssociativeCache {
  static_assert(std::is_trivially_copyable_v<Value>, "values are stored as raw words");

 public:
  static constexpr std::size_t kWays = 8;

  /// `capacity` = 0 disables the cache (every get misses, put is a no-op).
  /// The shard count is clamped to [1, capacity], so every shard can hold
  /// at least one entry and the shard capacities sum to `capacity`.
  SetAssociativeCache(std::size_t key_words, std::size_t payload_words, std::size_t capacity,
                      std::size_t num_shards = 8)
      : key_words_{key_words},
        payload_words_{payload_words},
        record_words_{key_words + payload_words + kValueWords},
        capacity_{capacity},
        num_shards_{std::clamp<std::size_t>(num_shards, 1, std::max<std::size_t>(capacity, 1))},
        shards_{std::make_unique<Shard[]>(num_shards_)}
  {
    for (std::size_t s = 0; s < num_shards_; ++s) {
      Shard& shard = shards_[s];
      shard.capacity = capacity / num_shards_ + (s < capacity % num_shards_ ? 1 : 0);
      shard.final_sets = std::max<std::size_t>((shard.capacity + kWays - 1) / kWays, 1);
      reset(shard);
    }
  }

  /// Copies the cached value and payload of `key` out and marks the entry
  /// most recently used. On a miss, reports the admission verdict of the
  /// file comment (and notes the key as a ghost when it declines). Keys
  /// span `key_words` words and payloads `payload_words`, in get and put
  /// alike.
  [[nodiscard]] CacheProbe get(std::span<const std::uint64_t> key, Value& value,
                               std::span<std::uint64_t> payload) const
  {
    const std::uint64_t h = hash_words(key);
    Shard& shard = shard_for(h);
    const std::lock_guard<std::mutex> lock{shard.mutex};
    if (const std::optional<Slot> slot = find(shard, h, key)) {
      ++shard.hits;
      const std::uint64_t* record = record_at(shard, *slot);
      std::copy_n(record + key_words_, payload_words_, payload.data());
      std::memcpy(static_cast<void*>(&value), record + key_words_ + payload_words_,
                  sizeof(Value));
      touch(shard.sets[slot->set], slot->way);
      return CacheProbe{.hit = true};
    }
    ++shard.misses;
    return CacheProbe{.admit = admits(shard, h)};
  }

  /// Inserts or refreshes the entry of `key`. A new key takes a free way of
  /// its home set or, when that is full, of one of the next sets; with all
  /// of those full it replaces its home set's least recently used way.
  void put(std::span<const std::uint64_t> key, const Value& value,
           std::span<const std::uint64_t> payload) const
  {
    if (capacity_ == 0) {
      return;
    }
    const std::uint64_t h = hash_words(key);
    Shard& shard = shard_for(h);
    const std::lock_guard<std::mutex> lock{shard.mutex};
    if (const std::optional<Slot> slot = find(shard, h, key)) {
      write(shard, *slot, h, key, value, payload);
      return;
    }
    if (shard.sets.size() < shard.final_sets && 2 * (shard.entries + 1) > num_slots(shard)) {
      grow(shard);
    }
    insert(shard, h, key, value, payload);
    ++shard.insertions;
  }

  /// Drops every entry and releases the storage (statistics are kept).
  void clear() const
  {
    for (std::size_t s = 0; s < num_shards_; ++s) {
      const std::lock_guard<std::mutex> lock{shards_[s].mutex};
      reset(shards_[s]);
    }
  }

  [[nodiscard]] HotCacheStats stats() const
  {
    HotCacheStats total;
    total.capacity = capacity_;
    for (std::size_t s = 0; s < num_shards_; ++s) {
      const Shard& shard = shards_[s];
      const std::lock_guard<std::mutex> lock{shard.mutex};
      total.hits += shard.hits;
      total.misses += shard.misses;
      total.insertions += shard.insertions;
      total.evictions += shard.evictions;
      total.entries += shard.entries;
      total.slots += num_slots(shard);
    }
    return total;
  }

  [[nodiscard]] std::size_t size() const { return stats().entries; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t num_shards() const noexcept { return num_shards_; }

 private:
  static constexpr std::size_t kValueWords = (sizeof(Value) + 7) / 8;
  /// A key lives in its home set or, spilled from a full home, in one of
  /// the next kProbeSets - 1 sets (ring order within the shard).
  static constexpr std::size_t kProbeSets = 4;

  /// Declined tags a set remembers (see admits).
  static constexpr std::size_t kGhosts = 3;

  /// One set's metadata, in one cache line: per way the tag, the LRU rank
  /// (0 = most recently used) and the distance from the entry's home set;
  /// ways [0, used) are filled. `spilled` counts the entries homed here
  /// that live in later sets — zero means a miss reads this line only.
  /// `ghosts` holds the tags of the last misses declined here, newest
  /// first; 0 marks an empty ghost.
  struct alignas(64) SetLine {
    std::array<std::uint32_t, kWays> tags{};
    std::array<std::uint32_t, kGhosts> ghosts{};
    std::array<std::uint8_t, kWays> rank{};
    std::array<std::uint8_t, kWays> offset{};
    std::uint8_t used = 0;
    std::uint8_t spilled = 0;
  };
  static_assert(sizeof(SetLine) == 64, "a set's metadata is one cache line");

  struct Slot {
    std::size_t set = 0;
    std::size_t way = 0;
  };

  /// Set s has base_ways + (s < extra ? 1 : 0) ways, and its records start
  /// at slot s * base_ways + min(s, extra). While the shard grows every set
  /// has kWays ways; the final geometry spreads `capacity` over
  /// final_sets = ceil(capacity / kWays) sets, so once capacity >= kWays
  /// every set keeps at least kWays / 2 ways.
  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::size_t capacity = 0;
    std::size_t final_sets = 1;
    std::size_t base_ways = 0;
    std::size_t extra = 0;
    std::size_t entries = 0;
    std::vector<SetLine> sets;
    std::vector<std::uint64_t> records;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t h) noexcept
  {
    return static_cast<std::uint32_t>(h >> 32);
  }

  /// Multiply-shift range reduction of a 32-bit hash slice onto [0, n).
  /// Doubling n splits every bucket k into 2k and 2k + 1.
  [[nodiscard]] static std::size_t reduce(std::uint64_t slice, std::size_t n) noexcept
  {
    return static_cast<std::size_t>(((slice & 0xFFFFFFFFULL) * n) >> 32);
  }

  /// The high hash bits pick the shard, the low bits the set inside it.
  [[nodiscard]] Shard& shard_for(std::uint64_t h) const noexcept
  {
    return shards_[reduce(h >> 32, num_shards_)];
  }

  [[nodiscard]] static std::size_t set_of(const Shard& shard, std::uint64_t h) noexcept
  {
    return reduce(h, shard.sets.size());
  }

  [[nodiscard]] static std::size_t ways_of(const Shard& shard, std::size_t set) noexcept
  {
    return shard.base_ways + (set < shard.extra ? 1 : 0);
  }

  [[nodiscard]] static std::size_t num_slots(const Shard& shard) noexcept
  {
    return shard.sets.size() * shard.base_ways + shard.extra;
  }

  [[nodiscard]] std::uint64_t* record_at(Shard& shard, Slot slot) const
  {
    const std::size_t index =
        slot.set * shard.base_ways + std::min(slot.set, shard.extra) + slot.way;
    return shard.records.data() + index * record_words_;
  }

  /// Sets one key may occupy: its home and the sets it can spill into.
  [[nodiscard]] static std::size_t probe_span(const Shard& shard) noexcept
  {
    return std::min(kProbeSets, shard.sets.size());
  }

  /// Geometry with `num_sets` sets: kWays each while growing, the final
  /// split of the shard's capacity once num_sets reaches final_sets.
  void allocate(Shard& shard, std::size_t num_sets) const
  {
    if (num_sets == shard.final_sets) {
      shard.base_ways = shard.capacity / num_sets;
      shard.extra = shard.capacity % num_sets;
    } else {
      shard.base_ways = kWays;
      shard.extra = 0;
    }
    shard.sets.assign(num_sets, SetLine{});
    shard.records.assign((num_sets * shard.base_ways + shard.extra) * record_words_, 0);
    shard.entries = 0;
  }

  void reset(Shard& shard) const
  {
    if (shard.capacity == 0) {
      shard.sets.clear();
      shard.records.clear();
      shard.entries = 0;
      return;
    }
    allocate(shard, 1);
  }

  /// Slot of `key`, or nullopt: its home set, then — only when the home
  /// set has spilled — the sets it spills into.
  [[nodiscard]] std::optional<Slot> find(Shard& shard, std::uint64_t h,
                                         std::span<const std::uint64_t> key) const
  {
    if (shard.sets.empty()) {
      return std::nullopt;
    }
    const std::size_t home = set_of(shard, h);
    const std::size_t span = shard.sets[home].spilled == 0 ? 1 : probe_span(shard);
    const std::uint32_t tag = tag_of(h);
    for (std::size_t distance = 0; distance < span; ++distance) {
      const std::size_t set = (home + distance) % shard.sets.size();
      const SetLine& line = shard.sets[set];
      for (std::size_t way = 0; way < line.used; ++way) {
        if (line.tags[way] == tag && line.offset[way] == distance &&
            std::equal(key.begin(), key.end(), record_at(shard, Slot{set, way}))) {
          return Slot{set, way};
        }
      }
    }
    return std::nullopt;
  }

  /// A miss's verdict on a put of its key: yes while the put would take a
  /// free way — the shard is still growing, or a set of the key's probe
  /// span has room. Otherwise yes only when the key's tag is a ghost of its
  /// home set, which the match consumes; a tag that is not becomes the
  /// newest ghost, pushing out the oldest. A tag of 0 reads as an empty
  /// ghost, so the rare key with that tag is always admitted.
  static bool admits(Shard& shard, std::uint64_t h)
  {
    if (shard.sets.size() < shard.final_sets || has_free_way(shard, h)) {
      return true;
    }
    std::array<std::uint32_t, kGhosts>& ghosts = shard.sets[set_of(shard, h)].ghosts;
    const std::uint32_t tag = tag_of(h);
    const auto ghost = std::find(ghosts.begin(), ghosts.end(), tag);
    if (ghost != ghosts.end()) {
      std::copy(ghost + 1, ghosts.end(), ghost);
      ghosts.back() = 0;
      return true;
    }
    std::copy_backward(ghosts.begin(), ghosts.end() - 1, ghosts.end());
    ghosts.front() = tag;
    return false;
  }

  /// Whether a put of a new key hashing to `h` would find a free way: some
  /// set of its probe span is not full. A shard with every slot filled has
  /// none, so only a shard with room scans the span.
  static bool has_free_way(const Shard& shard, std::uint64_t h) noexcept
  {
    if (shard.entries == num_slots(shard)) {
      return false;
    }
    const std::size_t home = set_of(shard, h);
    for (std::size_t distance = 0; distance < probe_span(shard); ++distance) {
      const std::size_t set = (home + distance) % shard.sets.size();
      if (shard.sets[set].used < ways_of(shard, set)) {
        return true;
      }
    }
    return false;
  }

  /// Marks `way` most recently used: every way ranked before it ages by one.
  static void touch(SetLine& line, std::size_t way) noexcept
  {
    const std::uint8_t old_rank = line.rank[way];
    for (std::size_t w = 0; w < line.used; ++w) {
      line.rank[w] = static_cast<std::uint8_t>(line.rank[w] + (line.rank[w] < old_rank ? 1 : 0));
    }
    line.rank[way] = 0;
  }

  void write(Shard& shard, Slot slot, std::uint64_t h, std::span<const std::uint64_t> key,
             const Value& value, std::span<const std::uint64_t> payload) const
  {
    std::uint64_t* record = record_at(shard, slot);
    std::copy_n(key.data(), key_words_, record);
    std::copy_n(payload.data(), payload_words_, record + key_words_);
    std::memcpy(record + key_words_ + payload_words_, &value, sizeof(Value));
    SetLine& line = shard.sets[slot.set];
    line.tags[slot.way] = tag_of(h);
    touch(line, slot.way);
  }

  /// Places a key that is not in the shard: the first free way of its
  /// home set or the sets after it, else its home set's least recently used
  /// way.
  void insert(Shard& shard, std::uint64_t h, std::span<const std::uint64_t> key,
              const Value& value, std::span<const std::uint64_t> payload) const
  {
    const std::size_t home = set_of(shard, h);
    for (std::size_t distance = 0; distance < probe_span(shard); ++distance) {
      const std::size_t set = (home + distance) % shard.sets.size();
      SetLine& line = shard.sets[set];
      if (line.used < ways_of(shard, set)) {
        const std::size_t way = line.used++;
        line.rank[way] = static_cast<std::uint8_t>(way);  // oldest until touched
        line.offset[way] = static_cast<std::uint8_t>(distance);
        shard.sets[home].spilled = static_cast<std::uint8_t>(shard.sets[home].spilled +
                                                             (distance > 0 ? 1 : 0));
        ++shard.entries;
        write(shard, Slot{set, way}, h, key, value, payload);
        return;
      }
    }
    SetLine& line = shard.sets[home];
    const auto way = static_cast<std::size_t>(
        std::max_element(line.rank.begin(), line.rank.begin() + line.used) - line.rank.begin());
    if (line.offset[way] != 0) {
      // The victim had spilled here from an earlier home set.
      const std::size_t n = shard.sets.size();
      --shard.sets[(home + n - line.offset[way]) % n].spilled;
      line.offset[way] = 0;
    }
    ++shard.evictions;
    write(shard, Slot{home, way}, h, key, value, payload);
  }

  /// Doubles the shard's set count (capped at final_sets) and re-inserts
  /// every entry, oldest first, so each set keeps its recency order. A
  /// doubling splits each set in two; only the final step can crowd a set,
  /// and re-insertion then keeps its most recent entries.
  void grow(Shard& shard) const
  {
    std::vector<SetLine> old_sets = std::move(shard.sets);
    std::vector<std::uint64_t> old_records = std::move(shard.records);
    const std::size_t old_base = shard.base_ways;
    const std::size_t old_extra = shard.extra;
    allocate(shard, std::min(2 * old_sets.size(), shard.final_sets));
    for (std::size_t set = 0; set < old_sets.size(); ++set) {
      const SetLine& line = old_sets[set];
      const std::uint64_t* base =
          old_records.data() + (set * old_base + std::min(set, old_extra)) * record_words_;
      for (std::size_t age = line.used; age-- > 0;) {
        const std::size_t way = static_cast<std::size_t>(
            std::find(line.rank.begin(), line.rank.begin() + line.used, age) - line.rank.begin());
        const std::uint64_t* record = base + way * record_words_;
        const std::span<const std::uint64_t> key{record, key_words_};
        Value value;
        std::memcpy(static_cast<void*>(&value), record + key_words_ + payload_words_,
                    sizeof(Value));
        insert(shard, hash_words(key), key, value, {record + key_words_, payload_words_});
      }
    }
  }

  std::size_t key_words_;
  std::size_t payload_words_;
  std::size_t record_words_;
  std::size_t capacity_;
  std::size_t num_shards_;
  std::unique_ptr<Shard[]> shards_;
};

}  // namespace facet
