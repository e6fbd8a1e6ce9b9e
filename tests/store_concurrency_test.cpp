/// Concurrent hammering of the segmented store: many threads driving
/// lookup() / probe_cache() / find_canonical() against stores with live
/// delta segments and against lazily-validated mmap bases — and, since the
/// store gained its internal gate (gate.hpp), mutators running
/// *concurrently* with those readers: appends, flushes,
/// compact() swaps, and racing appenders that must agree on one id per
/// class. Runs under the ASan/UBSan and TSan CI jobs, so data races on the
/// lazy page flags, the sharded cache, the memtable or the snapshot swap
/// surface as sanitizer failures, and every id mismatch is counted.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/segment.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {
namespace {

struct Workload {
  /// Full lookups (canonicalize + tiers + cache) and their expected ids.
  std::vector<TruthTable> queries;
  std::vector<std::uint32_t> expected_ids;
  /// Direct canonical keys (find_canonical, no canonicalization) and their
  /// expected ids — the cheap probes that hammer the page-validation flags.
  std::vector<TruthTable> canon_keys;
  std::vector<std::uint32_t> canon_ids;
};

/// Expected ids are computed single-threaded up front; the hammer only
/// compares.
Workload make_workload(ClassStore& store, std::span<const TruthTable> lookup_funcs,
                       std::span<const StoreRecord> all_records, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  Workload w;
  for (const auto& f : lookup_funcs) {
    w.queries.push_back(f);
    w.queries.push_back(apply_transform(f, NpnTransform::random(f.num_vars(), rng)));
  }
  std::shuffle(w.queries.begin(), w.queries.end(), rng);
  for (const auto& q : w.queries) {
    const auto result = store.lookup(q);
    EXPECT_TRUE(result.has_value());
    w.expected_ids.push_back(result.has_value() ? result->class_id : 0xffffffffU);
  }
  for (const auto& record : all_records) {
    w.canon_keys.push_back(record.canonical);
    w.canon_ids.push_back(record.class_id);
  }
  store.clear_hot_cache();
  return w;
}

/// Hammers `store` from `num_threads` readers; returns the mismatch count.
/// Every thread interleaves cheap canonical probes (racing the lazy page
/// flags across the whole base) with full lookups (racing the sharded
/// cache and the canonicalize-then-search path).
std::size_t hammer(const ClassStore& store, const Workload& w, std::size_t num_threads,
                   std::size_t rounds)
{
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < rounds; ++round) {
        // Each thread walks the keys from its own offset so validations of
        // the same page collide across threads.
        for (std::size_t k = 0; k < w.canon_keys.size(); ++k) {
          const std::size_t i = (k + t * 29 + round * 41) % w.canon_keys.size();
          const auto record = store.find_canonical(w.canon_keys[i]);
          if (!record.has_value() || record->class_id != w.canon_ids[i]) {
            ++mismatches;
          }
        }
        for (std::size_t k = 0; k < w.queries.size(); ++k) {
          const std::size_t i = (k + t * 17 + round * 31) % w.queries.size();
          if (const auto cached = store.probe_cache(w.queries[i])) {
            if (cached->class_id != w.expected_ids[i]) {
              ++mismatches;
            }
            continue;
          }
          const auto result = store.lookup(w.queries[i]);
          if (!result.has_value() || result->class_id != w.expected_ids[i]) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  return mismatches.load();
}

/// Appends `count` genuinely-new classes, sealing two delta runs along the
/// way and leaving the tail in the memtable.
std::vector<TruthTable> grow_deltas(ClassStore& store, std::size_t count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> appended;
  while (appended.size() < count) {
    const TruthTable f = tt_random(store.num_vars(), rng);
    if (!store.lookup(f).has_value()) {
      (void)store.lookup_or_classify(f, /*append_on_miss=*/true);
      appended.push_back(f);
      if (appended.size() == count / 3 || appended.size() == (2 * count) / 3) {
        std::ostringstream frame;
        (void)store.flush_delta(frame);
      }
    }
  }
  return appended;
}

TEST(StoreConcurrency, ReadersAgainstLiveDeltaSegments)
{
  const int n = 5;
  std::mt19937_64 rng{0xc0c0ULL};
  std::vector<TruthTable> base_funcs;
  for (int i = 0; i < 40; ++i) {
    base_funcs.push_back(tt_random(n, rng));
  }
  ClassStoreOptions options;
  options.hot_cache_capacity = 64;  // small: force constant insert/evict churn
  options.hot_cache_shards = 4;
  StoreBuildOptions build_options;
  build_options.store = options;
  ClassStore store = build_class_store(base_funcs, build_options);

  const auto appended = grow_deltas(store, 12, 0xc0c1ULL);
  EXPECT_EQ(store.num_delta_segments(), 2u);
  EXPECT_GT(store.num_appended(), 0u) << "memtable must stay live during the hammer";

  // Lookups cover base members and appended classes; canonical probes cover
  // every persisted record (base + deltas + memtable).
  std::vector<TruthTable> lookup_funcs{base_funcs.begin(), base_funcs.begin() + 20};
  lookup_funcs.insert(lookup_funcs.end(), appended.begin(), appended.end());
  const std::vector<StoreRecord> all_records = store.persisted_records();
  const Workload w = make_workload(store, lookup_funcs, all_records, 0xc0c2ULL);
  EXPECT_EQ(hammer(store, w, 8, 3), 0u);
}

TEST(StoreConcurrency, ReadersAgainstLazyMmapBase)
{
  if (!mmap_supported()) {
    GTEST_SKIP() << "no mmap on this platform";
  }
  // A multi-page n=6 base so concurrent readers race on the lazy page
  // validation flags themselves. Most hammer traffic is find_canonical —
  // no canonicalization, pure segment reads — so the test stays fast under
  // sanitizers while still striding every page from every thread.
  const int n = 6;
  std::mt19937_64 rng{0xc0c3ULL};
  std::vector<TruthTable> base_funcs;
  for (int i = 0; i < 260; ++i) {
    base_funcs.push_back(tt_random(n, rng));
  }
  const std::string path = ::testing::TempDir() + "store_concurrency_mmap.fcs";
  const ClassStore built = build_class_store(base_funcs, {});
  built.save(path);
  const std::vector<StoreRecord> all_records = built.records();
  ASSERT_GT(all_records.size() * store_record_words(n) * 8, 2 * kStorePageBytes);

  StoreOpenOptions open_options;
  open_options.use_mmap = true;
  open_options.store.hot_cache_capacity = 64;
  ClassStore store = ClassStore::open(path, open_options);
  const auto* segment = dynamic_cast<const MmapSegment*>(&store.base_segment());
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->pages_validated(), 0u);

  // A handful of full lookups keeps the canonicalize + cache path in the
  // race without dominating the runtime.
  const std::vector<TruthTable> lookup_funcs{base_funcs.begin(), base_funcs.begin() + 12};
  Workload w;
  std::mt19937_64 probe_rng{0xc0c4ULL};
  for (const auto& f : lookup_funcs) {
    w.queries.push_back(f);
    w.queries.push_back(apply_transform(f, NpnTransform::random(n, probe_rng)));
  }
  for (const auto& record : all_records) {
    w.canon_keys.push_back(record.canonical);
    w.canon_ids.push_back(record.class_id);
  }
  for (const auto& q : w.queries) {
    const auto expected = built.lookup(q);
    ASSERT_TRUE(expected.has_value());
    w.expected_ids.push_back(expected->class_id);
  }

  EXPECT_EQ(hammer(store, w, 8, 3), 0u);
  // Every record was probed, so every page must have been validated —
  // concurrently, exactly once each in effect.
  EXPECT_EQ(segment->pages_validated(), segment->num_pages());
  std::remove(path.c_str());
}

/// The tentpole contract of the store gate: readers keep resolving known
/// classes bit-identically while a writer thread appends novel classes,
/// seals delta runs, and swaps compacted bases through compact() — whose
/// opening flush and final swap are the only gated steps — with NO external
/// lock anywhere.
TEST(StoreConcurrency, ReadersStayBitIdenticalWhileAWriterAppendsFlushesAndCompacts)
{
  const int n = 5;
  std::mt19937_64 rng{0xc0d0ULL};
  std::vector<TruthTable> base_funcs;
  for (int i = 0; i < 30; ++i) {
    base_funcs.push_back(tt_random(n, rng));
  }
  const std::string path = ::testing::TempDir() + "store_concurrency_gate.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(base_funcs, {}).save(path);
  std::remove(dlog.c_str());

  ClassStoreOptions options;
  options.hot_cache_capacity = 64;  // churn the cache alongside the tiers
  StoreOpenOptions open_options;
  open_options.store = options;
  ClassStore store = ClassStore::open(path, open_options);

  // Reader workload over the base classes only — their ids must never waver
  // no matter what the writer publishes.
  const std::vector<TruthTable> lookup_funcs{base_funcs.begin(), base_funcs.end()};
  const std::vector<StoreRecord> all_records = store.persisted_records();
  const Workload w = make_workload(store, lookup_funcs, all_records, 0xc0d1ULL);

  std::atomic<bool> stop_readers{false};
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      while (!stop_readers.load()) {
        for (std::size_t k = 0; k < w.queries.size(); ++k) {
          const std::size_t i = (k + t * 17) % w.queries.size();
          const auto result = store.lookup(w.queries[i]);
          if (!result.has_value() || result->class_id != w.expected_ids[i]) {
            ++mismatches;
          }
        }
        for (std::size_t k = 0; k < w.canon_keys.size(); ++k) {
          const std::size_t i = (k + t * 29) % w.canon_keys.size();
          const auto id = store.find_class_id(w.canon_keys[i]);
          if (!id.has_value() || *id != w.canon_ids[i]) {
            ++mismatches;
          }
        }
      }
    });
  }

  // The writer: rounds of append -> compaction (which flushes first), all
  // while the readers run. Every call is a plain store method.
  std::mt19937_64 writer_rng{0xc0d2ULL};
  std::vector<std::pair<TruthTable, std::uint32_t>> appended;
  for (int round = 0; round < 3; ++round) {
    for (int a = 0; a < 4; ++a) {
      TruthTable f{n};
      do {
        f = tt_random(n, writer_rng);
      } while (store.lookup(f).has_value());
      const StoreLookupResult result = store.lookup_or_classify(f, /*append_on_miss=*/true);
      appended.emplace_back(f, result.class_id);
    }
    ASSERT_EQ(store.num_appended(), 4u);
    store.compact(path);
    ASSERT_EQ(store.num_appended(), 0u);
  }

  stop_readers.store(true);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(mismatches.load(), 0u) << "readers diverged during concurrent mutations";
  EXPECT_EQ(store.num_compactions(), 3u);
  EXPECT_EQ(store.num_delta_segments(), 0u);

  // Every append kept its id, live and after a cold reopen of the swapped
  // files.
  ClassStore reopened = ClassStore::open(path, open_options);
  for (const auto& [f, id] : appended) {
    const auto live = store.lookup(f);
    const auto durable = reopened.lookup(f);
    ASSERT_TRUE(live.has_value());
    ASSERT_TRUE(durable.has_value());
    EXPECT_EQ(live->class_id, id);
    EXPECT_EQ(durable->class_id, id);
  }
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

/// Racing appenders on the SAME novel classes: the gate's re-probe must
/// collapse every race to one id and one appended record per class.
TEST(StoreConcurrency, RacingAppendersAgreeOnOneIdPerClass)
{
  const int n = 5;
  ClassStore store{n};
  std::mt19937_64 rng{0xc0d3ULL};
  std::vector<TruthTable> novel;
  for (int i = 0; i < 24; ++i) {
    novel.push_back(tt_random(n, rng));
  }

  const std::size_t num_threads = 8;
  std::vector<std::vector<std::uint32_t>> seen(num_threads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].assign(novel.size(), 0xffffffffU);
      for (std::size_t i = 0; i < novel.size(); ++i) {
        // Offset walks so threads collide on different functions at once.
        const std::size_t k = (i + t * 7) % novel.size();
        const auto result = store.lookup_or_classify(novel[k], /*append_on_miss=*/true);
        seen[t][k] = result.class_id;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }

  // All threads observed the same id per function...
  for (std::size_t i = 0; i < novel.size(); ++i) {
    for (std::size_t t = 1; t < num_threads; ++t) {
      EXPECT_EQ(seen[t][i], seen[0][i]) << "thread " << t << " diverged on function " << i;
    }
  }
  // ...and every class was appended exactly once (distinct functions may
  // share an NPN class, so count unique canonical forms, not functions).
  const std::vector<StoreRecord> records = store.persisted_records();
  EXPECT_EQ(records.size(), store.num_classes());
  EXPECT_EQ(store.num_appended(), records.size());
  for (const auto& f : novel) {
    EXPECT_TRUE(store.lookup(f).has_value());
  }
}

/// The same race on a file-backed store while one more thread flushes the
/// memtable into the delta log and compacts, over and over: by the time a
/// losing appender holds the gate, the winner's record has often left the
/// memtable for a delta run or the base, so the gated re-probe must find
/// it in every index tier. One id per class across threads, one record
/// per class, and a reopened store serves every appended class under that
/// id.
TEST(StoreConcurrency, RacingAppendersAgreeOnOneIdPerClassWhileFlushesAndCompactionsMoveTheEpoch)
{
  const int n = 5;
  const std::string path = ::testing::TempDir() + "store_concurrency_reprobe.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  ClassStore{n}.save(path);
  ClassStore store = ClassStore::open(path);

  std::mt19937_64 rng{0xc0d5ULL};
  std::vector<TruthTable> novel;
  for (int i = 0; i < 200; ++i) {
    const TruthTable f = tt_random(n, rng);
    novel.push_back(f);
    // An image of the same class through another table, so threads also
    // race on one class through distinct queries.
    novel.push_back(apply_transform(f, NpnTransform::random(n, rng)));
  }

  std::atomic<bool> appenders_done{false};
  std::size_t compactions = 0;
  std::thread mover{[&] {
    while (!appenders_done.load()) {
      (void)store.flush_delta(dlog);
      std::this_thread::yield();
      store.compact(path);
      ++compactions;
    }
  }};

  const std::size_t num_threads = 6;
  std::vector<std::vector<std::uint32_t>> seen(num_threads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].assign(novel.size(), 0xffffffffU);
      // Every thread walks the same order, so all of them race on each
      // class at once and the losers re-probe under the gate.
      for (std::size_t k = 0; k < novel.size(); ++k) {
        seen[t][k] = store.lookup_or_classify(novel[k], /*append_on_miss=*/true).class_id;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  appenders_done.store(true);
  mover.join();
  EXPECT_GT(compactions, 0u);

  // One id per function across threads, and one per class: a function and
  // its image share it.
  for (std::size_t i = 0; i < novel.size(); ++i) {
    for (std::size_t t = 1; t < num_threads; ++t) {
      EXPECT_EQ(seen[t][i], seen[0][i]) << "thread " << t << " diverged on function " << i;
    }
  }
  for (std::size_t i = 0; i < novel.size(); i += 2) {
    EXPECT_EQ(seen[0][i], seen[0][i + 1]) << "function " << i << " and its image diverged";
  }
  // One record per class, wherever it ended up (memtable, runs, base).
  EXPECT_EQ(store.persisted_records().size(), store.num_classes());

  // Durable: flush what is left, reopen, and every class answers its id.
  (void)store.flush_delta(dlog);
  const ClassStore reopened = ClassStore::open(path);
  EXPECT_EQ(reopened.num_classes(), store.num_classes());
  for (std::size_t i = 0; i < novel.size(); ++i) {
    const auto durable = reopened.lookup(novel[i]);
    ASSERT_TRUE(durable.has_value()) << "function " << i << " lost on reopen";
    EXPECT_EQ(durable->class_id, seen[0][i]);
  }
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

/// A function g != f with the same semiclass image as f (bounded search
/// over random transforms; f itself if none turns up).
TruthTable same_image_sibling(const TruthTable& f, std::mt19937_64& rng)
{
  const TruthTable image = semiclass_form(f).image;
  for (int attempt = 0; attempt < 4096; ++attempt) {
    TruthTable g = apply_transform(f, NpnTransform::random(f.num_vars(), rng));
    if (g != f && semiclass_form(g).image == image) {
      return g;
    }
  }
  return f;
}

/// Racing appenders pushing NPN *images* of shared classes. The seeded
/// classes were appended and index-resolved through one image before the
/// race, so their queries sharing that semiclass image resolve through the
/// memo; the novel classes are appended by the race itself, with other
/// threads resolving (and memoizing) their images meanwhile. Every thread
/// must observe one id per class, and memoized answers must be
/// bit-identical to the gate's.
TEST(StoreConcurrency, RacingAppendersThroughTheMemoAgreeOnOneIdPerClass)
{
  const int n = 5;
  ClassStoreOptions options;
  // No hot cache: repeats must reach the memo rather than stop above it.
  options.hot_cache_capacity = 0;
  ClassStore store{n, options};
  std::mt19937_64 rng{0x3e3e0ULL};
  const std::size_t num_seeded = 12;
  const std::size_t num_bases = 18;
  const std::size_t images_per_base = 6;
  std::vector<TruthTable> bases;
  for (std::size_t b = 0; b < num_bases; ++b) {
    bases.push_back(tt_random(n, rng));
  }
  // queries[b][j]: image j of base b; image 0 is the base itself, image 1
  // the seeded image of a seeded class, images 2-3 share its semiclass
  // image, and the rest are random images.
  std::vector<std::vector<TruthTable>> queries(num_bases);
  for (std::size_t b = 0; b < num_bases; ++b) {
    queries[b].push_back(bases[b]);
    queries[b].push_back(apply_transform(bases[b], NpnTransform::random(n, rng)));
    queries[b].push_back(same_image_sibling(queries[b][1], rng));
    queries[b].push_back(same_image_sibling(queries[b][1], rng));
    while (queries[b].size() < images_per_base) {
      queries[b].push_back(apply_transform(bases[b], NpnTransform::random(n, rng)));
    }
  }
  for (std::size_t b = 0; b < num_seeded; ++b) {
    ASSERT_NE(queries[b][2], queries[b][1]) << "no same-image sibling for base " << b;
    (void)store.lookup_or_classify(bases[b], /*append_on_miss=*/true);
    const auto seeded = store.lookup_or_classify(queries[b][1], /*append_on_miss=*/true);
    ASSERT_EQ(seeded.source, LookupSource::kIndex);
  }
  ASSERT_EQ(store.num_memo_hits(), 0u);

  const std::size_t num_threads = 8;
  std::vector<std::vector<std::uint32_t>> seen(num_threads);
  std::atomic<std::uint64_t> witness_failures{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      seen[t].assign(num_bases, 0xffffffffU);
      for (std::size_t i = 0; i < num_bases * images_per_base; ++i) {
        // Offset walks so threads collide on different classes at once, and
        // vary the image per thread so one class is queried through
        // distinct tables concurrently.
        const std::size_t b = (i + t * 5) % num_bases;
        const std::size_t j = (i / num_bases + t) % images_per_base;
        const auto result =
            store.lookup_or_classify(queries[b][j], /*append_on_miss=*/true);
        if (apply_transform(queries[b][j], result.to_representative) !=
            result.representative) {
          witness_failures.fetch_add(1, std::memory_order_relaxed);
        }
        // All images of base b share one class: ids must never diverge
        // within a thread either.
        if (seen[t][b] != 0xffffffffU && seen[t][b] != result.class_id) {
          witness_failures.fetch_add(1, std::memory_order_relaxed);
        }
        seen[t][b] = result.class_id;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(witness_failures.load(), 0u);
  EXPECT_GT(store.num_memo_hits(), 0u);

  // Every thread agreed on the id of every class...
  for (std::size_t b = 0; b < num_bases; ++b) {
    for (std::size_t t = 1; t < num_threads; ++t) {
      EXPECT_EQ(seen[t][b], seen[0][b]) << "thread " << t << " diverged on base " << b;
    }
  }
  // ...ids match a fresh single-threaded canonical grouping (distinct bases
  // may coincidentally share an NPN class, so group by canonical form)...
  std::vector<TruthTable> canonicals;
  for (const auto& base : bases) {
    canonicals.push_back(exact_npn_canonical(base));
  }
  for (std::size_t a = 0; a < num_bases; ++a) {
    for (std::size_t b = a + 1; b < num_bases; ++b) {
      if (canonicals[a] == canonicals[b]) {
        EXPECT_EQ(seen[0][a], seen[0][b]);
      } else {
        EXPECT_NE(seen[0][a], seen[0][b]);
      }
    }
  }
  // ...and exactly one record was appended per class.
  const std::vector<StoreRecord> records = store.persisted_records();
  EXPECT_EQ(records.size(), store.num_classes());
  EXPECT_EQ(store.num_appended(), records.size());
  // Post-hoc lookups of every image resolve to the same ids.
  for (std::size_t b = 0; b < num_bases; ++b) {
    for (const auto& q : queries[b]) {
      const auto result = store.lookup(q);
      ASSERT_TRUE(result.has_value());
      EXPECT_TRUE(result->known);
      EXPECT_EQ(result->class_id, seen[0][b]);
    }
  }
}

}  // namespace
}  // namespace facet
