/// Tests of the persistent NPN class store: build / save / load round-trips
/// against live classify_batch classification on randomized datasets, corrupted
/// and version-mismatched file rejection, the hot cache, the live fallback
/// tier, and compaction.

#include "facet/store/class_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/npn/transform.hpp"
#include "facet/obs/registry.hpp"
#include "facet/store/segment.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/store/store_format.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {
namespace {

/// A dataset with deliberately multi-member classes: random base functions
/// plus random NPN images of them, shuffled.
std::vector<TruthTable> make_npn_workload(int n, std::size_t bases, std::size_t images_per_base,
                                          std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t b = 0; b < bases; ++b) {
    const TruthTable base = tt_random(n, rng);
    funcs.push_back(base);
    for (std::size_t k = 0; k < images_per_base; ++k) {
      funcs.push_back(apply_transform(base, NpnTransform::random(n, rng)));
    }
  }
  std::shuffle(funcs.begin(), funcs.end(), rng);
  return funcs;
}

/// A function g != f with the same semiclass image as f: an NPN image the
/// image-keyed memo answers once f's image is memoized. Bounded search over
/// random transforms; nullopt if none turns up.
std::optional<TruthTable> same_image_sibling(const TruthTable& f, std::mt19937_64& rng)
{
  const TruthTable image = semiclass_form(f).image;
  for (int attempt = 0; attempt < 4096; ++attempt) {
    TruthTable g = apply_transform(f, NpnTransform::random(f.num_vars(), rng));
    if (g != f && semiclass_form(g).image == image) {
      return g;
    }
  }
  return std::nullopt;
}

/// The bytes save() writes: every persisted record as one base segment.
std::string serialize(const ClassStore& store)
{
  std::ostringstream os;
  write_base_segment(os, store.num_vars(), store.num_classes(),
                     encode_records(store.persisted_records()));
  return os.str();
}

/// Opens `bytes` as a store file through ClassStore::open, the reader that
/// serves real index files. The file (one per test, so parallel test
/// processes never share it) is removed again before returning.
ClassStore deserialize(const std::string& bytes)
{
  const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string{test->test_suite_name()} + "_" + test->name();
  std::replace(name.begin(), name.end(), '/', '_');
  const std::string path = ::testing::TempDir() + "deserialize_" + name + ".fcs";
  std::remove(ClassStore::delta_log_path(path).c_str());
  {
    std::ofstream os{path, std::ios::binary | std::ios::trunc};
    os << bytes;
  }
  try {
    ClassStore store = ClassStore::open(path);
    std::remove(path.c_str());
    return store;
  } catch (...) {
    std::remove(path.c_str());
    throw;
  }
}

class StoreRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(StoreRoundTrip, BuildMatchesBatchEngineAndTransformsWitness)
{
  const int n = GetParam();
  const auto funcs = make_npn_workload(n, 40, 4, 0x51ULL + static_cast<unsigned>(n));

  StoreBuildOptions build_options;
  build_options.num_threads = 2;
  // The registry is process-global: read the build's searches as a delta.
  const obs::LatencyHistogram& bb = obs::MetricRegistry::global().histogram(
      "facet_canonicalize_latency", obs::label("path", "bb"));
  const std::uint64_t bb_before = bb.snapshot().count();
  ClassStore store = build_class_store(funcs, build_options);
  const std::uint64_t bb_runs = bb.snapshot().count() - bb_before;

  const ClassificationResult expected = classify_exhaustive(funcs);
  EXPECT_EQ(store.num_classes(), expected.num_classes);
  EXPECT_EQ(store.num_records(), expected.num_classes);
  if (n > 4) {
    // One branch-and-bound per distinct semiclass image: the record's
    // witness comes from the classifying search, not a second one.
    std::set<TruthTable> images;
    for (const auto& f : funcs) {
      images.insert(semiclass_form(f).image);
    }
    EXPECT_EQ(bb_runs, images.size());
  }

  const auto sizes = expected.class_sizes();
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto result = store.lookup(funcs[i]);
    ASSERT_TRUE(result.has_value()) << "function " << i << " must be known";
    EXPECT_TRUE(result->known);
    // Identical class-id mapping as the live engine, and a sound witness.
    EXPECT_EQ(result->class_id, expected.class_of[i]);
    EXPECT_EQ(apply_transform(funcs[i], result->to_representative), result->representative);
  }
  for (const auto& record : store.persisted_records()) {
    EXPECT_EQ(apply_transform(record.representative, record.rep_to_canonical), record.canonical);
    EXPECT_EQ(exact_npn_canonical(record.representative), record.canonical);
    EXPECT_EQ(exact_npn_canonical_with_transform(record.representative).transform, record.rep_to_canonical);
    EXPECT_EQ(record.class_size, sizes[record.class_id]);
  }
}

TEST_P(StoreRoundTrip, SaveLoadPreservesEveryLookup)
{
  const int n = GetParam();
  const auto funcs = make_npn_workload(n, 30, 3, 0x91ULL + static_cast<unsigned>(n));
  const ClassStore built = build_class_store(funcs, {});
  ClassStore loaded = deserialize(serialize(built));

  EXPECT_EQ(loaded.num_vars(), built.num_vars());
  EXPECT_EQ(loaded.num_classes(), built.num_classes());
  ASSERT_EQ(loaded.num_records(), built.num_records());
  const std::vector<StoreRecord> built_records = built.persisted_records();
  const std::vector<StoreRecord> loaded_records = loaded.persisted_records();
  for (std::size_t r = 0; r < built_records.size(); ++r) {
    const StoreRecord& a = built_records[r];
    const StoreRecord& b = loaded_records[r];
    EXPECT_EQ(a.canonical, b.canonical);
    EXPECT_EQ(a.representative, b.representative);
    EXPECT_EQ(a.rep_to_canonical, b.rep_to_canonical);
    EXPECT_EQ(a.class_id, b.class_id);
    EXPECT_EQ(a.class_size, b.class_size);
  }
  for (const auto& f : funcs) {
    const auto before = built.lookup(f);
    const auto after = loaded.lookup(f);
    ASSERT_TRUE(before.has_value());
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(before->class_id, after->class_id);
    EXPECT_EQ(before->representative, after->representative);
    EXPECT_EQ(apply_transform(f, after->to_representative), after->representative);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths3To6, StoreRoundTrip, ::testing::Range(3, 7));

TEST(ClassStore, FileRoundTripThroughDisk)
{
  const auto funcs = make_npn_workload(4, 25, 3, 0xd15cULL);
  const ClassStore built = build_class_store(funcs, {});
  const std::string path = ::testing::TempDir() + "class_store_test_roundtrip.fcs";
  built.save(path);
  const ClassStore loaded = ClassStore::open(path);
  EXPECT_EQ(loaded.num_records(), built.num_records());
  for (const auto& f : funcs) {
    const auto result = loaded.lookup(f);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(apply_transform(f, result->to_representative), result->representative);
  }
  std::remove(path.c_str());
}

TEST(ClassStore, LiveFallbackMatchesSequentialClassifierOnEmptyStore)
{
  // A store that starts empty and learns every class through the live tier
  // must reproduce the sequential classifier's ids exactly.
  const int n = 4;
  const auto funcs = make_npn_workload(n, 30, 3, 0xf00dULL);
  const ClassificationResult expected = classify_exhaustive(funcs);

  ClassStore store{n};
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const StoreLookupResult result = store.lookup_or_classify(funcs[i]);
    EXPECT_EQ(result.class_id, expected.class_of[i]) << "function " << i;
    EXPECT_EQ(apply_transform(funcs[i], result.to_representative), result.representative);
  }
  EXPECT_EQ(store.num_classes(), expected.num_classes);
  // Nothing was appended, so nothing persists.
  EXPECT_EQ(store.num_records(), 0u);
}

TEST(ClassStore, AppendOnMissPersistsAcrossSaveLoad)
{
  const int n = 4;
  std::mt19937_64 rng{0xabcdULL};
  const auto known = make_npn_workload(n, 10, 2, 0x7777ULL);
  ClassStore store = build_class_store(known, {});
  const auto base_classes = store.num_classes();

  // Collect a function whose class is genuinely absent from the store.
  TruthTable novel{n};
  for (;;) {
    novel = tt_random(n, rng);
    if (!store.lookup(novel).has_value()) {
      break;
    }
  }

  const StoreLookupResult miss = store.lookup_or_classify(novel, /*append_on_miss=*/true);
  EXPECT_FALSE(miss.known);
  EXPECT_EQ(miss.source, LookupSource::kLive);
  EXPECT_EQ(miss.class_id, base_classes);
  EXPECT_EQ(store.num_appended(), 1u);

  // An NPN-equivalent query now resolves from the store, same id.
  const TruthTable image = apply_transform(novel, NpnTransform::random(n, rng));
  const auto hit = store.lookup(image);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->known);
  EXPECT_EQ(hit->class_id, miss.class_id);
  EXPECT_EQ(apply_transform(image, hit->to_representative), hit->representative);

  // And it survives a save/load cycle.
  const ClassStore reloaded = deserialize(serialize(store));
  EXPECT_EQ(reloaded.num_records(), store.num_records());
  const auto persisted = reloaded.lookup(novel);
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(persisted->class_id, miss.class_id);
}

TEST(ClassStore, TransientMissIdsAreStableWithinSession)
{
  const int n = 4;
  std::mt19937_64 rng{0x1234ULL};
  ClassStore store{n};
  const TruthTable f = tt_random(n, rng);
  const TruthTable g = apply_transform(f, NpnTransform::random(n, rng));

  const auto first = store.lookup_or_classify(f);
  const auto second = store.lookup_or_classify(g);
  EXPECT_EQ(first.class_id, second.class_id);
  EXPECT_FALSE(second.known);
  // The first query of the class is its representative.
  EXPECT_EQ(second.representative, f);
  EXPECT_EQ(apply_transform(g, second.to_representative), f);
}

TEST(ClassStore, RejectsCorruptedTruncatedAndMismatchedFiles)
{
  const auto funcs = make_npn_workload(4, 15, 2, 0xbeefULL);
  const ClassStore built = build_class_store(funcs, {});
  const std::string good = serialize(built);

  // Baseline sanity: the pristine bytes load.
  EXPECT_NO_THROW(deserialize(good));

  // Flipped payload byte -> checksum mismatch.
  {
    std::string bad = good;
    bad[kStoreHeaderBytes + 5] = static_cast<char>(bad[kStoreHeaderBytes + 5] ^ 0x40);
    EXPECT_THROW(deserialize(bad), StoreFormatError);
  }
  // Truncated payload and truncated header.
  EXPECT_THROW(deserialize(good.substr(0, good.size() - 7)), StoreFormatError);
  EXPECT_THROW(deserialize(good.substr(0, kStoreHeaderBytes / 2)), StoreFormatError);
  // Trailing junk.
  EXPECT_THROW(deserialize(good + "x"), StoreFormatError);
  // Bad magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    EXPECT_THROW(deserialize(bad), StoreFormatError);
  }
  // Version mismatch (byte 8 is the low byte of the version field).
  {
    std::string bad = good;
    bad[8] = static_cast<char>(kStoreVersion + 1);
    try {
      deserialize(bad);
      FAIL() << "version mismatch must throw";
    } catch (const StoreFormatError& e) {
      EXPECT_NE(std::string{e.what()}.find("version"), std::string::npos);
    }
  }
  // Empty stream.
  EXPECT_THROW(deserialize(""), StoreFormatError);
}

TEST(ClassStore, HotCacheServesRepeatsAndEvicts)
{
  // Width 5: this test pins cache/memo/index tier attribution, which the
  // NPN4 table tier answers first at every width <= 4.
  const int n = 5;
  const auto funcs = make_npn_workload(n, 20, 2, 0xcafeULL);
  ClassStoreOptions options;
  options.hot_cache_capacity = 4;
  options.hot_cache_shards = 1;
  StoreBuildOptions build_options;
  build_options.store = options;
  ClassStore store = build_class_store(funcs, build_options);

  const auto cold = store.lookup(funcs[0]);
  ASSERT_TRUE(cold.has_value());
  EXPECT_EQ(cold->source, LookupSource::kIndex);
  const auto warm = store.lookup(funcs[0]);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->source, LookupSource::kHotCache);
  EXPECT_EQ(warm->class_id, cold->class_id);

  // Push 4 other distinct functions through the single-shard cache (cache
  // keys are exact tables, so distinctness guarantees 4 insertions):
  // funcs[0] evicts.
  std::vector<TruthTable> pushed;
  for (std::size_t i = 1; i < funcs.size() && pushed.size() < 4; ++i) {
    if (funcs[i] != funcs[0] &&
        std::find(pushed.begin(), pushed.end(), funcs[i]) == pushed.end()) {
      (void)store.lookup(funcs[i]);
      pushed.push_back(funcs[i]);
    }
  }
  ASSERT_EQ(pushed.size(), 4u);
  // Evicted from the hot cache — but the cold kIndex lookup memoized the
  // class, so the repeat resolves through the semiclass memo, one tier down.
  const auto evicted = store.lookup(funcs[0]);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->source, LookupSource::kMemo);
  EXPECT_EQ(evicted->class_id, cold->class_id);

  const HotCacheStats stats = store.hot_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 4u);

  store.clear_hot_cache();
  EXPECT_EQ(store.hot_cache_stats().entries, 0u);
}

TEST(ClassStore, FullHotCacheAdmitsOnlyRepeatedMemoHits)
{
  // Width 5, where the memo is a tier (width <= 4 is the table's). One
  // shard of kWays entries is one set, so every query shares its ghosts.
  const int n = 5;
  const std::size_t ways = SetAssociativeCache<int>::kWays;
  std::mt19937_64 rng{0xad317ULL};
  const auto funcs = make_npn_workload(n, 24, 0, 0xad31ULL);
  StoreBuildOptions build_options;
  build_options.num_threads = 1;
  build_options.store.hot_cache_capacity = ways;
  build_options.store.hot_cache_shards = 1;
  const ClassStore store = build_class_store(funcs, build_options);
  build_options.store.hot_cache_capacity = 0;
  const ClassStore twin = build_class_store(funcs, build_options);
  const auto expect_twin_id = [&twin](const TruthTable& q, const StoreLookupResult& result) {
    const auto expected = twin.lookup(q);
    ASSERT_TRUE(expected.has_value());
    EXPECT_EQ(result.class_id, expected->class_id);
  };

  // Index hits fill the cache (their puts are unconditional) and memoize
  // every member's semiclass image.
  for (const TruthTable& f : funcs) {
    const auto result = store.lookup(f);
    ASSERT_TRUE(result.has_value());
    expect_twin_id(f, *result);
  }
  ASSERT_EQ(store.hot_cache_stats().entries, ways);

  // Distinct NPN images sharing a member's semiclass image: memo hits the
  // full cache declines, so none of them evicts.
  std::vector<TruthTable> siblings;
  for (const TruthTable& f : funcs) {
    const std::optional<TruthTable> g = same_image_sibling(f, rng);
    if (g.has_value() && std::find(funcs.begin(), funcs.end(), *g) == funcs.end() &&
        std::find(siblings.begin(), siblings.end(), *g) == siblings.end()) {
      siblings.push_back(*g);
    }
  }
  ASSERT_GE(siblings.size(), 8u);
  const TruthTable repeat = siblings.back();
  siblings.pop_back();
  const HotCacheStats full = store.hot_cache_stats();
  for (const TruthTable& g : siblings) {
    const auto result = store.lookup(g);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->source, LookupSource::kMemo);
    expect_twin_id(g, *result);
  }
  EXPECT_EQ(store.hot_cache_stats().evictions, full.evictions);
  EXPECT_EQ(store.hot_cache_stats().insertions, full.insertions);

  // A repeated memo hit is declined, then admitted, then served by the cache.
  std::vector<LookupSource> sources;
  for (int k = 0; k < 3; ++k) {
    const auto result = store.lookup(repeat);
    ASSERT_TRUE(result.has_value());
    expect_twin_id(repeat, *result);
    sources.push_back(result->source);
  }
  EXPECT_EQ(sources, (std::vector<LookupSource>{LookupSource::kMemo, LookupSource::kMemo,
                                                LookupSource::kHotCache}));
  EXPECT_EQ(store.hot_cache_stats().evictions, full.evictions + 1);
}

TEST(ClassStore, SemiclassMemoServesEquivalentsWithoutRecanonicalizing)
{
  // Width 5: a width <= 4 store answers from the NPN4 table and never
  // reaches the memo and index tiers.
  const int n = 5;
  std::mt19937_64 rng{0x5e111ULL};
  const auto funcs = make_npn_workload(n, 20, 2, 0x5e11ULL);
  StoreBuildOptions build_options;
  // Disable the hot cache so tier attribution and the canonicalization
  // counter are observable without cache interference.
  build_options.store.hot_cache_capacity = 0;
  ClassStore store = build_class_store(funcs, build_options);

  const TruthTable f = funcs[0];
  const auto first = store.lookup(f);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->source, LookupSource::kIndex);
  EXPECT_EQ(store.num_canonicalizations(), 1u);
  EXPECT_EQ(store.num_memo_hits(), 0u);

  // A distinct NPN image of f sharing f's semiclass image must resolve
  // through the memo: same id, no second exact canonicalization.
  const std::optional<TruthTable> g = same_image_sibling(f, rng);
  ASSERT_TRUE(g.has_value());
  const auto second = store.lookup(*g);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->source, LookupSource::kMemo);
  EXPECT_TRUE(second->known);
  EXPECT_EQ(second->class_id, first->class_id);
  EXPECT_EQ(apply_transform(*g, second->to_representative), second->representative);
  EXPECT_EQ(store.num_canonicalizations(), 1u);
  EXPECT_EQ(store.num_memo_hits(), 1u);
  EXPECT_GE(store.memo_entries(), 1u);
}

TEST(ClassStore, MemoDisabledFallsBackToExactCanonicalization)
{
  const int n = 5;  // above the NPN4 table's widths
  std::mt19937_64 rng{0x0ffULL};
  const auto funcs = make_npn_workload(n, 20, 2, 0x5e11ULL);
  StoreBuildOptions build_options;
  build_options.store.hot_cache_capacity = 0;
  build_options.store.semiclass_memo_capacity = 0;
  ClassStore store = build_class_store(funcs, build_options);

  const TruthTable f = funcs[0];
  TruthTable g{n};
  do {
    g = apply_transform(f, NpnTransform::random(n, rng));
  } while (g == f);

  const auto first = store.lookup(f);
  const auto second = store.lookup(g);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->source, LookupSource::kIndex);
  EXPECT_EQ(second->source, LookupSource::kIndex);
  EXPECT_EQ(second->class_id, first->class_id);
  EXPECT_EQ(store.num_canonicalizations(), 2u);
  EXPECT_EQ(store.num_memo_hits(), 0u);
  EXPECT_EQ(store.memo_entries(), 0u);
}

TEST(ClassStore, TransientMissesAreNeverMemoized)
{
  // A non-appending miss reports known=false. If the memo learned it, a
  // later equivalent query would claim known=true for a class the store
  // never persisted — so transient misses must bypass the memo entirely.
  // Width 5, where the memo is a tier at all (width <= 4 is the table's).
  const int n = 5;
  std::mt19937_64 rng{0x404ULL};
  ClassStore store{n};
  const TruthTable f = tt_random(n, rng);
  TruthTable g{n};
  do {
    g = apply_transform(f, NpnTransform::random(n, rng));
  } while (g == f);

  const auto first = store.lookup_or_classify(f, /*append_on_miss=*/false);
  EXPECT_EQ(first.source, LookupSource::kLive);
  EXPECT_FALSE(first.known);
  const auto second = store.lookup_or_classify(g, /*append_on_miss=*/false);
  EXPECT_EQ(second.source, LookupSource::kLive);
  EXPECT_FALSE(second.known);
  EXPECT_EQ(second.class_id, first.class_id);
  EXPECT_EQ(store.num_memo_hits(), 0u);
  EXPECT_EQ(store.memo_entries(), 0u);
}

TEST(ClassStore, AppendsNeverFillTheMemo)
{
  // Width 5: at width <= 4 the appended class would be served from its
  // NPN4 table slot rather than the index and memo tiers this test observes.
  const int n = 5;
  std::mt19937_64 rng{0xadd5ULL};
  ClassStoreOptions options;
  options.hot_cache_capacity = 0;
  ClassStore store{n, options};
  const TruthTable f = tt_random(n, rng);
  TruthTable g{n};
  do {
    g = apply_transform(f, NpnTransform::random(n, rng));
  } while (g == f);

  const auto appended = store.lookup_or_classify(f, /*append_on_miss=*/true);
  EXPECT_EQ(appended.source, LookupSource::kLive);
  EXPECT_FALSE(appended.known);
  EXPECT_EQ(store.memo_entries(), 0u);
  // The memo is empty, so the equivalent g canonicalizes and finds the
  // appended record in the index — which memoizes g's semiclass image.
  const auto indexed = store.lookup_or_classify(g, /*append_on_miss=*/true);
  EXPECT_EQ(indexed.source, LookupSource::kIndex);
  EXPECT_TRUE(indexed.known);
  EXPECT_EQ(indexed.class_id, appended.class_id);
  EXPECT_EQ(store.memo_entries(), 1u);
  // A g' sharing g's image is then served by the memo.
  const std::optional<TruthTable> g2 = same_image_sibling(g, rng);
  ASSERT_TRUE(g2.has_value());
  const auto served = store.lookup_or_classify(*g2, /*append_on_miss=*/true);
  EXPECT_EQ(served.source, LookupSource::kMemo);
  EXPECT_TRUE(served.known);
  EXPECT_EQ(served.class_id, appended.class_id);
  EXPECT_EQ(apply_transform(*g2, served.to_representative), served.representative);
  EXPECT_EQ(store.num_memo_hits(), 1u);
  EXPECT_EQ(store.num_appended(), 1u);
}

TEST(ClassStore, MemoAssistedLearningMatchesSequentialClassifier)
{
  // An empty store learning a multi-image workload through the append path
  // must assign exactly the sequential classifier's ids even when most
  // queries short-circuit through the memo.
  const int n = 5;
  const auto funcs = make_npn_workload(n, 25, 5, 0x1eaf7ULL);
  const ClassificationResult expected = classify_exhaustive(funcs);

  ClassStoreOptions options;
  options.hot_cache_capacity = 0;
  ClassStore store{n, options};
  // A memo-less twin learns the same workload through canonicalization
  // alone, to the same ids.
  options.semiclass_memo_capacity = 0;
  ClassStore twin{n, options};
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto result = store.lookup_or_classify(funcs[i], /*append_on_miss=*/true);
    EXPECT_EQ(result.class_id, expected.class_of[i]) << "function " << i;
    EXPECT_EQ(apply_transform(funcs[i], result.to_representative), result.representative);
    EXPECT_EQ(twin.lookup_or_classify(funcs[i], /*append_on_miss=*/true).class_id,
              expected.class_of[i])
        << "function " << i << ", memo off";
  }
  EXPECT_EQ(store.num_classes(), expected.num_classes);
  EXPECT_EQ(twin.num_classes(), expected.num_classes);
  EXPECT_EQ(twin.num_memo_hits(), 0u);
  EXPECT_EQ(store.num_appended(), expected.num_classes);
  // Every image beyond the first of each class can be served by the memo,
  // so at most one exact canonicalization per class is unavoidable; with
  // 5 images per base the memo must have absorbed a large share.
  EXPECT_GT(store.num_memo_hits(), 0u);
  EXPECT_LT(store.num_canonicalizations(), funcs.size());
}

TEST(ClassStore, MemoHitsAreExact)
{
  // Property: every memo answer is exact by construction. Random NPN
  // images of a store's members resolve, through the memo where their
  // semiclass image was seen before, to a witnessed representative with
  // the id a memo-less twin store assigns.
  for (const int n : {5, 6, 7}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::mt19937_64 rng{0xe4ac7ULL + static_cast<std::uint64_t>(n)};
    const auto funcs = make_npn_workload(n, 24, 3, 0x3e3aULL + static_cast<std::uint64_t>(n));
    StoreBuildOptions build_options;
    build_options.num_threads = 1;
    // No hot cache: repeats must reach the memo, not short-circuit above it.
    build_options.store.hot_cache_capacity = 0;
    const ClassStore store = build_class_store(funcs, build_options);
    build_options.store.semiclass_memo_capacity = 0;
    const ClassStore twin = build_class_store(funcs, build_options);

    std::size_t memo_answers = 0;
    std::size_t walk_checks = 0;
    for (int round = 0; round < 4; ++round) {
      for (const auto& member : funcs) {
        const TruthTable q = apply_transform(member, NpnTransform::random(n, rng));
        const auto result = store.lookup(q);
        const auto expected = twin.lookup(q);
        ASSERT_TRUE(result.has_value());
        ASSERT_TRUE(expected.has_value());
        EXPECT_EQ(result->class_id, expected->class_id);
        if (result->source != LookupSource::kMemo) {
          continue;
        }
        ++memo_answers;
        EXPECT_TRUE(result->known);
        EXPECT_EQ(apply_transform(q, result->to_representative), result->representative);
        // The exhaustive walk is the oracle; it is affordable at n <= 6 on
        // a sample of the memo answers.
        if (n <= 6 && walk_checks < 32) {
          ++walk_checks;
          EXPECT_EQ(exact_npn_canonical(result->representative), exact_npn_canonical_walk(q));
        }
      }
    }
    EXPECT_GT(memo_answers, 0u);
    EXPECT_EQ(store.num_memo_hits(), memo_answers);
    EXPECT_EQ(twin.num_memo_hits(), 0u);
  }
}

/// A stream buffer whose first write blocks until `release` is set: handed
/// to flush_delta, it holds the store gate open, so misses queue on it.
class GateHoldingBuf : public std::stringbuf {
 public:
  std::promise<void> entered;
  std::promise<void> release;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize count) override
  {
    hold();
    return std::stringbuf::xsputn(s, count);
  }
  int_type overflow(int_type c) override
  {
    hold();
    return std::stringbuf::overflow(c);
  }

 private:
  void hold()
  {
    if (!held_) {
      held_ = true;
      entered.set_value();
      released_.wait();
    }
  }
  bool held_ = false;
  std::shared_future<void> released_ = release.get_future().share();
};

/// A random function of width n whose class `store` does not hold.
TruthTable novel_function(const ClassStore& store, int n, std::mt19937_64& rng)
{
  TruthTable f = tt_random(n, rng);
  while (store.find_canonical(exact_npn_canonical(f)).has_value()) {
    f = tt_random(n, rng);
  }
  return f;
}

/// An NPN image of f with other words than f.
TruthTable other_image(const TruthTable& f, std::mt19937_64& rng)
{
  TruthTable g = apply_transform(f, NpnTransform::random(f.num_vars(), rng));
  while (g == f) {
    g = apply_transform(f, NpnTransform::random(f.num_vars(), rng));
  }
  return g;
}

TEST(ClassStore, LookupEntryPointsAgreeOnEveryTier)
{
  // lookup() and lookup_or_classify() walk one tier path and differ only
  // in the miss policy: on every resolving tier the three entry points
  // answer alike and count alike. Width 4 resolves through the NPN4 table,
  // width 6 through the hot cache, memo and index.
  for (const int n : {4, 6}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::mt19937_64 rng{0xa9eeULL + static_cast<std::uint64_t>(n)};
    const auto funcs = make_npn_workload(n, 16, 2, 0xa9efULL + static_cast<std::uint64_t>(n));
    StoreBuildOptions build_options;
    build_options.num_threads = 1;
    // Store k answers through entry point k; every query goes to all three,
    // so their states stay equal as long as the entry points agree.
    std::vector<ClassStore> stores;
    for (int k = 0; k < 3; ++k) {
      stores.push_back(build_class_store(funcs, build_options));
    }
    const auto expect_agree = [&](const TruthTable& q, LookupSource source,
                                  std::uint64_t canonicalizations, std::uint64_t table_hits) {
      std::optional<StoreLookupResult> first;
      for (int k = 0; k < 3; ++k) {
        ClassStore& store = stores[static_cast<std::size_t>(k)];
        const std::uint64_t canon_before = store.num_canonicalizations();
        const std::uint64_t table_before = store.num_table_hits();
        const std::optional<StoreLookupResult> result =
            k == 0 ? store.lookup(q) : store.lookup_or_classify(q, /*append_on_miss=*/k == 2);
        ASSERT_TRUE(result.has_value()) << "entry point " << k;
        EXPECT_EQ(result->source, source) << "entry point " << k;
        EXPECT_TRUE(result->known) << "entry point " << k;
        EXPECT_EQ(store.num_canonicalizations() - canon_before, canonicalizations);
        EXPECT_EQ(store.num_table_hits() - table_before, table_hits);
        if (!first.has_value()) {
          first = result;
          continue;
        }
        EXPECT_EQ(result->class_id, first->class_id);
        EXPECT_EQ(result->representative, first->representative);
        EXPECT_EQ(result->to_representative, first->to_representative);
      }
    };

    // An unbalanced member, and its complement: same semiclass image.
    const auto member = std::find_if(funcs.begin(), funcs.end(),
                                     [](const TruthTable& f) { return !f.is_balanced(); });
    ASSERT_NE(member, funcs.end());
    const TruthTable f = *member;
    if (n == 4) {
      expect_agree(f, LookupSource::kTable, 0, 1);
      expect_agree(f, LookupSource::kTable, 0, 1);
    } else {
      expect_agree(f, LookupSource::kIndex, 1, 0);
      expect_agree(f, LookupSource::kHotCache, 0, 0);
      ASSERT_EQ(semiclass_form(~f).image, semiclass_form(f).image);
      expect_agree(~f, LookupSource::kMemo, 0, 0);
    }

    // A novel class: lookup() misses, a transient id is stable and
    // unknown, and an appended class is served from the index (the table,
    // whose slot the append filled, at width 4).
    const TruthTable novel = novel_function(stores[0], n, rng);
    const std::uint64_t searches = n == 4 ? 0 : 1;
    const std::uint64_t canon_before = stores[0].num_canonicalizations();
    EXPECT_FALSE(stores[0].lookup(novel).has_value());
    EXPECT_EQ(stores[0].num_canonicalizations() - canon_before, searches);
    const StoreLookupResult transient = stores[1].lookup_or_classify(novel);
    const StoreLookupResult again = stores[1].lookup_or_classify(novel);
    EXPECT_EQ(transient.source, LookupSource::kLive);
    EXPECT_FALSE(transient.known);
    EXPECT_EQ(again.source, LookupSource::kLive);
    EXPECT_FALSE(again.known);
    EXPECT_EQ(again.class_id, transient.class_id);
    const StoreLookupResult appended = stores[2].lookup_or_classify(novel, true);
    EXPECT_EQ(appended.source, LookupSource::kLive);
    EXPECT_FALSE(appended.known);
    EXPECT_EQ(appended.class_id, transient.class_id);
    const auto served = stores[2].lookup(other_image(novel, rng));
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->source, n == 4 ? LookupSource::kTable : LookupSource::kIndex);
    EXPECT_TRUE(served->known);
    EXPECT_EQ(served->class_id, appended.class_id);

    // The gated re-probe: two appenders of one novel class queue on the
    // gate (held by a flush), so the one that enters second finds the
    // other's record on its re-probe. It answers through the same hit
    // handler and counts one search (width 6) or one table hit (width 4).
    ClassStore& store = stores[0];
    (void)store.lookup_or_classify(novel_function(store, n, rng), true);
    const TruthTable racer = novel_function(store, n, rng);
    const TruthTable racer_image = other_image(racer, rng);
    const std::uint64_t canon_start = store.num_canonicalizations();
    const std::uint64_t table_start = store.num_table_hits();
    GateHoldingBuf buf;
    std::future<void> entered = buf.entered.get_future();
    std::thread flusher{[&] {
      std::ostream os{&buf};
      (void)store.flush_delta(os);
    }};
    entered.wait();
    StoreLookupResult results[2];
    std::thread first{[&] { results[0] = store.lookup_or_classify(racer, true); }};
    std::thread second{[&] { results[1] = store.lookup_or_classify(racer_image, true); }};
    std::this_thread::sleep_for(std::chrono::milliseconds{100});
    buf.release.set_value();
    first.join();
    second.join();
    flusher.join();
    EXPECT_EQ(results[0].class_id, results[1].class_id);
    EXPECT_NE(results[0].known, results[1].known);
    const StoreLookupResult& live = results[0].known ? results[1] : results[0];
    const StoreLookupResult& found = results[0].known ? results[0] : results[1];
    EXPECT_EQ(live.source, LookupSource::kLive);
    EXPECT_EQ(found.source, n == 4 ? LookupSource::kTable : LookupSource::kIndex);
    EXPECT_EQ(store.num_canonicalizations() - canon_start, 2 * searches);
    EXPECT_EQ(store.num_table_hits() - table_start, n == 4 ? 1u : 0u);
  }
}

TEST(ClassStore, WidthMismatchesAreRejected)
{
  ClassStore store{4};
  EXPECT_THROW((void)store.lookup(TruthTable{5}), std::invalid_argument);
  EXPECT_THROW((void)store.lookup_or_classify(TruthTable{3}), std::invalid_argument);
}

/// Appends `count` genuinely-new classes to `store`; returns them.
std::vector<TruthTable> append_novel(ClassStore& store, std::size_t count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> appended;
  while (appended.size() < count) {
    const TruthTable f = tt_random(store.num_vars(), rng);
    if (!store.lookup(f).has_value()) {
      (void)store.lookup_or_classify(f, /*append_on_miss=*/true);
      appended.push_back(f);
    }
  }
  return appended;
}

/// compact() through its split point: begin_compaction (flush + pin) ->
/// finish_compaction (off-gate merge and write, then adopt). Appends and
/// flushes that land between the halves — the live-traffic case — must
/// survive the swap, on disk and in memory.
TEST(ClassStore, ThreePhaseCompactionKeepsConcurrentAppends)
{
  const int n = 4;
  const std::string path = ::testing::TempDir() + "three_phase.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  build_class_store(make_npn_workload(n, 12, 2, 0x3f01ULL), {}).save(path);

  for (const bool use_mmap : {false, true}) {
    std::remove(dlog.c_str());
    StoreOpenOptions open_options;
    open_options.use_mmap = use_mmap;
    ClassStore store = ClassStore::open(path, open_options);
    const std::size_t base_records = store.num_records();

    // One sealed run and one memtable before the snapshot; the snapshot's
    // opening flush seals the second run...
    const auto first = append_novel(store, 3, 0x3f02ULL + (use_mmap ? 1 : 0));
    ASSERT_EQ(store.flush_delta(dlog), 3u);
    const auto second = append_novel(store, 2, 0x3f03ULL + (use_mmap ? 2 : 0));
    ASSERT_EQ(store.num_delta_segments(), 1u);

    CompactionSnapshot snapshot = store.begin_compaction(path);
    EXPECT_EQ(snapshot.flushed, 2u);
    EXPECT_EQ(snapshot.tiers->deltas.size(), 2u);
    EXPECT_EQ(store.num_appended(), 0u);

    // ...then traffic lands while the merge "runs": one more sealed run and
    // one unflushed memtable append.
    const auto third = append_novel(store, 2, 0x3f04ULL + (use_mmap ? 3 : 0));
    ASSERT_EQ(store.flush_delta(dlog), 2u);
    const auto fourth = append_novel(store, 1, 0x3f05ULL + (use_mmap ? 4 : 0));

    store.finish_compaction(path, std::move(snapshot));

    EXPECT_EQ(store.num_compactions(), 1u);
    EXPECT_EQ(store.num_delta_segments(), 1u) << "the post-snapshot run must survive";
    EXPECT_EQ(store.num_appended(), 1u) << "the memtable must survive";
    EXPECT_EQ(store.tier_snapshot()->base->size(), base_records + first.size() + second.size());
    EXPECT_EQ(store.mmap_backed(), use_mmap);

    // Every class — compacted, surviving run, memtable — still answers with
    // its original id, in memory and after a fresh open of the swapped
    // files (base + rewritten delta log).
    ClassStore reopened = ClassStore::open(path, open_options);
    EXPECT_EQ(reopened.tier_snapshot()->base->size(),
              base_records + first.size() + second.size());
    EXPECT_EQ(reopened.num_delta_records(), third.size());
    for (const auto& group : {first, second, third}) {
      for (const auto& f : group) {
        const auto live = store.lookup(f);
        const auto durable = reopened.lookup(f);
        ASSERT_TRUE(live.has_value());
        ASSERT_TRUE(durable.has_value());
        EXPECT_EQ(live->class_id, durable->class_id);
        EXPECT_TRUE(durable->known);
      }
    }
    EXPECT_TRUE(store.lookup(fourth.front()).has_value());
    // The memtable append was never flushed, so it is (correctly) not on
    // disk yet; flushing now must append cleanly to the rewritten log.
    EXPECT_FALSE(reopened.lookup(fourth.front()).has_value());
    ASSERT_EQ(store.flush_delta(dlog), 1u);
    ClassStore reflushed = ClassStore::open(path, open_options);
    EXPECT_TRUE(reflushed.lookup(fourth.front()).has_value());
  }
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(ClassStore, AdoptCompactedRejectsForeignSnapshots)
{
  const int n = 3;
  const std::string path = ::testing::TempDir() + "foreign_snapshot.fcs";
  std::remove(path.c_str());
  ClassStore store = build_class_store(make_npn_workload(n, 6, 1, 0x3f10ULL), {});
  ClassStore other = build_class_store(make_npn_workload(n, 6, 1, 0x3f11ULL), {});

  // Another store's snapshot is refused before anything is written.
  EXPECT_THROW(store.finish_compaction(path, other.begin_compaction(path)), std::logic_error);
  EXPECT_FALSE(std::ifstream{path}.good());
  EXPECT_FALSE(std::ifstream{path + ".tmp"}.good());

  // So is a snapshot of this store that a later compaction made stale.
  CompactionSnapshot stale = store.begin_compaction(path);
  store.compact(path);
  EXPECT_THROW(store.finish_compaction(path, std::move(stale)), std::logic_error);
  EXPECT_EQ(store.num_compactions(), 1u);
  std::remove(path.c_str());
}

TEST(StoreFormat, TransformPackUnpackRoundTrips)
{
  std::mt19937_64 rng{0x7a31ULL};
  for (int n = 0; n <= 8; ++n) {
    for (int trial = 0; trial < 50; ++trial) {
      const NpnTransform t = NpnTransform::random(n, rng);
      const NpnTransform back = unpack_transform(n, pack_transform(t));
      EXPECT_EQ(back, t);
    }
  }
}

TEST(StoreFormat, UnpackRejectsCorruptTransforms)
{
  // perm word with a repeated target is not a permutation.
  EXPECT_THROW((void)unpack_transform(3, {0x000ULL, 0}), StoreFormatError);
  // input_neg beyond the width.
  const auto packed = pack_transform(NpnTransform::identity(3));
  EXPECT_THROW((void)unpack_transform(3, {packed[0], 0xffULL}), StoreFormatError);
  // reserved high bits must be zero.
  EXPECT_THROW((void)unpack_transform(3, {packed[0], 1ULL << 40}), StoreFormatError);
}

}  // namespace
}  // namespace facet
