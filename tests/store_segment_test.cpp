/// Tests of the segmented storage engine: mmap-backed base segments
/// (bit-identity with materialized loads, lazy per-page corruption
/// detection, rejection of other format versions), log-structured delta
/// segments (flush, replay, torn-log rejection) and compaction.

#include "facet/store/segment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#define FACET_TEST_HAS_RLIMIT 1
#else
#define FACET_TEST_HAS_RLIMIT 0
#endif

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {
namespace {

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

std::string temp_path(const std::string& name)
{
  return ::testing::TempDir() + name;
}

std::string read_file(const std::string& path)
{
  std::ifstream is{path, std::ios::binary};
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes)
{
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Functions whose classes are genuinely absent from `store`.
std::vector<TruthTable> novel_functions(const ClassStore& store, std::size_t count,
                                        std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> result;
  while (result.size() < count) {
    const TruthTable f = tt_random(store.num_vars(), rng);
    if (!store.lookup(f).has_value()) {
      result.push_back(f);
    }
  }
  return result;
}

TEST(StoreSegment, MmapOpenIsBitIdenticalToMaterializedLoad)
{
  if (!mmap_supported()) {
    GTEST_SKIP() << "no mmap on this platform";
  }
  const int n = 5;
  const auto funcs = make_npn_workload(n, 60, 3, 0x5e601ULL);
  const ClassStore built = build_class_store(funcs, {});
  const std::string path = temp_path("segment_mmap_identity.fcs");
  built.save(path);

  const ClassStore materialized = ClassStore::open(path);
  const ClassStore mapped = ClassStore::open(path, StoreOpenOptions{.use_mmap = true});
  EXPECT_TRUE(mapped.mmap_backed());
  EXPECT_FALSE(materialized.mmap_backed());
  EXPECT_EQ(mapped.num_vars(), materialized.num_vars());
  EXPECT_EQ(mapped.num_classes(), materialized.num_classes());
  ASSERT_EQ(mapped.num_records(), materialized.num_records());

  // Record-by-record identity through the segment interface, including the
  // decode-free id probe the batch engine rides.
  const Segment& base = mapped.base_segment();
  for (std::size_t i = 0; i < materialized.records().size(); ++i) {
    const StoreRecord& expected = materialized.records()[i];
    const StoreRecord actual = base.record_at(i);
    EXPECT_EQ(actual.canonical, expected.canonical);
    EXPECT_EQ(actual.representative, expected.representative);
    EXPECT_EQ(actual.rep_to_canonical, expected.rep_to_canonical);
    EXPECT_EQ(actual.class_id, expected.class_id);
    EXPECT_EQ(actual.class_size, expected.class_size);
    const auto mapped_id = mapped.find_class_id(expected.canonical);
    const auto materialized_id = materialized.find_class_id(expected.canonical);
    ASSERT_TRUE(mapped_id.has_value());
    EXPECT_EQ(*mapped_id, expected.class_id);
    EXPECT_EQ(materialized_id, mapped_id);
  }

  // Lookup-by-lookup identity on the full workload.
  for (const auto& f : funcs) {
    const auto a = materialized.lookup(f);
    const auto b = mapped.lookup(f);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->class_id, b->class_id);
    EXPECT_EQ(a->representative, b->representative);
    EXPECT_EQ(apply_transform(f, b->to_representative), b->representative);
  }

  // Probe-by-probe identity on keys the index does not hold: both flavors
  // miss, through the whole-record and the id-only probe alike.
  std::mt19937_64 rng{0x5e602ULL};
  std::size_t misses = 0;
  for (int i = 0; i < 2000; ++i) {
    const TruthTable key = tt_random(n, rng);
    const auto it = std::lower_bound(
        materialized.records().begin(), materialized.records().end(), key,
        [](const StoreRecord& r, const TruthTable& k) { return r.canonical < k; });
    const bool present = it != materialized.records().end() && it->canonical == key;
    misses += present ? 0 : 1;
    EXPECT_EQ(mapped.find_class_id(key).has_value(), present);
    EXPECT_EQ(materialized.find_class_id(key), mapped.find_class_id(key));
    EXPECT_EQ(materialized.base_segment().find(key).has_value(), present);
    EXPECT_EQ(base.find(key).has_value(), present);
  }
  EXPECT_GT(misses, 1000u);

  // The materialized records() accessor has no mmap equivalent.
  EXPECT_THROW((void)mapped.records(), std::logic_error);
  std::remove(path.c_str());
}

/// Checks MaterializedSegment::find / find_class_id against a std::lower_bound
/// over the same sorted records, for every key in `probes`; returns how
/// many probes hit.
std::size_t expect_index_matches_sorted_search(int n, std::vector<StoreRecord> records,
                                               const std::vector<TruthTable>& probes)
{
  const auto by_canonical = [](const StoreRecord& a, const StoreRecord& b) {
    return a.canonical < b.canonical;
  };
  std::sort(records.begin(), records.end(), by_canonical);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].class_id = static_cast<std::uint32_t>(i * 7 + 3);
  }
  const std::vector<StoreRecord> reference = records;
  const MaterializedSegment segment{n, std::move(records)};
  EXPECT_EQ(segment.size(), reference.size());
  std::size_t hits = 0;
  for (const TruthTable& key : probes) {
    const auto it = std::lower_bound(
        reference.begin(), reference.end(), key,
        [](const StoreRecord& r, const TruthTable& k) { return r.canonical < k; });
    const bool present = it != reference.end() && it->canonical == key;
    hits += present ? 1 : 0;
    const std::optional<StoreRecord> found = segment.find(key);
    const std::optional<std::uint32_t> id = segment.find_class_id(key);
    EXPECT_EQ(found.has_value(), present) << "n=" << n << " key " << to_hex(key);
    EXPECT_EQ(id.has_value(), present) << "n=" << n << " key " << to_hex(key);
    if (present && found.has_value() && id.has_value()) {
      EXPECT_EQ(found->canonical, it->canonical);
      EXPECT_EQ(found->representative, it->representative);
      EXPECT_EQ(found->class_id, it->class_id);
      EXPECT_EQ(*id, it->class_id);
    }
  }
  return hits;
}

/// A StoreRecord keyed `canonical` (identity witness; the id is assigned by
/// expect_index_matches_sorted_search).
StoreRecord record_keyed(const TruthTable& canonical)
{
  return StoreRecord{canonical, canonical, NpnTransform::identity(canonical.num_vars()), 0, 1};
}

TEST(StoreSegment, HashIndexAgreesWithASortedSearchOnHitsAndMisses)
{
  std::mt19937_64 rng{0x1d3e0ULL};
  for (int n = 0; n <= 8; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Probe keys: every table when there are few (n <= 3), else the
    // records plus as many random keys, nearly all absent.
    std::vector<TruthTable> universe;
    if (n <= 3) {
      for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << (std::uint64_t{1} << n)); ++bits) {
        universe.push_back(TruthTable::from_word(n, bits));
      }
    } else {
      std::unordered_set<TruthTable, TruthTableHash> distinct;
      while (distinct.size() < 1500) {
        distinct.insert(tt_random(n, rng));
      }
      universe.assign(distinct.begin(), distinct.end());
    }

    // Empty segment: everything misses.
    EXPECT_EQ(expect_index_matches_sorted_search(n, {}, universe), 0u);

    // One record.
    EXPECT_EQ(expect_index_matches_sorted_search(n, {record_keyed(universe.back())}, universe),
              1u);

    // Every other key of the universe: hits and misses interleaved.
    std::vector<StoreRecord> half;
    for (std::size_t i = 0; i < universe.size(); i += 2) {
      half.push_back(record_keyed(universe[i]));
    }
    EXPECT_EQ(expect_index_matches_sorted_search(n, half, universe), half.size());
  }
}

TEST(StoreSegment, HashIndexResolvesKeysWhoseHashesCollideInTheSlotBits)
{
  // A probe's home slot is the hash's low word scaled onto the slot count,
  // so keys sharing the low word's top 12 bits start within one slot of
  // each other in any index of at most 4096 slots: they form one probe
  // cluster. Bucket random n = 6 and n = 7 keys by those bits and build
  // indexes around the fullest bucket.
  for (const int n : {6, 7}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    std::mt19937_64 rng{0xc011ULL + static_cast<std::uint64_t>(n)};
    std::unordered_map<std::uint64_t, std::unordered_set<TruthTable, TruthTableHash>> buckets;
    for (int i = 0; i < 200000; ++i) {
      TruthTable key = tt_random(n, rng);
      buckets[(key.hash() >> 20) & 0xfffULL].insert(std::move(key));
    }
    const auto fullest = std::max_element(buckets.begin(), buckets.end(), [](const auto& a,
                                                                             const auto& b) {
      return a.second.size() < b.second.size();
    });
    const std::vector<TruthTable> colliding{fullest->second.begin(), fullest->second.end()};
    ASSERT_GE(colliding.size(), 40u);

    // Colliding records and colliding misses, alone and among other keys;
    // at most 1024 records, so at most 4096 slots.
    std::vector<StoreRecord> records;
    for (std::size_t i = 0; i < colliding.size(); i += 2) {
      records.push_back(record_keyed(colliding[i]));
    }
    EXPECT_EQ(expect_index_matches_sorted_search(n, records, colliding), records.size());
    std::vector<TruthTable> probes = colliding;
    for (const auto& [bits, keys] : buckets) {
      if (records.size() == 1000) {
        break;
      }
      if (bits != fullest->first && keys.size() >= 2) {
        records.push_back(record_keyed(*keys.begin()));
        probes.push_back(*keys.begin());
        probes.push_back(*std::next(keys.begin()));
      }
    }
    const std::size_t expected_hits = records.size();
    EXPECT_EQ(expect_index_matches_sorted_search(n, std::move(records), probes), expected_hits);
  }
}

TEST(StoreSegment, MmapCorruptionIsDetectedOnFirstTouchNotAtOpen)
{
  if (!mmap_supported()) {
    GTEST_SKIP() << "no mmap on this platform";
  }
  // Enough singleton n=6 classes that the record region spans several pages
  // (40 bytes per record, 4096-byte pages).
  const int n = 6;
  std::mt19937_64 rng{0x5e602ULL};
  std::vector<TruthTable> funcs;
  for (int i = 0; i < 300; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  const ClassStore built = build_class_store(funcs, {});
  ASSERT_GT(built.num_records() * store_record_words(n) * 8, 2 * kStorePageBytes);
  const std::string path = temp_path("segment_mmap_corrupt.fcs");
  built.save(path);

  // Flip one bit inside the LAST record — far from the blocks a search for
  // the smallest canonical touches. v3 geometry: a full header page, then
  // block-packed records (no record straddles a block).
  const std::size_t last = built.records().size() - 1;
  const std::size_t per_block = store_records_per_block(n);
  std::string bytes = read_file(path);
  const std::size_t offset = kStorePageBytes + (last / per_block) * kStorePageBytes +
                             (last % per_block) * store_record_words(n) * 8 + 3;
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
  write_file(path, bytes);

  // The materialized open validates eagerly and must reject up front...
  EXPECT_THROW((void)ClassStore::open(path), StoreFormatError);

  // ...while the mmap open defers validation: the open succeeds, untouched
  // pages serve lookups, and the first touch of the corrupt page throws.
  const ClassStore mapped = ClassStore::open(path, StoreOpenOptions{.use_mmap = true});
  const auto* segment = dynamic_cast<const MmapSegment*>(&mapped.base_segment());
  ASSERT_NE(segment, nullptr);
  EXPECT_EQ(segment->pages_validated(), 0u);

  const auto clean = mapped.find_canonical(built.records().front().canonical);
  ASSERT_TRUE(clean.has_value());
  EXPECT_EQ(clean->class_id, built.records().front().class_id);
  EXPECT_GT(segment->pages_validated(), 0u);
  EXPECT_LT(segment->pages_validated(), segment->num_pages());

  EXPECT_THROW((void)mapped.base_segment().record_at(last), StoreFormatError);
  EXPECT_THROW((void)mapped.find_canonical(built.records()[last].canonical), StoreFormatError);
  std::remove(path.c_str());
}

/// A base file in a retired layout: version 1 (header, then bare records
/// under a whole-payload hash) or version 2 (dense records, then a
/// per-page checksum table and the footer).
std::string legacy_base_file(std::uint32_t version, const ClassStore& built)
{
  std::ostringstream records;
  for (const auto& record : built.records()) {
    for_each_record_word(record, [&](std::uint64_t word) { write_u64_le(records, word); });
  }
  const std::string region = records.str();
  const auto* bytes = reinterpret_cast<const unsigned char*>(region.data());
  const std::size_t total_words = region.size() / 8;

  StoreHeader header;
  header.version = version;
  header.num_vars = static_cast<std::uint32_t>(built.num_vars());
  header.num_records = built.records().size();
  header.num_classes = built.num_classes();
  header.payload_hash = checksum_le_words(bytes, total_words);
  std::ostringstream tail;
  if (version == 2) {
    std::size_t num_pages = 0;
    for (std::size_t w = 0; w < total_words; w += kStorePageWords, ++num_pages) {
      write_u64_le(tail, checksum_le_words(bytes + 8 * w,
                                           std::min(kStorePageWords, total_words - w)));
    }
    const std::string page_table = tail.str();
    header.payload_hash =
        checksum_le_words(reinterpret_cast<const unsigned char*>(page_table.data()), num_pages);
    write_segment_footer(tail, SegmentFooter{kStorePageBytes, num_pages, total_words});
  }
  std::ostringstream os;
  write_store_header(os, header);
  os << region << tail.str();
  return os.str();
}

TEST(StoreSegment, OtherFormatVersionsAreRejectedOnEveryLoadPath)
{
  const int n = 4;
  const auto funcs = make_npn_workload(n, 30, 2, 0x5e603ULL);
  const ClassStore built = build_class_store(funcs, {});
  const std::string good_path = temp_path("segment_versions_good.fcs");
  const std::string bad_path = temp_path("segment_versions_bad.fcs");
  const std::string bad_dlog = ClassStore::delta_log_path(bad_path);
  std::remove(ClassStore::delta_log_path(good_path).c_str());
  std::remove(bad_dlog.c_str());
  built.save(good_path);

  std::vector<bool> flavors{false};
  if (mmap_supported()) {
    flavors.push_back(true);
  }
  // Replicas serving the good file, to reload from the bad one.
  std::vector<ClassStore> replicas;
  for (const bool use_mmap : flavors) {
    replicas.push_back(ClassStore::open(good_path, StoreOpenOptions{.use_mmap = use_mmap}));
  }
  const auto expect_version_error = [](const auto& load) {
    try {
      load();
      ADD_FAILURE() << "a file of another version must not load";
    } catch (const StoreFormatError& e) {
      EXPECT_NE(std::string{e.what()}.find("version"), std::string::npos) << e.what();
    }
  };
  const auto expect_open_and_reload_reject = [&] {
    for (const bool use_mmap : flavors) {
      SCOPED_TRACE(use_mmap ? "mmap" : "materialized");
      expect_version_error(
          [&] { (void)ClassStore::open(bad_path, StoreOpenOptions{.use_mmap = use_mmap}); });
    }
    for (auto& replica : replicas) {
      SCOPED_TRACE(replica.mmap_backed() ? "mmap replica" : "materialized replica");
      expect_version_error([&] { (void)replica.reload(bad_path); });
    }
  };

  // Base files written by the retired layouts.
  for (const std::uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("base version " + std::to_string(version));
    write_file(bad_path, legacy_base_file(version, built));
    expect_open_and_reload_reject();
  }

  // A version-2 delta frame under a good base: open() and reload(), the
  // paths that replay a delta log, must object.
  {
    SCOPED_TRACE("delta frame version 2");
    write_file(bad_path, read_file(good_path));
    {
      ClassStore writer = ClassStore::open(bad_path);
      for (const auto& f : novel_functions(writer, 2, 0x5e608ULL)) {
        (void)writer.lookup_or_classify(f, /*append_on_miss=*/true);
      }
      ASSERT_EQ(writer.flush_delta(bad_dlog), 2u);
    }
    std::string frame = read_file(bad_dlog);
    frame[8] = 2;  // low byte of the frame's version field
    write_file(bad_dlog, frame);
    expect_open_and_reload_reject();
  }

  // The replicas kept serving their good epoch throughout.
  for (const auto& replica : replicas) {
    for (const auto& f : funcs) {
      const auto hit = replica.lookup(f);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->class_id, built.lookup(f)->class_id);
    }
  }
  std::remove(bad_dlog.c_str());
  std::remove(bad_path.c_str());
  std::remove(good_path.c_str());
}

TEST(StoreSegment, NewerTiersShadowTheBaseInTheMergeAndTheCompaction)
{
  // A delta log that repeats base classes (as a crash between a
  // compaction's base rename and its log rewrite leaves it) and adds new
  // ones: the newest record of each canonical form wins in every read.
  const int n = 6;
  std::mt19937_64 rng{0x5ead0ULL};
  std::unordered_set<TruthTable, TruthTableHash> distinct;
  while (distinct.size() < 40) {
    distinct.insert(tt_random(n, rng));
  }
  std::vector<StoreRecord> all;
  for (const TruthTable& key : distinct) {
    all.push_back(StoreRecord{key, key, NpnTransform::identity(n), 0, 1});
  }
  const auto by_canonical = [](const StoreRecord& a, const StoreRecord& b) {
    return a.canonical < b.canonical;
  };
  std::sort(all.begin(), all.end(), by_canonical);
  for (std::size_t i = 0; i < all.size(); ++i) {
    all[i].class_id = static_cast<std::uint32_t>(i);
  }
  // Base: the even records. Run 1: every third record, re-sized 2. Run 2:
  // every fifth record, re-sized 3 — so records in both runs take 3.
  std::vector<StoreRecord> base;
  std::vector<StoreRecord> run1;
  std::vector<StoreRecord> run2;
  std::vector<StoreRecord> expected = all;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i % 2 == 0) {
      base.push_back(all[i]);
    }
    if (i % 3 == 0) {
      run1.push_back(all[i]);
      run1.back().class_size = 2;
      expected[i].class_size = 2;
    }
    if (i % 5 == 0) {
      run2.push_back(all[i]);
      run2.back().class_size = 3;
      expected[i].class_size = 3;
    }
  }
  std::erase_if(expected, [](const StoreRecord& r) {
    return r.class_id % 2 != 0 && r.class_id % 3 != 0 && r.class_id % 5 != 0;
  });

  const std::string path = temp_path("segment_shadow.fcs");
  const std::string dlog = ClassStore::delta_log_path(path);
  {
    std::ofstream os{path, std::ios::binary | std::ios::trunc};
    write_base_segment(os, n, all.size(), base);
  }
  {
    std::ofstream os{dlog, std::ios::binary | std::ios::trunc};
    write_delta_frame(os, n, all.size(), run1);
    write_delta_frame(os, n, all.size(), run2);
  }
  const auto expect_newest = [&](const ClassStore& store) {
    const std::vector<StoreRecord> merged = store.persisted_records();
    ASSERT_EQ(merged.size(), expected.size());
    for (std::size_t i = 0; i < merged.size(); ++i) {
      EXPECT_EQ(merged[i].canonical, expected[i].canonical);
      EXPECT_EQ(merged[i].class_id, expected[i].class_id);
      EXPECT_EQ(merged[i].class_size, expected[i].class_size) << "record " << i;
      const auto found = store.find_canonical(expected[i].canonical);
      ASSERT_TRUE(found.has_value());
      EXPECT_EQ(found->class_size, expected[i].class_size);
    }
  };
  for (const bool use_mmap : {false, true}) {
    if (use_mmap && !mmap_supported()) {
      continue;
    }
    SCOPED_TRACE(use_mmap ? "mmap" : "materialized");
    ClassStore store = ClassStore::open(path, StoreOpenOptions{.use_mmap = use_mmap});
    ASSERT_EQ(store.num_delta_segments(), 2u);
    expect_newest(store);
    if (use_mmap) {
      store.compact(path);
      EXPECT_EQ(store.num_delta_segments(), 0u);
      expect_newest(store);
      expect_newest(ClassStore::open(path));
    }
  }
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(StoreSegment, FlushDeltaSealsTheMemtableIntoASegment)
{
  // Width 5, above the NPN4 table tier, which would answer every repeat
  // at width <= 4. The semiclass memo would answer the post-flush repeats
  // before the index; disable it so this test exercises the delta tier
  // directly.
  const int n = 5;
  const auto funcs = make_npn_workload(n, 15, 2, 0x5e604ULL);
  StoreBuildOptions build_options;
  build_options.store.semiclass_memo_capacity = 0;
  ClassStore store = build_class_store(funcs, build_options);
  const auto novel = novel_functions(store, 3, 0x5e605ULL);

  std::vector<std::uint32_t> ids;
  for (const auto& f : novel) {
    ids.push_back(store.lookup_or_classify(f, /*append_on_miss=*/true).class_id);
  }
  EXPECT_EQ(store.num_appended(), novel.size());
  EXPECT_EQ(store.num_delta_segments(), 0u);

  std::ostringstream frame;
  EXPECT_EQ(store.flush_delta(frame), novel.size());
  EXPECT_EQ(store.num_appended(), 0u);
  EXPECT_EQ(store.num_delta_segments(), 1u);
  EXPECT_EQ(store.num_delta_records(), novel.size());
  // An empty memtable flushes to nothing.
  std::ostringstream empty;
  EXPECT_EQ(store.flush_delta(empty), 0u);
  EXPECT_TRUE(empty.str().empty());

  // Sealed classes keep serving with their ids, now from the delta tier.
  store.clear_hot_cache();
  for (std::size_t i = 0; i < novel.size(); ++i) {
    const auto hit = store.lookup(novel[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->class_id, ids[i]);
    EXPECT_EQ(hit->source, LookupSource::kIndex);
  }
  // And save() folds them into the serialized base.
  const std::string path = temp_path("segment_flush_seal.fcs");
  std::remove(ClassStore::delta_log_path(path).c_str());
  store.save(path);
  const ClassStore reloaded = ClassStore::open(path);
  EXPECT_EQ(reloaded.num_records(), store.num_records());
  EXPECT_EQ(reloaded.num_delta_segments(), 0u);
  for (std::size_t i = 0; i < novel.size(); ++i) {
    const auto hit = reloaded.lookup(novel[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->class_id, ids[i]);
  }
  std::remove(path.c_str());
}

class StoreDeltaRoundTrip : public ::testing::TestWithParam<bool> {};

TEST_P(StoreDeltaRoundTrip, FlushedFramesReplayOnOpen)
{
  const bool use_mmap = GetParam();
  if (use_mmap && !mmap_supported()) {
    GTEST_SKIP() << "no mmap on this platform";
  }
  const int n = 5;
  const auto funcs = make_npn_workload(n, 25, 2, 0x5e606ULL);
  const std::string path = temp_path(use_mmap ? "segment_delta_mmap.fcs" : "segment_delta.fcs");
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(funcs, {}).save(path);

  // Two serving sessions, each appending new classes and flushing one
  // frame — the log grows without ever rewriting the base.
  std::vector<TruthTable> all_novel;
  std::vector<std::uint32_t> ids;
  for (int session = 0; session < 2; ++session) {
    ClassStore store =
        ClassStore::open(path, StoreOpenOptions{.use_mmap = use_mmap});
    EXPECT_EQ(store.num_delta_segments(), static_cast<std::size_t>(session));
    const auto novel =
        novel_functions(store, 4, 0x5e607ULL + static_cast<std::uint64_t>(session));
    for (const auto& f : novel) {
      ids.push_back(store.lookup_or_classify(f, /*append_on_miss=*/true).class_id);
      all_novel.push_back(f);
    }
    EXPECT_EQ(store.flush_delta(dlog), novel.size());
  }

  // A third open replays both frames: every appended class resolves with
  // its id, from the delta tier, under both base flavors.
  ClassStore store = ClassStore::open(path, StoreOpenOptions{.use_mmap = use_mmap});
  EXPECT_EQ(store.num_delta_segments(), 2u);
  EXPECT_EQ(store.num_delta_records(), all_novel.size());
  for (std::size_t i = 0; i < all_novel.size(); ++i) {
    const auto hit = store.lookup(all_novel[i]);
    ASSERT_TRUE(hit.has_value()) << "appended class " << i << " must survive reopen";
    EXPECT_EQ(hit->class_id, ids[i]);
  }
  // Base lookups are unaffected by the deltas.
  for (const auto& f : funcs) {
    EXPECT_TRUE(store.lookup(f).has_value());
  }

  // Compaction merges the runs into a fresh base and clears the log.
  const std::size_t total = store.num_records();
  store.compact(path);
  EXPECT_EQ(store.num_delta_segments(), 0u);
  EXPECT_EQ(store.num_records(), total);
  EXPECT_FALSE(std::ifstream{dlog}.good()) << "compact() must remove the delta log";
  for (std::size_t i = 0; i < all_novel.size(); ++i) {
    store.clear_hot_cache();
    const auto hit = store.lookup(all_novel[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->class_id, ids[i]);
  }

  // And the compacted file alone (no log) serves everything.
  ClassStore compacted = ClassStore::open(path, StoreOpenOptions{.use_mmap = use_mmap});
  EXPECT_EQ(compacted.num_delta_segments(), 0u);
  EXPECT_EQ(compacted.num_records(), total);
  for (std::size_t i = 0; i < all_novel.size(); ++i) {
    const auto hit = compacted.lookup(all_novel[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->class_id, ids[i]);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(MaterializedAndMmap, StoreDeltaRoundTrip, ::testing::Values(false, true));

TEST(StoreSegment, TornDeltaTailIsRepairedAndCorruptionIsRejected)
{
  const int n = 4;
  const auto funcs = make_npn_workload(n, 15, 2, 0x5e608ULL);
  const std::string path = temp_path("segment_torn_dlog.fcs");
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(funcs, {}).save(path);

  std::vector<TruthTable> novel;
  {
    ClassStore store = ClassStore::open(path);
    novel = novel_functions(store, 3, 0x5e609ULL);
    for (const auto& f : novel) {
      (void)store.lookup_or_classify(f, /*append_on_miss=*/true);
    }
    ASSERT_EQ(store.flush_delta(dlog), 3u);
  }
  const std::string good = read_file(dlog);

  // A torn trailing frame (crash or full disk mid-append) is dropped —
  // never bricking the intact prefix — and the log is truncated back.
  {
    write_file(dlog, good + good.substr(0, good.size() - 5));
    ClassStore recovered = ClassStore::open(path);
    EXPECT_EQ(recovered.num_delta_segments(), 1u);
    EXPECT_EQ(recovered.num_delta_records(), 3u);
    EXPECT_EQ(read_file(dlog).size(), good.size()) << "open() must truncate the torn tail";
    // The repaired log appends cleanly again.
    const auto more = novel_functions(recovered, 2, 0x5e60bULL);
    for (const auto& f : more) {
      (void)recovered.lookup_or_classify(f, /*append_on_miss=*/true);
    }
    ASSERT_EQ(recovered.flush_delta(dlog), 2u);
    EXPECT_EQ(ClassStore::open(path).num_delta_records(), 5u);
  }
  // A torn log with no intact frame at all recovers to an empty log.
  {
    write_file(dlog, good.substr(0, good.size() - 5));
    EXPECT_EQ(ClassStore::open(path).num_delta_records(), 0u);
    EXPECT_EQ(read_file(dlog).size(), 0u);
  }
  // Corruption before the tail is rejected: flipped record byte inside a
  // complete frame...
  {
    std::string bad = good;
    bad[kDeltaFrameHeaderBytes + 2] = static_cast<char>(bad[kDeltaFrameHeaderBytes + 2] ^ 0x01);
    write_file(dlog, bad);
    EXPECT_THROW((void)ClassStore::open(path), StoreFormatError);
  }
  // ...and a bad frame magic.
  {
    std::string bad = good;
    bad[0] = 'X';
    write_file(dlog, bad);
    EXPECT_THROW((void)ClassStore::open(path), StoreFormatError);
  }
  // Restoring the log restores the store.
  write_file(dlog, good);
  EXPECT_EQ(ClassStore::open(path).num_delta_records(), 3u);

  std::remove(dlog.c_str());
  std::remove(path.c_str());
}

/// A buffered stream sink that accepts `capacity` bytes and then fails
/// every write — a full disk seen through an ostream. The small buffer means
/// a frame can fail mid-write or only at the final flush, depending on
/// `capacity`.
class FullDiskBuf : public std::streambuf {
 public:
  explicit FullDiskBuf(std::size_t capacity) : capacity_{capacity}
  {
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }
  [[nodiscard]] const std::string& written() const noexcept { return written_; }

 protected:
  int_type overflow(int_type ch) override
  {
    if (!drain()) {
      return traits_type::eof();
    }
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }
  int sync() override { return drain() ? 0 : -1; }

 private:
  bool drain()
  {
    const auto pending = static_cast<std::size_t>(pptr() - pbase());
    const std::size_t room = capacity_ - written_.size();
    written_.append(pbase(), std::min(pending, room));
    setp(buffer_.data(), buffer_.data() + buffer_.size());
    return pending <= room;
  }

  std::array<char, 16> buffer_{};
  std::size_t capacity_;
  std::string written_;
};

TEST(StoreSegment, FailedFrameWriteLeavesMemtableAndRunsUntouched)
{
  const int n = 4;
  ClassStore store = build_class_store(make_npn_workload(n, 10, 2, 0x5e610ULL), {});
  const auto novel = novel_functions(store, 2, 0x5e611ULL);
  std::vector<std::uint32_t> ids;
  for (const auto& f : novel) {
    ids.push_back(store.lookup_or_classify(f, /*append_on_miss=*/true).class_id);
  }
  const std::size_t frame_bytes = kDeltaFrameHeaderBytes + novel.size() * store_record_words(n) * 8;

  // Cut the frame after k bytes — inside the header, at its end, inside
  // the records, one byte short — and the flush throws without committing.
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, kDeltaFrameHeaderBytes - 1,
                              kDeltaFrameHeaderBytes, kDeltaFrameHeaderBytes + 1,
                              frame_bytes - 1}) {
    SCOPED_TRACE("frame cut after " + std::to_string(k) + " bytes");
    FullDiskBuf sink{k};
    std::ostream os{&sink};
    EXPECT_THROW((void)store.flush_delta(os), StoreFormatError);
    EXPECT_EQ(sink.written().size(), k);
    EXPECT_EQ(store.num_appended(), novel.size());
    EXPECT_EQ(store.num_delta_segments(), 0u);
    for (std::size_t i = 0; i < novel.size(); ++i) {
      const auto hit = store.lookup(novel[i]);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->class_id, ids[i]);
    }
  }

  // A sink with room for the whole frame takes it, and only then commits.
  FullDiskBuf sink{frame_bytes};
  std::ostream os{&sink};
  EXPECT_EQ(store.flush_delta(os), novel.size());
  EXPECT_EQ(sink.written().size(), frame_bytes);
  EXPECT_EQ(store.num_appended(), 0u);
  EXPECT_EQ(store.num_delta_segments(), 1u);
}

#if FACET_TEST_HAS_RLIMIT
TEST(StoreSegment, FlushCutShortByAFileSizeLimitTruncatesTheLogBack)
{
  const int n = 4;
  const std::string path = temp_path("segment_fsize_cut.fcs");
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(make_npn_workload(n, 15, 2, 0x5e612ULL), {}).save(path);

  ClassStore store = ClassStore::open(path);
  std::vector<TruthTable> appended;
  std::vector<std::uint32_t> ids;
  const auto append = [&](std::size_t count, std::uint64_t seed) {
    for (const auto& f : novel_functions(store, count, seed)) {
      appended.push_back(f);
      ids.push_back(store.lookup_or_classify(f, /*append_on_miss=*/true).class_id);
    }
  };
  append(2, 0x5e613ULL);
  ASSERT_EQ(store.flush_delta(dlog), 2u);
  append(3, 0x5e614ULL);
  const auto pre_frame = std::filesystem::file_size(dlog);

  // Let this process grow the log by only 50 bytes — a disk that fills
  // mid-frame. SIGXFSZ is ignored so the write fails with EFBIG instead of
  // killing the process. Both settings are restored right after the flush.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const rlim_t cap = static_cast<rlim_t>(pre_frame + 50);
  if (saved.rlim_max != RLIM_INFINITY && saved.rlim_max < cap) {
    GTEST_SKIP() << "hard RLIMIT_FSIZE below the test's cap";
  }
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit limited = saved;
  limited.rlim_cur = cap;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  bool threw = false;
  try {
    (void)store.flush_delta(dlog);
  } catch (const StoreFormatError&) {
    threw = true;
  }
  ::setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, saved_handler);

  EXPECT_TRUE(threw) << "a frame cut short must fail the flush";
  EXPECT_EQ(std::filesystem::file_size(dlog), pre_frame)
      << "the failed flush must truncate the log back to its pre-frame size";
  EXPECT_EQ(store.num_appended(), 3u);
  EXPECT_EQ(store.num_delta_segments(), 1u);

  // The next flush writes a whole frame where the cut one was, and a
  // reopen serves every append with its original id.
  ASSERT_EQ(store.flush_delta(dlog), 3u);
  const ClassStore reopened = ClassStore::open(path);
  EXPECT_EQ(reopened.num_delta_segments(), 2u);
  for (std::size_t i = 0; i < appended.size(); ++i) {
    const auto hit = reopened.lookup(appended[i]);
    ASSERT_TRUE(hit.has_value()) << "append " << i << " lost";
    EXPECT_EQ(hit->class_id, ids[i]);
  }
  std::remove(dlog.c_str());
  std::remove(path.c_str());
}
#endif

TEST(StoreSegment, DeltaFrameWithAnOutOfRangeClassIdIsRejected)
{
  const int n = 4;
  const std::string path = temp_path("segment_bad_frame_id.fcs");
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  const auto funcs = make_npn_workload(n, 15, 2, 0x5e615ULL);
  build_class_store(funcs, {}).save(path);

  // A well-formed frame (its checksum is right) whose record's class id is
  // not below the frame's num_classes_after.
  std::string good;
  {
    ClassStore writer = ClassStore::open(path);
    for (const auto& f : novel_functions(writer, 1, 0x5e616ULL)) {
      (void)writer.lookup_or_classify(f, /*append_on_miss=*/true);
    }
    std::ostringstream frame;
    ASSERT_EQ(writer.flush_delta(frame), 1u);
    good = frame.str();
  }
  std::istringstream good_is{good};
  const DeltaLogReplay replay = read_delta_log(good_is, n);
  ASSERT_EQ(replay.runs.size(), 1u);
  const std::vector<StoreRecord>& records = replay.runs.front().records;
  std::ostringstream bad_frame;
  write_delta_frame(bad_frame, n, records.front().class_id, records);
  const std::string bad = bad_frame.str();

  const auto expect_bound_error = [](const auto& read) {
    try {
      read();
      ADD_FAILURE() << "a frame with an out-of-range class id must be rejected";
    } catch (const StoreFormatError& e) {
      EXPECT_NE(std::string{e.what()}.find("class id exceeds"), std::string::npos) << e.what();
    }
  };
  std::istringstream bad_is{bad};
  expect_bound_error([&] { (void)read_delta_log(bad_is, n); });

  std::vector<ClassStore> replicas;
  std::vector<bool> flavors{false};
  if (mmap_supported()) {
    flavors.push_back(true);
  }
  for (const bool use_mmap : flavors) {
    replicas.push_back(ClassStore::open(path, StoreOpenOptions{.use_mmap = use_mmap}));
  }
  write_file(dlog, bad);
  for (const bool use_mmap : flavors) {
    SCOPED_TRACE(use_mmap ? "open mmap" : "open materialized");
    expect_bound_error(
        [&] { (void)ClassStore::open(path, StoreOpenOptions{.use_mmap = use_mmap}); });
  }
  for (auto& replica : replicas) {
    SCOPED_TRACE(replica.mmap_backed() ? "reload mmap" : "reload materialized");
    expect_bound_error([&] { (void)replica.reload(path); });
    // The replica keeps serving its previous epoch.
    EXPECT_TRUE(replica.lookup(funcs.front()).has_value());
  }
  std::remove(dlog.c_str());
  std::remove(path.c_str());
}

TEST(StoreSegment, WriteBaseSegmentRejectsNothingButStreamsDoFail)
{
  // A failed stream surfaces as StoreFormatError, not silent truncation.
  const int n = 3;
  const auto funcs = make_npn_workload(n, 5, 1, 0x5e60aULL);
  const ClassStore built = build_class_store(funcs, {});
  std::ostringstream os;
  os.setstate(std::ios::badbit);
  EXPECT_THROW(write_base_segment(os, n, built.num_classes(), built.persisted_records()),
               StoreFormatError);
}

}  // namespace
}  // namespace facet
