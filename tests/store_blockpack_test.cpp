/// Tests of the block-packed v3 base-segment format: geometry and probe
/// accounting of the sparse block-key index, edge cases at block
/// boundaries, per-block corruption rejection by both base flavors,
/// fcs-merge emitting v3, router dispatch over two widths, and
/// ClassStore::reload — the replica half of the compaction handshake.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "facet/npn/transform.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/merge.hpp"
#include "facet/store/segment.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/store/store_router.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {
namespace {

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

/// Store version stamped in a file's header (u32 at byte 8).
std::uint32_t file_version(const std::string& path)
{
  const std::string bytes = read_file(path);
  EXPECT_GE(bytes.size(), 16u);
  return static_cast<std::uint32_t>(
      load_le64(reinterpret_cast<const unsigned char*>(bytes.data()) + 8) & 0xffffffffULL);
}

/// `count` sorted singleton records keyed by distinct random tables —
/// geometry tests need record volume, not classification work.
std::vector<StoreRecord> synthetic_records(int n, std::size_t count, std::uint64_t seed)
{
  // The first `count` distinct draws, sorted: a sort and a dedup per round
  // instead of a hash set, which a 1M-record base would double in memory.
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> keys;
  keys.reserve(count);
  while (keys.size() < count) {
    while (keys.size() < count) {
      keys.push_back(tt_random(n, rng));
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  std::vector<StoreRecord> records;
  records.reserve(count);
  for (const auto& key : keys) {
    records.push_back(StoreRecord{key, key, NpnTransform::identity(n),
                                  static_cast<std::uint32_t>(records.size()), 1});
  }
  return records;
}

void write_v3_file(const std::string& path, int n, const std::vector<StoreRecord>& records)
{
  std::ofstream os{path, std::ios::binary | std::ios::trunc};
  write_base_segment(os, n, records.size(), encode_records(records));
}

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

TEST(StoreBlockPack, V3ProbesTouchOneBlock)
{
  struct Input {
    int n;
    std::size_t count;
    std::uint64_t seed;
  };
  // Several n = 6 blocks with a ragged tail, and a 1M-record n = 7 base:
  // the scale at which a binary search over its ~13,700 data pages would
  // touch about 14 of them per probe.
  const Input inputs[] = {{6, 5 * store_records_per_block(6) + 7, 0xb10c0ULL},
                          {7, 1000000, 0xb10c7ULL}};
  for (const Input& input : inputs) {
    const int n = input.n;
    const std::size_t count = input.count;
    SCOPED_TRACE("n=" + std::to_string(n) + " records=" + std::to_string(count));
    const auto records = synthetic_records(n, count, input.seed);
    const std::string path = temp_path("blockpack_probe_" + std::to_string(n) + ".fcs");
    write_v3_file(path, n, records);

    const auto segment = MmapSegment::open(path);
    EXPECT_EQ(file_version(path), kStoreVersion);
    EXPECT_EQ(segment->num_pages(), store_num_blocks(count, n));
    ASSERT_EQ(segment->size(), count);

    // Every present key resolves by touching EXACTLY one data block — the
    // binary search runs over the in-RAM block keys — and answers the id
    // its record was written with.
    const std::size_t stride = std::max<std::size_t>(11, count / 10000);
    for (std::size_t i = 0; i < count; i += stride) {
      const auto before = segment->probe_stats();
      const auto hit = segment->find(records[i].canonical);
      const auto after = segment->probe_stats();
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->class_id, records[i].class_id);
      EXPECT_EQ(after.probes - before.probes, 1u);
      EXPECT_EQ(after.pages - before.pages, 1u) << "present-key probe must touch one block";
    }

    // A key below the first block key (the constant 0, the least table) is
    // provably absent without touching a single data page.
    const TruthTable below{n};
    if (below < records.front().canonical) {
      const auto before = segment->probe_stats();
      EXPECT_FALSE(segment->find(below).has_value());
      const auto after = segment->probe_stats();
      EXPECT_EQ(after.pages - before.pages, 0u)
          << "below-range miss must resolve from the in-RAM block keys alone";
    }

    // Planted misses miss, each touching at most one block.
    std::mt19937_64 rng{0xab5eULL};
    for (int i = 0; i < 2000; ++i) {
      const TruthTable probe = tt_random(n, rng);
      const auto it = std::lower_bound(
          records.begin(), records.end(), probe,
          [](const StoreRecord& r, const TruthTable& k) { return r.canonical < k; });
      if (it != records.end() && it->canonical == probe) {
        continue;
      }
      const auto before = segment->probe_stats();
      EXPECT_FALSE(segment->find(probe).has_value());
      const auto after = segment->probe_stats();
      EXPECT_LE(after.pages - before.pages, 1u);
    }
    std::remove(path.c_str());
  }
}

TEST(StoreBlockPack, EmptyOneRecordAndBlockBoundaryCounts)
{
  const int n = 6;
  const std::size_t per_block = store_records_per_block(n);
  // The exact counts where block geometry changes shape: empty file, a
  // single record, one record short of a full block, exactly one block,
  // one spilling into a second block, exactly two blocks.
  const std::size_t counts[] = {0, 1, per_block - 1, per_block, per_block + 1, 2 * per_block};
  for (const std::size_t count : counts) {
    SCOPED_TRACE("count=" + std::to_string(count));
    const auto records = synthetic_records(n, count, 0xedce + count);
    const std::string path = temp_path("blockpack_edge_" + std::to_string(count) + ".fcs");
    write_v3_file(path, n, records);

    // Materialized open: eager full validation.
    const ClassStore loaded = ClassStore::open(path);
    ASSERT_EQ(loaded.num_records(), count);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto hit = loaded.find_canonical(records[i].canonical);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->class_id, records[i].class_id);
    }

    // Mmap open: same answers through the blocked search.
    const auto segment = MmapSegment::open(path);
    ASSERT_EQ(segment->size(), count);
    EXPECT_EQ(segment->num_pages(), store_num_blocks(count, n));
    for (std::size_t i = 0; i < records.size(); ++i) {
      const auto hit = segment->find(records[i].canonical);
      ASSERT_TRUE(hit.has_value());
      EXPECT_EQ(hit->class_id, records[i].class_id);
    }
    std::mt19937_64 rng{0x4bULL + count};
    for (int k = 0; k < 32; ++k) {
      const TruthTable probe = tt_random(n, rng);
      const bool in_loaded = loaded.find_canonical(probe).has_value();
      EXPECT_EQ(segment->find(probe).has_value(), in_loaded);
    }
    std::remove(path.c_str());
  }
}

void store_le64(std::string& bytes, std::size_t offset, std::uint64_t value)
{
  for (int i = 0; i < 8; ++i) {
    bytes[offset + static_cast<std::size_t>(i)] = static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

TEST(StoreBlockPack, CorruptBlockAndTableAreRejected)
{
  const int n = 6;
  const std::size_t per_block = store_records_per_block(n);
  const std::size_t count = 3 * per_block;
  const auto records = synthetic_records(n, count, 0xbadb10cULL);
  const std::string path = temp_path("blockpack_corrupt.fcs");
  write_v3_file(path, n, records);
  const std::string good = read_file(path);
  // n = 6 geometry: one key word per block, three blocks.
  const std::size_t last_block = kStorePageBytes + 2 * kStorePageBytes;
  const std::size_t key_table = kStorePageBytes + 3 * kStorePageBytes;
  const std::size_t checksum_table = key_table + 3 * 8;
  // Re-stamps the header's table hash, so only the block checks can object.
  const auto rehash_tables = [&](std::string& bytes) {
    store_le64(bytes, 32,
               checksum_le_words(reinterpret_cast<const unsigned char*>(bytes.data()) + key_table,
                                 6));
  };

  // Damage the layout parse sees: both flavors reject at open.
  const auto expect_rejected_at_open = [&](const std::string& bad) {
    write_file(path, bad);
    EXPECT_THROW((void)ClassStore::open(path, StoreOpenOptions{.use_mmap = false}),
                 StoreFormatError);
    EXPECT_THROW((void)ClassStore::open(path, StoreOpenOptions{.use_mmap = true}),
                 StoreFormatError);
  };
  // Damage inside the last block: the materialized loader rejects up front;
  // the mmap flavor opens, serves untouched blocks, and throws at first
  // touch of the damaged one.
  const auto expect_rejected_at_last_block = [&](const std::string& bad) {
    write_file(path, bad);
    EXPECT_THROW((void)ClassStore::open(path, StoreOpenOptions{.use_mmap = false}),
                 StoreFormatError);
    const auto segment = MmapSegment::open(path);
    EXPECT_EQ(segment->pages_validated(), 0u);
    EXPECT_TRUE(segment->find(records.front().canonical).has_value());
    EXPECT_THROW((void)segment->find(records.back().canonical), StoreFormatError);
    EXPECT_THROW((void)segment->record_at(count - 1), StoreFormatError);
  };

  // A flipped bit in a record of the last block fails its block checksum.
  {
    std::string bad = good;
    const std::size_t offset = last_block + 5 * store_record_words(n) * 8 + 2;
    bad[offset] = static_cast<char>(bad[offset] ^ 0x40);
    expect_rejected_at_last_block(bad);
  }
  // A block key that no longer leads its block, under a re-stamped table
  // hash: only the key-vs-block cross-check catches it. The key still
  // sorts between its neighbours, so probes keep landing on that block.
  {
    std::string bad = good;
    const std::uint64_t key = load_le64(reinterpret_cast<const unsigned char*>(bad.data()) +
                                        key_table + 2 * 8);
    store_le64(bad, key_table + 2 * 8, key - 1);
    rehash_tables(bad);
    expect_rejected_at_last_block(bad);
  }
  // Nonzero bytes past the last record of a block, under a re-stamped
  // block checksum and table hash: only the padding check catches it.
  {
    std::string bad = good;
    ASSERT_LT(per_block * store_record_words(n) * 8, kStorePageBytes);
    bad[last_block + kStorePageBytes - 1] = 0x5a;
    store_le64(bad, checksum_table + 2 * 8,
               checksum_le_words(reinterpret_cast<const unsigned char*>(bad.data()) + last_block,
                                 kStorePageWords));
    rehash_tables(bad);
    expect_rejected_at_last_block(bad);
  }
  // A flipped bit in the block-key table breaks the header's table
  // checksum.
  {
    std::string bad = good;
    bad[key_table + 4] = static_cast<char>(bad[key_table + 4] ^ 0x01);
    expect_rejected_at_open(bad);
  }
  // Nonzero bytes in the header padding page are a structural violation.
  {
    std::string bad = good;
    bad[kStoreHeaderBytes + 17] = 0x5a;
    expect_rejected_at_open(bad);
  }
  // A truncated tail (lost footer) never passes.
  expect_rejected_at_open(good.substr(0, good.size() - 8));
  std::remove(path.c_str());
}

TEST(StoreBlockPack, MergeReadsBothBaseFlavorsAndEmitsV3)
{
  const int n = 5;
  const auto funcs_a = make_npn_workload(n, 25, 2, 0x33aULL);
  const auto funcs_b = make_npn_workload(n, 25, 2, 0x33bULL);
  const ClassStore built_a = build_class_store(funcs_a, {});
  const ClassStore built_b = build_class_store(funcs_b, {});
  const std::string path_a = temp_path("merge_input_a.fcs");
  const std::string path_b = temp_path("merge_input_b.fcs");
  const std::string path_out = temp_path("merge_output.fcs");
  built_a.save(path_a);
  built_b.save(path_b);

  // One materialized input and one mmap-backed input (where supported).
  const ClassStore loaded_a = ClassStore::open(path_a);
  const ClassStore opened_b =
      ClassStore::open(path_b, StoreOpenOptions{.use_mmap = true});
  const ClassStore merged = merge_class_stores({&loaded_a, &opened_b});
  merged.save(path_out);
  EXPECT_EQ(file_version(path_out), kStoreVersion);

  const ClassStore reopened = ClassStore::open(path_out);
  for (const auto& record : built_a.persisted_records()) {
    EXPECT_TRUE(reopened.find_canonical(record.canonical).has_value());
  }
  for (const auto& record : built_b.persisted_records()) {
    EXPECT_TRUE(reopened.find_canonical(record.canonical).has_value());
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  std::remove(path_out.c_str());
}

TEST(StoreBlockPack, RouterDispatchesOverTwoWidths)
{
  const int n_a = 5;
  const int n_b = 6;
  const auto funcs_a = make_npn_workload(n_a, 20, 2, 0x70aULL);
  const auto funcs_b = make_npn_workload(n_b, 20, 2, 0x70bULL);
  const ClassStore built_a = build_class_store(funcs_a, {});
  const ClassStore built_b = build_class_store(funcs_b, {});
  const std::string path_a = temp_path("blockpack_router_width5.fcs");
  const std::string path_b = temp_path("blockpack_router_width6.fcs");
  built_a.save(path_a);
  built_b.save(path_b);

  StoreRouter router = StoreRouter::open({path_a, path_b});
  ASSERT_EQ(router.num_stores(), 2u);
  for (const auto& f : funcs_a) {
    const auto expected = built_a.lookup(f);
    const auto routed = router.store_for(f.num_vars())->lookup(f);
    ASSERT_TRUE(routed.has_value());
    EXPECT_EQ(routed->class_id, expected->class_id);
  }
  for (const auto& f : funcs_b) {
    const auto expected = built_b.lookup(f);
    const auto routed = router.store_for(f.num_vars())->lookup(f);
    ASSERT_TRUE(routed.has_value());
    EXPECT_EQ(routed->class_id, expected->class_id);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

class StoreReload : public ::testing::TestWithParam<bool> {};

TEST_P(StoreReload, ReplicaAdoptsAppendsAndCompactionWithoutTouchingTheLog)
{
  const bool use_mmap = GetParam();
  const int n = 5;
  const auto funcs = make_npn_workload(n, 30, 2, 0x4e10ULL);
  const std::string path = temp_path(use_mmap ? "reload_mmap.fcs" : "reload.fcs");
  const std::string dlog = ClassStore::delta_log_path(path);
  std::remove(dlog.c_str());
  build_class_store(funcs, {}).save(path);

  const StoreOpenOptions open_options{.use_mmap = use_mmap};
  ClassStore primary = ClassStore::open(path, open_options);
  ClassStore replica = ClassStore::open(path, open_options);

  // Primary appends and flushes; the replica reloads and serves the new
  // classes with the primary's ids.
  const auto novel = novel_functions(primary, 4, 0x4e11ULL);
  std::vector<std::uint32_t> ids;
  for (const auto& f : novel) {
    ids.push_back(primary.lookup_or_classify(f, /*append_on_miss=*/true).class_id);
  }
  ASSERT_EQ(primary.flush_delta(dlog), novel.size());
  EXPECT_FALSE(replica.lookup(novel.front()).has_value());
  const std::size_t served = replica.reload(path);
  EXPECT_EQ(served, replica.num_records());
  EXPECT_EQ(replica.num_delta_segments(), 1u);
  replica.clear_hot_cache();
  for (std::size_t i = 0; i < novel.size(); ++i) {
    const auto hit = replica.lookup(novel[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->class_id, ids[i]);
  }

  // Primary compacts (rename + dlog removal); the replica reload adopts
  // the fresh v3 base and keeps every id.
  primary.compact(path);
  ASSERT_EQ(file_version(path), kStoreVersion);
  (void)replica.reload(path);
  EXPECT_EQ(replica.num_delta_segments(), 0u);
  replica.clear_hot_cache();
  for (std::size_t i = 0; i < novel.size(); ++i) {
    const auto hit = replica.lookup(novel[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->class_id, ids[i]);
  }

  // A torn trailing frame — the primary caught mid-append — is dropped
  // from the replay but the FILE is untouched: the log belongs to the
  // primary, and only the primary repairs it.
  const auto more = novel_functions(primary, 2, 0x4e12ULL);
  for (const auto& f : more) {
    (void)primary.lookup_or_classify(f, /*append_on_miss=*/true);
  }
  ASSERT_EQ(primary.flush_delta(dlog), more.size());
  const std::string good_log = read_file(dlog);
  const std::string torn = good_log + good_log.substr(0, good_log.size() - 5);
  write_file(dlog, torn);
  (void)replica.reload(path);
  EXPECT_EQ(replica.num_delta_segments(), 1u);
  EXPECT_EQ(read_file(dlog).size(), torn.size()) << "a replica must never truncate the log";
  replica.clear_hot_cache();
  for (const auto& f : more) {
    EXPECT_TRUE(replica.lookup(f).has_value());
  }

  // A reload that fails (corrupt complete frame) leaves the replica
  // serving its previous epoch.
  std::string bad_log = good_log;
  bad_log[kDeltaFrameHeaderBytes + 2] =
      static_cast<char>(bad_log[kDeltaFrameHeaderBytes + 2] ^ 0x01);
  write_file(dlog, bad_log);
  EXPECT_THROW((void)replica.reload(path), StoreFormatError);
  replica.clear_hot_cache();
  for (const auto& f : more) {
    EXPECT_TRUE(replica.lookup(f).has_value());
  }
  std::remove(dlog.c_str());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(MaterializedAndMmap, StoreReload, ::testing::Values(false, true));

}  // namespace
}  // namespace facet
