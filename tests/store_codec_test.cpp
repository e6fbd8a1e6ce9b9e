/// Tests of the one record codec that RAM and disk share: the segment
/// writers' bytes against goldens fixed before the in-RAM segments moved
/// onto packed record words, and records -> packed segment -> find /
/// record_at round trips at every width a store block holds, for both
/// segment flavors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "facet/store/segment.hpp"
#include "facet/store/store_format.hpp"

namespace facet {
namespace {

/// splitmix64: the golden record sets must not depend on a standard
/// library's distributions or shuffles.
struct GoldenRng {
  std::uint64_t state;
  std::uint64_t next()
  {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Up to `count` records of width n with distinct random canonical forms,
/// sorted by canonical form, and random representatives, transforms, ids
/// (below count + 7) and sizes.
std::vector<StoreRecord> golden_records(int n, std::size_t count, std::uint64_t seed)
{
  GoldenRng rng{seed};
  const std::size_t words = words_for_vars(n);
  const auto random_table = [&] {
    std::vector<std::uint64_t> w(words);
    for (auto& word : w) {
      word = rng.next();
    }
    return TruthTable{n, w};
  };
  std::vector<StoreRecord> records;
  for (std::size_t i = 0; i < count; ++i) {
    NpnTransform t = NpnTransform::identity(n);
    for (int v = n - 1; v > 0; --v) {
      std::swap(t.perm[static_cast<std::size_t>(v)],
                t.perm[static_cast<std::size_t>(rng.next() % static_cast<std::uint64_t>(v + 1))]);
    }
    t.input_neg = static_cast<std::uint32_t>(rng.next() & ((1ULL << n) - 1));
    t.output_neg = (rng.next() & 1) != 0;
    TruthTable canonical = random_table();
    TruthTable representative = random_table();
    records.push_back(StoreRecord{std::move(canonical), std::move(representative), t,
                                  static_cast<std::uint32_t>(rng.next() % (count + 7)),
                                  static_cast<std::uint32_t>(1 + rng.next() % 1000)});
  }
  std::sort(records.begin(), records.end(),
            [](const StoreRecord& a, const StoreRecord& b) { return a.canonical < b.canonical; });
  records.erase(std::unique(records.begin(), records.end(),
                            [](const StoreRecord& a, const StoreRecord& b) {
                              return a.canonical == b.canonical;
                            }),
                records.end());
  return records;
}

/// FNV-1a over a byte string.
std::uint64_t fnv1a(const std::string& bytes)
{
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

void expect_same_record(const StoreRecord& actual, const StoreRecord& expected)
{
  EXPECT_EQ(actual.canonical, expected.canonical);
  EXPECT_EQ(actual.representative, expected.representative);
  EXPECT_EQ(actual.rep_to_canonical, expected.rep_to_canonical);
  EXPECT_EQ(actual.class_id, expected.class_id);
  EXPECT_EQ(actual.class_size, expected.class_size);
}

TEST(StoreCodec, WritersMatchTheirGoldenBytes)
{
  // Hashes of the bytes write_base_segment and write_delta_frame produced
  // for these record sets while segments still held decoded records: the
  // packed-word writers must reproduce every byte.
  struct Golden {
    int n;
    std::size_t count;
    std::size_t records;
    std::size_t base_bytes;
    std::uint64_t base_hash;
    std::size_t delta_bytes;
    std::uint64_t delta_hash;
  };
  const Golden goldens[] = {
      {3, 120, 95, 8248, 0x2c4fe3873f95241aULL, 3840, 0xf7153114deae62cbULL},
      {6, 500, 500, 24696, 0x69a7f1ddbd3a48c3ULL, 20040, 0xac4365b4ff2a1229ULL},
      {7, 300, 300, 24736, 0x291ce96c2709b980ULL, 16840, 0xed9ab59a7399f105ULL},
      {9, 120, 120, 24976, 0x41d7721e2fd571fbULL, 18280, 0x92bc56ce30d5f56fULL},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE("n=" + std::to_string(g.n));
    const auto records =
        golden_records(g.n, g.count, 0x601d0000ULL + static_cast<std::uint64_t>(g.n));
    ASSERT_EQ(records.size(), g.records);
    const std::vector<std::uint64_t> words = encode_records(records);
    std::ostringstream base;
    write_base_segment(base, g.n, g.count + 7, words);
    EXPECT_EQ(base.str().size(), g.base_bytes);
    EXPECT_EQ(fnv1a(base.str()), g.base_hash);
    std::ostringstream delta;
    write_delta_frame(delta, g.n, g.count + 7, words);
    EXPECT_EQ(delta.str().size(), g.delta_bytes);
    EXPECT_EQ(fnv1a(delta.str()), g.delta_hash);
  }
}

/// `segment` holds exactly `records`: record_at, copy_record_words and find
/// for every record, nullopt for keys it lacks and for another width.
void expect_segment_holds(const Segment& segment, const std::vector<StoreRecord>& records,
                          std::uint64_t seed)
{
  const int n = segment.num_vars();
  ASSERT_EQ(segment.size(), records.size());
  const std::vector<std::uint64_t> words = encode_records(records);
  const std::size_t stride = store_record_words(n);
  std::vector<std::uint64_t> copied(stride);
  for (std::size_t i = 0; i < records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    expect_same_record(segment.record_at(i), records[i]);
    segment.copy_record_words(i, copied.data());
    EXPECT_TRUE(std::equal(copied.begin(), copied.end(), words.begin() + i * stride));
    const auto found = segment.find(records[i].canonical);
    ASSERT_TRUE(found.has_value());
    expect_same_record(*found, records[i]);
  }
  // Misses: keys from another seed that the set does not hold.
  std::size_t misses = 0;
  for (const StoreRecord& probe : golden_records(n, 64, seed ^ 0x77ULL)) {
    const bool present = std::binary_search(
        records.begin(), records.end(), probe,
        [](const StoreRecord& a, const StoreRecord& b) { return a.canonical < b.canonical; });
    EXPECT_EQ(segment.find(probe.canonical).has_value(), present);
    misses += present ? 0 : 1;
  }
  if (n >= 4) {
    EXPECT_GT(misses, 0u);
  }
  if (!records.empty()) {
    const int other = n == 0 ? 1 : n - 1;
    EXPECT_FALSE(segment.find(TruthTable{other}).has_value());
  }
}

TEST(StoreCodec, PackedSegmentsRoundTripEveryWidth)
{
  // n = 0..10 covers the single-word, inline two-word and heap table
  // widths; every flavor (RAM, file load, delta replay, mapping) must
  // answer with the source records.
  for (int n = 0; n <= 10; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::uint64_t seed = 0xc0dec000ULL + static_cast<std::uint64_t>(n);
    const std::size_t count = 300;
    const std::uint64_t num_classes = count + 7;  // bounds golden_records' ids
    const std::vector<StoreRecord> records = golden_records(n, count, seed);
    const std::vector<std::uint64_t> words = encode_records(records);
    ASSERT_EQ(words.size(), records.size() * store_record_words(n));

    const MaterializedSegment in_ram{n, words};
    expect_segment_holds(in_ram, records, seed);
    EXPECT_TRUE(std::equal(in_ram.record_words().begin(), in_ram.record_words().end(),
                           words.begin(), words.end()));

    std::ostringstream file;
    write_base_segment(file, n, num_classes, words);
    std::istringstream file_in{file.str()};
    LoadedBase loaded = read_base_segment(file_in);
    EXPECT_EQ(loaded.num_vars, n);
    EXPECT_EQ(loaded.num_classes, num_classes);
    EXPECT_EQ(loaded.record_words, words);
    expect_segment_holds(MaterializedSegment{n, std::move(loaded.record_words)}, records, seed);

    std::ostringstream log;
    write_delta_frame(log, n, num_classes, words);
    std::istringstream log_in{log.str()};
    const DeltaLogReplay replay = read_delta_log(log_in, n);
    ASSERT_EQ(replay.runs.size(), 1u);
    EXPECT_EQ(replay.runs.front().record_words, words);

    const std::string path =
        ::testing::TempDir() + "store_codec_roundtrip_" + std::to_string(n) + ".fcs";
    {
      std::ofstream os{path, std::ios::binary | std::ios::trunc};
      os << file.str();
    }
    expect_segment_holds(*MmapSegment::open(path), records, seed);
    std::remove(path.c_str());
  }
}

TEST(StoreCodec, WritersRejectPartialRecords)
{
  const int n = 6;
  std::vector<std::uint64_t> words = encode_records(golden_records(n, 4, 0x9a27ULL));
  words.pop_back();
  std::ostringstream os;
  EXPECT_THROW(write_base_segment(os, n, 8, words), std::invalid_argument);
  EXPECT_THROW(write_delta_frame(os, n, 8, words), std::invalid_argument);
  EXPECT_THROW((MaterializedSegment{n, words}), std::invalid_argument);
}

TEST(StoreCodec, WidthsWhoseRecordsOverflowABlockAreRejected)
{
  // n = 14 records take 515 words, more than one 512-word block: the
  // writer refuses, and a header claiming the width is corrupt (it used to
  // divide by a zero records-per-block count).
  EXPECT_EQ(store_records_per_block(13), 1u);
  EXPECT_EQ(store_records_per_block(14), 0u);
  std::ostringstream os;
  EXPECT_THROW(write_base_segment(os, 14, 0, {}), std::invalid_argument);

  std::ostringstream file;
  write_base_segment(file, 13, 0, {});
  std::string bytes = file.str();
  bytes[12] = 14;  // num_vars, the high half of the second header word
  std::istringstream is{bytes};
  try {
    (void)read_base_segment(is);
    ADD_FAILURE() << "a header whose records cannot fit a block must be rejected";
  } catch (const StoreFormatError& e) {
    EXPECT_NE(std::string{e.what()}.find("does not fit one store block"), std::string::npos)
        << e.what();
  }
  const std::string path = ::testing::TempDir() + "store_codec_n14.fcs";
  {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    out << bytes;
  }
  EXPECT_THROW((void)MmapSegment::open(path), StoreFormatError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace facet
