/// Tests of the multi-width store federation: StoreRouter dispatch and
/// reopening, the router serve loop (width inference, mlookup batching),
/// and the fcs-merge union (dedup by canonical form, renumber by first
/// occurrence).

#include "facet/store/store_router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/merge.hpp"
#include "facet/store/serve.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"
#include "facet/tt/tt_transform.hpp"
#include "serve_session.hpp"

namespace facet {
namespace {

using serve_test::run_router_serve;

std::vector<TruthTable> random_funcs(int n, std::size_t count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return funcs;
}

/// A router over freshly-built stores of widths [lo, hi].
StoreRouter make_router(int lo, int hi, std::uint64_t seed,
                        std::vector<std::vector<TruthTable>>* datasets = nullptr)
{
  StoreRouter router;
  for (int n = lo; n <= hi; ++n) {
    auto funcs = random_funcs(n, 30, seed + static_cast<unsigned>(n));
    router.attach(std::make_unique<ClassStore>(build_class_store(funcs, {})));
    if (datasets != nullptr) {
      datasets->push_back(std::move(funcs));
    }
  }
  return router;
}

TEST(StoreRouter, DispatchesByWidthAndRejectsUnrouted)
{
  std::vector<std::vector<TruthTable>> datasets;
  StoreRouter router = make_router(3, 5, 0x40c7e0ULL, &datasets);
  EXPECT_EQ(router.num_stores(), 3u);
  EXPECT_EQ(router.widths(), (std::vector<int>{3, 4, 5}));

  for (const auto& funcs : datasets) {
    const ClassStore* store = router.store_for(funcs.front().num_vars());
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->num_vars(), funcs.front().num_vars());
    // Each width's ids are the sequential classifier's on that width's set.
    const ClassificationResult expected = classify_exhaustive(funcs);
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      const auto routed = store->lookup(funcs[i]);
      ASSERT_TRUE(routed.has_value());
      EXPECT_EQ(routed->class_id, expected.class_of[i]);
      EXPECT_EQ(apply_transform(funcs[i], routed->to_representative), routed->representative);
    }
  }

  EXPECT_EQ(router.store_for(6), nullptr);

  // A second store of an already-routed width is a caller bug.
  EXPECT_THROW(router.attach(std::make_unique<ClassStore>(4)), std::invalid_argument);
  EXPECT_THROW(router.attach(nullptr), std::invalid_argument);
}

TEST(StoreRouter, OpenRestoresEveryWidthFromDisk)
{
  std::vector<std::vector<TruthTable>> datasets;
  StoreRouter built = make_router(3, 5, 0x40c7e1ULL, &datasets);

  std::vector<std::string> paths;
  for (const int n : built.widths()) {
    paths.push_back(::testing::TempDir() + "router_width" + std::to_string(n) + ".fcs");
    built.store_for(n)->save(paths.back());
  }

  for (const bool use_mmap : {false, true}) {
    StoreOpenOptions options;
    options.use_mmap = use_mmap;
    StoreRouter opened = StoreRouter::open(paths, options);
    EXPECT_EQ(opened.widths(), built.widths());
    for (const auto& funcs : datasets) {
      for (const auto& f : funcs) {
        const auto expected = built.store_for(f.num_vars())->lookup(f);
        const auto actual = opened.store_for(f.num_vars())->lookup(f);
        ASSERT_TRUE(actual.has_value());
        EXPECT_EQ(actual->class_id, expected->class_id);
      }
    }
  }
  // Duplicate widths across files are rejected.
  std::vector<std::string> duplicated = paths;
  duplicated.push_back(paths.front());
  EXPECT_THROW((void)StoreRouter::open(duplicated), std::invalid_argument);
  for (const auto& path : paths) {
    std::remove(path.c_str());
  }
}

// -- serve protocol ----------------------------------------------------------

TEST(StoreRouterServe, HexOperandWidthInference)
{
  EXPECT_EQ(hex_operand_width("8"), 2);
  EXPECT_EQ(hex_operand_width("e8"), 3);
  EXPECT_EQ(hex_operand_width("688d"), 4);
  EXPECT_EQ(hex_operand_width("0x688d"), 4);
  EXPECT_EQ(hex_operand_width(std::string(8, 'a')), 5);
  EXPECT_EQ(hex_operand_width(std::string(16, 'a')), 6);
  EXPECT_EQ(hex_operand_width(std::string(32, 'a')), 7);
  EXPECT_EQ(hex_operand_width(std::string(64, 'a')), 8);
  EXPECT_EQ(hex_operand_width(""), -1);
  EXPECT_EQ(hex_operand_width("abc"), -1);   // 3 digits: not a power of two
  EXPECT_EQ(hex_operand_width("0x"), -1);
}

TEST(StoreRouterServe, OneSessionAnswersMixedWidths)
{
  std::vector<std::vector<TruthTable>> datasets;
  StoreRouter router = make_router(3, 5, 0x40c7e5ULL, &datasets);
  const std::string hex3 = to_hex(datasets[0].front());
  const std::string hex4 = to_hex(datasets[1].front());
  const std::string hex5 = to_hex(datasets[2].front());

  ServeStats stats;
  const auto lines = run_router_serve(router,
                                      "lookup " + hex3 + "\n" +
                                          "lookup " + hex4 + "\n" +
                                          "lookup " + hex5 + "\n" +
                                          "lookup " + std::string(16, '0') + "\n" +  // n=6: unrouted
                                          "lookup abc\n" +  // impossible digit count
                                          "info\nstats\nquit\n",
                                      &stats);
  ASSERT_EQ(lines.size(), 8u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(lines[static_cast<std::size_t>(i)].rfind("ok id=", 0), 0u) << lines[i];
    EXPECT_NE(lines[static_cast<std::size_t>(i)].find("known=1"), std::string::npos) << lines[i];
  }
  EXPECT_EQ(lines[3], "err no store routes width 6");
  EXPECT_EQ(lines[4].rfind("err operand", 0), 0u) << lines[4];
  EXPECT_EQ(lines[5].rfind("ok widths=3,4,5 stores=3 ", 0), 0u) << lines[5];
  EXPECT_EQ(lines[6].rfind("ok requests=", 0), 0u);
  EXPECT_EQ(lines[7], "ok bye");
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.errors, 2u);
}

TEST(StoreRouterServe, MlookupBatchesMixedWidths)
{
  std::vector<std::vector<TruthTable>> datasets;
  StoreRouter router = make_router(3, 4, 0x40c7e6ULL, &datasets);
  const std::string hex3 = to_hex(datasets[0].front());
  const std::string hex4 = to_hex(datasets[1].front());

  ServeStats stats;
  const auto lines = run_router_serve(
      router, "mlookup " + hex3 + " " + hex4 + " zzzz " + hex3 + "\nmlookup\nquit\n", &stats);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0].rfind("ok id=", 0), 0u);
  EXPECT_EQ(lines[1].rfind("ok id=", 0), 0u);
  EXPECT_EQ(lines[2].rfind("err ", 0), 0u) << "bad operand answers err in place";
  EXPECT_EQ(lines[3].rfind("ok id=", 0), 0u) << "the batch continues past errors";
  EXPECT_EQ(lines[4].rfind("err mlookup takes", 0), 0u);
  EXPECT_EQ(lines[5], "ok bye");
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.errors, 2u);
  // Widths 3 and 4 both sit under the NPN4 table tier, so every hit —
  // including the repeat within the batch — answers src=table.
  EXPECT_EQ(stats.table_hits, 3u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

// -- fcs-merge ---------------------------------------------------------------

TEST(StoreMerge, UnionDedupsByCanonicalAndRenumbersByFirstOccurrence)
{
  const int n = 4;
  std::mt19937_64 rng{0x40c7e7ULL};
  // Two overlapping datasets: B repeats some of A's functions (transformed,
  // so the overlap is by class, not by table).
  const auto funcs_a = random_funcs(n, 40, 0x40c7e8ULL);
  std::vector<TruthTable> funcs_b = random_funcs(n, 25, 0x40c7e9ULL);
  for (std::size_t i = 0; i < funcs_a.size(); i += 4) {
    funcs_b.push_back(apply_transform(funcs_a[i], NpnTransform::random(n, rng)));
  }
  std::shuffle(funcs_b.begin(), funcs_b.end(), rng);

  const ClassStore store_a = build_class_store(funcs_a, {});
  const ClassStore store_b = build_class_store(funcs_b, {});
  const ClassStore merged = merge_class_stores({&store_a, &store_b});

  // Size: |A| + |B| - |overlap|, where overlap counts shared canonicals.
  std::size_t overlap = 0;
  for (const auto& record : store_b.persisted_records()) {
    overlap += store_a.find_canonical(record.canonical).has_value() ? 1 : 0;
  }
  EXPECT_EQ(merged.num_records(),
            store_a.num_records() + store_b.num_records() - overlap);
  EXPECT_EQ(merged.num_classes(), merged.num_records());

  // First occurrence = store A's ids survive verbatim...
  for (const auto& record : store_a.persisted_records()) {
    const auto found = merged.find_canonical(record.canonical);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->class_id, record.class_id);
    EXPECT_EQ(found->representative, record.representative);
    // ...and shared classes accumulate B's members.
    const auto in_b = store_b.find_canonical(record.canonical);
    const std::uint32_t expected_size =
        record.class_size + (in_b.has_value() ? in_b->class_size : 0);
    EXPECT_EQ(found->class_size, expected_size);
  }
  // B-only classes renumber densely after A's, in B's id order.
  std::uint32_t next_expected = static_cast<std::uint32_t>(store_a.num_classes());
  std::vector<StoreRecord> b_records{store_b.persisted_records()};
  std::sort(b_records.begin(), b_records.end(),
            [](const StoreRecord& x, const StoreRecord& y) { return x.class_id < y.class_id; });
  for (const auto& record : b_records) {
    if (store_a.find_canonical(record.canonical).has_value()) {
      continue;
    }
    const auto found = merged.find_canonical(record.canonical);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->class_id, next_expected++);
  }

  // Classifying A's dataset through merged lookups reproduces A's ids —
  // the bit-identity contract survives the union.
  const ClassificationResult expected_a = classify_exhaustive(funcs_a);
  for (std::size_t i = 0; i < funcs_a.size(); ++i) {
    const auto result = merged.lookup(funcs_a[i]);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->class_id, expected_a.class_of[i]);
  }

  // Round trip through disk.
  const std::string path = ::testing::TempDir() + "merged_union.fcs";
  merged.save(path);
  const ClassStore reloaded = ClassStore::open(path);
  ASSERT_EQ(reloaded.num_records(), merged.num_records());
  for (const auto& f : funcs_b) {
    const auto before = merged.lookup(f);
    const auto after = reloaded.lookup(f);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->class_id, before->class_id);
  }
  std::remove(path.c_str());

  EXPECT_THROW((void)merge_class_stores({}), std::invalid_argument);
  const ClassStore other_width{5};
  EXPECT_THROW((void)merge_class_stores({&store_a, &other_width}), std::invalid_argument);
}

TEST(StoreMerge, MergeIncludesDeltaSegmentsAndMemtable)
{
  const int n = 4;
  std::mt19937_64 rng{0x40c7eaULL};
  const auto funcs = random_funcs(n, 20, 0x40c7ebULL);
  ClassStore store = build_class_store(funcs, {});
  const auto base_classes = store.num_classes();

  // One appended class sealed into a delta, one left in the memtable.
  std::vector<TruthTable> novel;
  while (novel.size() < 2) {
    const TruthTable f = tt_random(n, rng);
    if (!store.lookup(f).has_value()) {
      (void)store.lookup_or_classify(f, /*append_on_miss=*/true);
      novel.push_back(f);
      if (novel.size() == 1) {
        std::ostringstream frame;
        (void)store.flush_delta(frame);
      }
    }
  }
  ASSERT_EQ(store.num_delta_segments(), 1u);
  ASSERT_EQ(store.num_appended(), 1u);

  const ClassStore merged = merge_class_stores({&store});
  EXPECT_EQ(merged.num_records(), base_classes + 2);
  for (const auto& f : novel) {
    EXPECT_TRUE(merged.lookup(f).has_value());
  }
}

}  // namespace
}  // namespace facet
