/// Tests for the parallel batch-classification engine: bit-identity with
/// every sequential classifier, determinism across thread/shard counts,
/// memo-cache behavior, and degenerate inputs.

#include "facet/engine/batch_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "facet/data/dataset.hpp"
#include "facet/engine/work_queue.hpp"
#include "facet/npn/codesign.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/hierarchical.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

std::vector<ClassifierKind> all_kinds()
{
  return {ClassifierKind::kExact,        ClassifierKind::kExhaustive, ClassifierKind::kFp,
          ClassifierKind::kFpHashed,     ClassifierKind::kSemiCanonical,
          ClassifierKind::kHierarchical, ClassifierKind::kCodesign};
}

ClassificationResult sequential_reference(ClassifierKind kind, std::span<const TruthTable> funcs)
{
  switch (kind) {
    case ClassifierKind::kExact:
      return classify_exact(funcs);
    case ClassifierKind::kExhaustive:
      return classify_exhaustive(funcs);
    case ClassifierKind::kFp:
      return classify_fp(funcs, SignatureConfig::all());
    case ClassifierKind::kFpHashed:
      return classify_fp_hashed(funcs, SignatureConfig::all());
    case ClassifierKind::kSemiCanonical:
      return classify_semi_canonical(funcs);
    case ClassifierKind::kHierarchical:
      return classify_hierarchical(funcs);
    case ClassifierKind::kCodesign:
      return classify_codesign(funcs);
  }
  throw std::logic_error{"unknown kind"};
}

void expect_identical(const ClassificationResult& a, const ClassificationResult& b)
{
  ASSERT_EQ(a.num_classes, b.num_classes);
  ASSERT_EQ(a.class_of, b.class_of);
}

TEST(WorkerPool, RunsEveryIndexExactlyOnce)
{
  WorkerPool pool{4};
  EXPECT_EQ(pool.num_threads(), 4u);
  std::vector<std::atomic<int>> counts(1000);
  pool.run_indexed(counts.size(), [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(WorkerPool, EmptyBatchReturnsImmediately)
{
  WorkerPool pool{2};
  bool called = false;
  pool.run_indexed(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(WorkerPool, PropagatesTaskExceptions)
{
  WorkerPool pool{3};
  EXPECT_THROW(pool.run_indexed(64,
                                [&](std::size_t i) {
                                  if (i == 17) {
                                    throw std::runtime_error{"boom"};
                                  }
                                }),
               std::runtime_error);
}

TEST(BatchEngine, MatchesEverySequentialClassifierOnRandomSets)
{
  for (const int n : {4, 5, 6}) {
    const auto funcs = make_random_dataset(n, 400, 0xbeef + static_cast<std::uint64_t>(n));
    for (const auto kind : all_kinds()) {
      BatchEngineOptions options;
      options.num_threads = 4;
      BatchEngine engine{kind, options};
      const auto parallel = engine.classify(funcs);
      const auto sequential = sequential_reference(kind, funcs);
      SCOPED_TRACE("n=" + std::to_string(n) + " kind=" + classifier_kind_name(kind));
      expect_identical(parallel, sequential);
    }
  }
}

TEST(BatchEngine, MatchesSequentialOnCircuitDerivedSet)
{
  CircuitDatasetOptions options;
  options.max_functions = 2000;
  const auto funcs = make_circuit_dataset(5, options);
  ASSERT_FALSE(funcs.empty());
  for (const auto kind : all_kinds()) {
    BatchEngineOptions engine_options;
    engine_options.num_threads = 4;
    SCOPED_TRACE(classifier_kind_name(kind));
    expect_identical(classify_batch(funcs, kind, engine_options), sequential_reference(kind, funcs));
  }
}

TEST(BatchEngine, OneThreadAndManyThreadsAgree)
{
  const auto funcs = make_random_dataset(6, 600, 0x5eed);
  for (const auto kind : all_kinds()) {
    BatchEngineOptions one;
    one.num_threads = 1;
    BatchEngineOptions many;
    many.num_threads = 8;
    SCOPED_TRACE(classifier_kind_name(kind));
    expect_identical(classify_batch(funcs, kind, one), classify_batch(funcs, kind, many));
  }
}

TEST(BatchEngine, ShardCountDoesNotChangeTheResult)
{
  const auto funcs = make_random_dataset(5, 300, 77);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    BatchEngineOptions options;
    options.num_threads = 4;
    options.num_shards = shards;
    expect_identical(classify_batch(funcs, ClassifierKind::kExact, options), classify_exact(funcs));
  }
}

TEST(BatchEngine, EmptyInput)
{
  for (const auto kind : all_kinds()) {
    BatchEngineOptions options;
    options.num_threads = 4;
    BatchEngineStats stats;
    const auto result = classify_batch({}, kind, options, &stats);
    EXPECT_EQ(result.num_classes, 0u);
    EXPECT_TRUE(result.class_of.empty());
    EXPECT_EQ(stats.shards_used, 0u);
  }
}

TEST(BatchEngine, SingleFunction)
{
  const std::vector<TruthTable> funcs{tt_majority(5)};
  for (const auto kind : all_kinds()) {
    const auto result = classify_batch(funcs, kind, {.num_threads = 4});
    EXPECT_EQ(result.num_classes, 1u);
    ASSERT_EQ(result.class_of.size(), 1u);
    EXPECT_EQ(result.class_of[0], 0u);
  }
}

TEST(BatchEngine, DuplicateHeavyInputHitsTheCache)
{
  // 64 distinct functions, each repeated 16 times — the cut-enumeration
  // profile the memo cache targets.
  const auto base = make_random_dataset(6, 64, 13);
  std::vector<TruthTable> funcs;
  for (int rep = 0; rep < 16; ++rep) {
    funcs.insert(funcs.end(), base.begin(), base.end());
  }

  BatchEngineOptions options;
  options.num_threads = 4;
  BatchEngine engine{ClassifierKind::kCodesign, options};
  BatchEngineStats stats;
  const auto parallel = engine.classify(funcs, &stats);
  expect_identical(parallel, classify_codesign(funcs));
  // Every repeat of a function is a hit; only distinct tables miss.
  EXPECT_EQ(stats.cache_misses, base.size());
  EXPECT_EQ(stats.cache_hits, funcs.size() - base.size());

  // A second call over the same set is fully memoized.
  BatchEngineStats again;
  expect_identical(engine.classify(funcs, &again), parallel);
  EXPECT_EQ(again.cache_misses, 0u);
  EXPECT_EQ(again.cache_hits, funcs.size());
}

TEST(BatchEngine, MemoizationOffStillMatchesSequential)
{
  const auto funcs = make_random_dataset(5, 200, 3);
  BatchEngineOptions options;
  options.num_threads = 4;
  BatchEngine engine{ClassifierKind::kHierarchical, options};
  const ClassificationResult sequential = classify_hierarchical(funcs);
  expect_identical(engine.classify(funcs), sequential);
  // With the memo cleared between calls the second call recomputes
  // everything, and still matches.
  engine.clear_cache();
  BatchEngineStats stats;
  expect_identical(engine.classify(funcs, &stats), sequential);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, funcs.size());
  EXPECT_GT(stats.cache_misses, 0u);
}

TEST(BatchEngine, KindNamesRoundTrip)
{
  for (const auto kind : all_kinds()) {
    const auto name = classifier_kind_name(kind);
    const auto parsed = classifier_kind_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(classifier_kind_from_name("nope").has_value());
  EXPECT_EQ(classifier_kind_from_name("exhaustive"), ClassifierKind::kExhaustive);
}

TEST(BatchEngine, StatsReportShardsAndThreads)
{
  const auto funcs = make_random_dataset(6, 500, 11);
  BatchEngineOptions options;
  options.num_threads = 4;
  options.num_shards = 16;
  BatchEngine engine{ClassifierKind::kSemiCanonical, options};
  EXPECT_EQ(engine.num_threads(), 4u);
  EXPECT_EQ(engine.num_shards(), 16u);
  BatchEngineStats stats;
  (void)engine.classify(funcs, &stats);
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_GE(stats.shards_used, 1u);
  EXPECT_LE(stats.shards_used, 16u);
  EXPECT_GE(stats.max_shard_size, funcs.size() / 16);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, funcs.size());
}

}  // namespace
}  // namespace facet
