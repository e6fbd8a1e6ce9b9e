/// Tests for the parallel batch-classification engine: bit-identity with
/// every sequential classifier, determinism across thread counts, hit/miss
/// accounting, one search per semiclass image, and degenerate inputs; and
/// for the parallel_for / resolve_num_threads pair it runs on.

#include "facet/engine/batch_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "facet/data/dataset.hpp"
#include "facet/npn/codesign.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/hierarchical.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/npn/transform.hpp"
#include "facet/obs/registry.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/util/parallel.hpp"

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

TEST(ParallelFor, RunsEveryIndexExactlyOnce)
{
  std::vector<std::atomic<int>> counts(1000);
  parallel_for(counts.size(), 4, [&](std::size_t i) { counts[i].fetch_add(1); });
  for (const auto& c : counts) {
    EXPECT_EQ(c.load(), 1);
  }
}

TEST(ParallelFor, EmptyBatchReturnsImmediately)
{
  bool called = false;
  parallel_for(0, 2, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, PropagatesTaskExceptions)
{
  std::vector<std::atomic<int>> counts(64);
  EXPECT_THROW(parallel_for(counts.size(), 3,
                            [&](std::size_t i) {
                              if (i == 17) {
                                throw std::runtime_error{"boom"};
                              }
                              counts[i].fetch_add(1);
                            }),
               std::runtime_error);
  // The throw stops no other index: the remaining 63 still ran, once each.
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i].load(), i == 17 ? 0 : 1) << "index " << i;
  }
}

/// Threads of this process right now, as the kernel counts them.
std::size_t live_threads()
{
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stoul(line.substr(8));
    }
  }
  return 0;
}

TEST(ParallelFor, StartsNoMoreThreadsThanItems)
{
  const std::size_t before = live_threads();
  ASSERT_GE(before, 1u);
  std::mutex mutex;
  std::set<std::thread::id> callers;
  std::size_t most_live = 0;
  parallel_for(3, 8, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock{mutex};
    callers.insert(std::this_thread::get_id());
    most_live = std::max(most_live, live_threads());
  });
  EXPECT_GE(callers.size(), 1u);
  EXPECT_LE(callers.size(), 3u);
  // Three items need at most two helpers next to the caller, whatever
  // num_threads asks for.
  EXPECT_LE(most_live, before + 2);
}

TEST(ResolveNumThreads, ZeroIsHardwareConcurrencyAndTheBoundIsInclusive)
{
  // Only resolve_num_threads sees an over-bound count: handed to anything
  // that starts threads, a broken bound would start them.
  const std::size_t hardware = resolve_num_threads(0);
  EXPECT_GE(hardware, 1u);
  EXPECT_LE(hardware, kMaxThreads);
  if (std::thread::hardware_concurrency() != 0) {
    EXPECT_EQ(hardware, std::min<std::size_t>(std::thread::hardware_concurrency(), kMaxThreads));
  }
  EXPECT_EQ(resolve_num_threads(1), 1u);
  EXPECT_EQ(resolve_num_threads(kMaxThreads), kMaxThreads);
  EXPECT_THROW((void)resolve_num_threads(kMaxThreads + 1), std::invalid_argument);
}

TEST(BatchEngine, MatchesEverySequentialClassifierOnRandomSets)
{
  for (const int n : {4, 5, 6}) {
    const auto funcs = make_random_dataset(n, 400, 0xbeef + static_cast<std::uint64_t>(n));
    for (const auto kind : all_kinds()) {
      SCOPED_TRACE("n=" + std::to_string(n) + " kind=" + classifier_kind_name(kind));
      expect_identical(classify_batch(funcs, kind, {.num_threads = 4}), sequential_reference(kind, funcs));
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

TEST(BatchEngine, ThreadCountDoesNotChangeTheResult)
{
  // 1..7 threads split the key computations 8 to 56 ways.
  const auto funcs = make_random_dataset(5, 300, 77);
  for (const auto kind : all_kinds()) {
    const ClassificationResult sequential = sequential_reference(kind, funcs);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{7}}) {
      SCOPED_TRACE(classifier_kind_name(kind) + " threads=" + std::to_string(threads));
      expect_identical(classify_batch(funcs, kind, {.num_threads = threads}), sequential);
    }
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
    EXPECT_EQ(stats.threads, 4u);
    EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
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
  // profile the engine's dedup targets.
  const auto base = make_random_dataset(6, 64, 13);
  std::vector<TruthTable> funcs;
  for (int rep = 0; rep < 16; ++rep) {
    funcs.insert(funcs.end(), base.begin(), base.end());
  }

  BatchEngineStats stats;
  expect_identical(classify_batch(funcs, ClassifierKind::kCodesign, {.num_threads = 4}, &stats),
                   classify_codesign(funcs));
  // Every repeat of a function is a hit; only distinct tables miss.
  EXPECT_EQ(stats.cache_misses, base.size());
  EXPECT_EQ(stats.cache_hits, funcs.size() - base.size());
}

TEST(BatchEngine, MemoizationOffStillMatchesSequential)
{
  // Distinct random functions: classify_hierarchical's semi-canonical
  // images rarely coincide, so nearly every function pays both levels, and
  // the result still matches.
  const auto funcs = make_random_dataset(5, 200, 3);
  BatchEngineStats stats;
  expect_identical(classify_batch(funcs, ClassifierKind::kHierarchical, {.num_threads = 4}, &stats),
                   classify_hierarchical(funcs));
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, funcs.size());
  EXPECT_GT(stats.cache_misses, 0u);
}

TEST(BatchEngine, SemiclassMemoHitsSkipTheCanonicalizer)
{
  // 64 distinct NPN images of one n = 6 function: classify_exhaustive's
  // image stage runs the exact canonicalizer once per distinct semiclass
  // image, not once per function, at every thread count.
  std::mt19937_64 rng{0x5c1a55ULL};
  const TruthTable f = tt_random(6, rng);
  std::vector<TruthTable> funcs;
  std::set<TruthTable> images;
  while (funcs.size() < 64) {
    const TruthTable image = apply_transform(f, NpnTransform::random(6, rng));
    if (std::find(funcs.begin(), funcs.end(), image) == funcs.end()) {
      funcs.push_back(image);
      images.insert(semiclass_form(image).image);
    }
  }
  ASSERT_LT(images.size(), funcs.size()) << "no two inputs share a semiclass image";

  const obs::LatencyHistogram& bb = obs::MetricRegistry::global().histogram(
      "facet_canonicalize_latency", obs::label("path", "bb"));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const std::uint64_t bb_before = bb.snapshot().count();
    BatchEngineStats stats;
    const ClassificationResult batch =
        classify_batch(funcs, ClassifierKind::kExhaustive, {.num_threads = threads}, &stats);
    const std::uint64_t bb_runs = bb.snapshot().count() - bb_before;
    expect_identical(batch, classify_exhaustive(funcs));
    EXPECT_EQ(batch.num_classes, 1u);
    // No input repeats: every function is a distinct one handed to the
    // classifier, and the image stage shows only as skipped searches.
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, funcs.size());
    EXPECT_EQ(bb_runs, images.size());
  }
}

TEST(BatchEngine, NonDefaultSignatureMatchesSequential)
{
  // `facet_cli classify --method fp-extended --jobs N` runs the fp kind
  // under all_extended(). OIV alone merges classes (115 fp classes for the
  // 150 true ones here), so fp's full-MSV keys and exact's buckets both see
  // collisions.
  std::mt19937_64 rng{0x51a7ULL};
  std::vector<TruthTable> funcs;
  for (int i = 0; i < 150; ++i) {
    const TruthTable f = tt_random(6, rng);
    funcs.push_back(f);
    funcs.push_back(apply_transform(f, NpnTransform::random(6, rng)));
  }
  for (const auto& config : {SignatureConfig::all_extended(), SignatureConfig::oiv_only()}) {
    const BatchEngineOptions options{.num_threads = 4, .signature = config};
    SCOPED_TRACE(config.name());
    expect_identical(classify_batch(funcs, ClassifierKind::kFp, options), classify_fp(funcs, config));
    expect_identical(classify_batch(funcs, ClassifierKind::kFpHashed, options),
                     classify_fp_hashed(funcs, config));
    expect_identical(classify_batch(funcs, ClassifierKind::kExact, options), classify_exact(funcs, config));
  }
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

TEST(BatchEngine, StatsReportThreadsAndCacheCounts)
{
  const auto funcs = make_random_dataset(6, 500, 11);
  BatchEngineStats stats;
  (void)classify_batch(funcs, ClassifierKind::kSemiCanonical, {.num_threads = 4}, &stats);
  EXPECT_EQ(stats.threads, 4u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, funcs.size());
}

}  // namespace
}  // namespace facet
