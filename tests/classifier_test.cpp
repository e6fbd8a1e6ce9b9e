/// Cross-classifier properties on shared workloads:
///  * exact (bucket+matcher) == exhaustive canonical grouping (n <= 6);
///  * canonical-form heuristics never merge inequivalent functions, so their
///    class counts are >= exact;
///  * the signature classifier never splits a class, so its count is <= exact;
///  * refinement ordering across signature configurations (Table II's trend).

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "facet/npn/codesign.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/hierarchical.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/obs/registry.hpp"
#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

/// Mixed workload: random functions plus NPN-transformed copies, so classes
/// have nontrivial sizes and every classifier faces real merge decisions.
std::vector<TruthTable> mixed_workload(int n, std::size_t base_count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < base_count; ++i) {
    const TruthTable f = tt_random(n, rng);
    funcs.push_back(f);
    const std::size_t copies = rng() % 4;
    for (std::size_t c = 0; c < copies; ++c) {
      funcs.push_back(apply_transform(f, NpnTransform::random(n, rng)));
    }
  }
  return funcs;
}

class ClassifierSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClassifierSweep, ExactMatchesExhaustive)
{
  const int n = GetParam();
  const auto funcs = mixed_workload(n, 60, 0xE0u + static_cast<unsigned>(n));
  const auto exact = classify_exact(funcs);
  const auto exhaustive = classify_exhaustive(funcs);
  EXPECT_EQ(exact.num_classes, exhaustive.num_classes);
  // Same partition, not just the same count.
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    for (std::size_t j = i + 1; j < std::min(funcs.size(), i + 10); ++j) {
      EXPECT_EQ(exact.class_of[i] == exact.class_of[j], exhaustive.class_of[i] == exhaustive.class_of[j]);
    }
  }
}

TEST_P(ClassifierSweep, HeuristicsNeverUndershootExact)
{
  const int n = GetParam();
  const auto funcs = mixed_workload(n, 80, 0xAFu + static_cast<unsigned>(n));
  const auto exact = classify_exact(funcs);
  EXPECT_GE(classify_semi_canonical(funcs).num_classes, exact.num_classes);
  EXPECT_GE(classify_hierarchical(funcs).num_classes, exact.num_classes);
  EXPECT_GE(classify_codesign(funcs).num_classes, exact.num_classes);
}

TEST_P(ClassifierSweep, SignatureClassifierNeverOvershootsExact)
{
  const int n = GetParam();
  const auto funcs = mixed_workload(n, 80, 0xB5u + static_cast<unsigned>(n));
  const auto exact = classify_exact(funcs);
  for (const auto& config :
       {SignatureConfig::oiv_only(), SignatureConfig::osv_only(), SignatureConfig::all()}) {
    EXPECT_LE(classify_fp(funcs, config).num_classes, exact.num_classes) << config.name();
  }
}

TEST_P(ClassifierSweep, HeuristicMergesAreAlwaysSound)
{
  // Any two functions a canonical-form classifier puts in one class must be
  // truly NPN equivalent.
  const int n = GetParam();
  const auto funcs = mixed_workload(n, 40, 0xC7u + static_cast<unsigned>(n));
  for (const auto& result :
       {classify_semi_canonical(funcs), classify_hierarchical(funcs), classify_codesign(funcs)}) {
    std::vector<std::size_t> first_member(result.num_classes, SIZE_MAX);
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      auto& first = first_member[result.class_of[i]];
      if (first == SIZE_MAX) {
        first = i;
      } else {
        EXPECT_TRUE(npn_equivalent(funcs[first], funcs[i]));
      }
    }
  }
}

TEST_P(ClassifierSweep, SignatureClassifierNeverSplitsTrueClasses)
{
  // Functions known equivalent by construction must share a signature class.
  const int n = GetParam();
  std::mt19937_64 rng{0xD8u + static_cast<unsigned>(n)};
  std::vector<TruthTable> funcs;
  for (int i = 0; i < 30; ++i) {
    const TruthTable f = tt_random(n, rng);
    funcs.push_back(f);
    funcs.push_back(apply_transform(f, NpnTransform::random(n, rng)));
  }
  const auto result = classify_fp(funcs, SignatureConfig::all());
  for (std::size_t i = 0; i < funcs.size(); i += 2) {
    EXPECT_EQ(result.class_of[i], result.class_of[i + 1]);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallWidths, ClassifierSweep, ::testing::Range(2, 7));

TEST(Classifier, RefinementOrderingAcrossConfigs)
{
  // Adding signature components can only split classes further (Table II's
  // monotone columns).
  const auto funcs = mixed_workload(6, 150, 321);
  const auto oiv = classify_fp(funcs, SignatureConfig::oiv_only()).num_classes;
  const auto oiv_osv = classify_fp(funcs, SignatureConfig::oiv_osv()).num_classes;
  const auto oiv_osv_osdv = classify_fp(funcs, SignatureConfig::oiv_osv_osdv()).num_classes;
  const auto all = classify_fp(funcs, SignatureConfig::all()).num_classes;
  EXPECT_LE(oiv, oiv_osv);
  EXPECT_LE(oiv_osv, oiv_osv_osdv);
  EXPECT_LE(oiv_osv_osdv, all);

  const auto ocv1 = classify_fp(funcs, SignatureConfig::ocv1_only()).num_classes;
  const auto ocv1_osv = classify_fp(funcs, SignatureConfig::ocv1_osv()).num_classes;
  const auto ocv1_ocv2_osv = classify_fp(funcs, SignatureConfig::ocv1_ocv2_osv()).num_classes;
  EXPECT_LE(ocv1, ocv1_osv);
  EXPECT_LE(ocv1_osv, ocv1_ocv2_osv);
  EXPECT_LE(ocv1_ocv2_osv, all);
}

TEST(Classifier, FullFourVariableSpaceRelations)
{
  // On all 2^16 functions of 4 variables the exact partition has 222
  // classes; the signature classifier can only be at or below, heuristic
  // canonical forms at or above.
  std::vector<TruthTable> funcs;
  funcs.reserve(65536);
  for (std::uint64_t bits = 0; bits < 65536; ++bits) {
    funcs.push_back(tt_from_index(4, bits));
  }
  const auto exact = classify_exact(funcs);
  EXPECT_EQ(exact.num_classes, 222u);
  EXPECT_LE(classify_fp(funcs, SignatureConfig::all()).num_classes, 222u);
  EXPECT_GE(classify_codesign(funcs).num_classes, 222u);
}

TEST(Classifier, ClassSizesSumToInputCount)
{
  const auto funcs = mixed_workload(5, 50, 5);
  const auto result = classify_fp(funcs, SignatureConfig::all());
  const auto sizes = result.class_sizes();
  std::size_t total = 0;
  for (const auto s : sizes) {
    total += s;
  }
  EXPECT_EQ(total, funcs.size());
}

TEST(Classifier, CodesignBudgetExtremes)
{
  // A tiny budget must still produce sound (if coarse) classifications, and
  // stats must report the truncation.
  const auto funcs = mixed_workload(5, 30, 9);
  CodesignOptions tiny;
  tiny.budget = 1;
  const auto coarse = classify_codesign(funcs, tiny);
  CodesignOptions big;
  big.budget = 1 << 20;
  const auto fine = classify_codesign(funcs, big);
  EXPECT_GE(coarse.num_classes, fine.num_classes);

  CodesignStats stats;
  (void)codesign_canonical(tt_parity(6), tiny, &stats);
  EXPECT_GE(stats.candidates, 1u);
}

TEST(Classifier, HashedVariantMatchesExactKeyedVariant)
{
  // 128-bit hashed keys must produce the same partition as full-MSV keys
  // (collisions are astronomically unlikely).
  const auto funcs = mixed_workload(6, 200, 77);
  const auto keyed = classify_fp(funcs, SignatureConfig::all());
  const auto hashed = classify_fp_hashed(funcs, SignatureConfig::all());
  ASSERT_EQ(hashed.num_classes, keyed.num_classes);
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    for (std::size_t j = i + 1; j < std::min(funcs.size(), i + 10); ++j) {
      EXPECT_EQ(hashed.class_of[i] == hashed.class_of[j], keyed.class_of[i] == keyed.class_of[j]);
    }
  }
}

TEST(Classifier, ExactnessIsIndependentOfBucketSignature)
{
  // classify_exact must return the same partition whatever invariant is used
  // for bucketing — weaker buckets only cost more matcher calls.
  const auto funcs = mixed_workload(5, 60, 31);
  const auto strong = classify_exact(funcs, SignatureConfig::all());
  for (const auto& config : {SignatureConfig::ocv1_only(), SignatureConfig::oiv_only(), SignatureConfig{}}) {
    const auto weak = classify_exact(funcs, config);
    EXPECT_EQ(weak.num_classes, strong.num_classes) << config.name();
  }
}

TEST(Classifier, StrongerBucketsReduceMatcherWork)
{
  const auto funcs = mixed_workload(6, 120, 13);
  ExactClassifyStats weak_stats;
  ExactClassifyStats strong_stats;
  (void)classify_exact(funcs, SignatureConfig::ocv1_only(), &weak_stats);
  (void)classify_exact(funcs, SignatureConfig::all(), &strong_stats);
  EXPECT_LE(strong_stats.matcher_calls, weak_stats.matcher_calls);
  EXPECT_GE(strong_stats.buckets, weak_stats.buckets);
}

TEST(Classifier, ExhaustiveSemiclassMemoSkipsTheCanonicalizer)
{
  // 64 distinct NPN images of one n = 6 function. classify_exhaustive's
  // image stage searches once per distinct semiclass image, so the
  // branch-and-bound canonicalizer runs fewer than 64 times.
  std::mt19937_64 rng{0x5c1a55ULL};
  const TruthTable f = tt_random(6, rng);
  std::vector<TruthTable> funcs;
  while (funcs.size() < 64) {
    const TruthTable image = apply_transform(f, NpnTransform::random(6, rng));
    if (std::find(funcs.begin(), funcs.end(), image) == funcs.end()) {
      funcs.push_back(image);
    }
  }

  const obs::LatencyHistogram& bb = obs::MetricRegistry::global().histogram(
      "facet_canonicalize_latency", obs::label("path", "bb"));
  const std::uint64_t bb_before = bb.snapshot().count();
  const ClassificationResult result = classify_exhaustive(funcs);
  const std::uint64_t bb_runs = bb.snapshot().count() - bb_before;
  EXPECT_EQ(result.num_classes, 1u);
  EXPECT_GE(bb_runs, 1u);
  EXPECT_LT(bb_runs, funcs.size()) << "no semiclass-memo hit skipped the canonicalizer";
}

TEST(Classifier, EmptyInput)
{
  const std::vector<TruthTable> empty;
  EXPECT_EQ(classify_fp(empty, SignatureConfig::all()).num_classes, 0u);
  EXPECT_EQ(classify_exact(empty).num_classes, 0u);
  EXPECT_EQ(classify_semi_canonical(empty).num_classes, 0u);
}

}  // namespace
}  // namespace facet
