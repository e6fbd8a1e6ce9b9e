#include "facet/npn/exact_canon.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <set>
#include <unordered_set>
#include <vector>

#include "facet/npn/enumerate.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

TEST(Sjt, SequenceLengthsAndCoverage)
{
  EXPECT_TRUE(sjt_adjacent_swaps(0).empty());
  EXPECT_TRUE(sjt_adjacent_swaps(1).empty());
  for (int n = 2; n <= 6; ++n) {
    const auto swaps = sjt_adjacent_swaps(n);
    EXPECT_EQ(swaps.size(), factorial(n) - 1);
    // Applying the sequence must visit n! distinct permutations.
    std::vector<int> perm(static_cast<std::size_t>(n));
    std::iota(perm.begin(), perm.end(), 0);
    std::set<std::vector<int>> visited{perm};
    for (const int p : swaps) {
      ASSERT_GE(p, 0);
      ASSERT_LT(p + 1, n);
      std::swap(perm[static_cast<std::size_t>(p)], perm[static_cast<std::size_t>(p) + 1]);
      visited.insert(perm);
    }
    EXPECT_EQ(visited.size(), factorial(n));
  }
}

TEST(Factorial, SmallValues)
{
  EXPECT_EQ(factorial(0), 1u);
  EXPECT_EQ(factorial(1), 1u);
  EXPECT_EQ(factorial(5), 120u);
  EXPECT_EQ(factorial(10), 3628800u);
}

TEST(GrayFlip, FollowsBinaryReflectedCode)
{
  // Position of the bit that changes between gray(k-1) and gray(k).
  EXPECT_EQ(gray_flip_position(1), 0);
  EXPECT_EQ(gray_flip_position(2), 1);
  EXPECT_EQ(gray_flip_position(3), 0);
  EXPECT_EQ(gray_flip_position(4), 2);
  EXPECT_EQ(gray_flip_position(12), 2);
}

class CanonSweep : public ::testing::TestWithParam<int> {};

TEST_P(CanonSweep, InvariantUnderRandomTransforms)
{
  const int n = GetParam();
  std::mt19937_64 rng{0xCA05u + static_cast<unsigned>(n)};
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable f = tt_random(n, rng);
    const NpnTransform t = NpnTransform::random(n, rng);
    EXPECT_EQ(exact_npn_canonical(f), exact_npn_canonical(apply_transform(f, t)));
  }
}

TEST_P(CanonSweep, CanonicalIsInOrbitWithWitness)
{
  const int n = GetParam();
  std::mt19937_64 rng{0x0B17u + static_cast<unsigned>(n)};
  for (int trial = 0; trial < 10; ++trial) {
    const TruthTable f = tt_random(n, rng);
    const CanonResult result = exact_npn_canonical_with_transform(f);
    EXPECT_EQ(apply_transform(f, result.transform), result.canonical);
  }
}

TEST_P(CanonSweep, CanonicalIsMinimalOverSampledOrbit)
{
  const int n = GetParam();
  std::mt19937_64 rng{0x3117u + static_cast<unsigned>(n)};
  const TruthTable f = tt_random(n, rng);
  const TruthTable canon = exact_npn_canonical(f);
  for (int trial = 0; trial < 50; ++trial) {
    const TruthTable member = apply_transform(f, NpnTransform::random(n, rng));
    EXPECT_LE(canon, member);
  }
}

INSTANTIATE_TEST_SUITE_P(SmallWidths, CanonSweep, ::testing::Range(1, 7));

TEST(ExactCanon, FullThreeVariableSpaceHas14Classes)
{
  std::unordered_set<TruthTable, TruthTableHash> classes;
  for (std::uint64_t bits = 0; bits < 256; ++bits) {
    classes.insert(exact_npn_canonical(tt_from_index(3, bits)));
  }
  EXPECT_EQ(classes.size(), 14u);
}

TEST(ExactCanon, FullFourVariableSpaceHas222Classes)
{
  // The published count of NPN classes of 4-variable functions.
  std::unordered_set<TruthTable, TruthTableHash> classes;
  for (std::uint64_t bits = 0; bits < 65536; ++bits) {
    classes.insert(exact_npn_canonical(tt_from_index(4, bits)));
  }
  EXPECT_EQ(classes.size(), 222u);
}

TEST(ExactCanon, StructuredFunctions)
{
  // Orbit invariance for symmetric stress functions.
  std::mt19937_64 rng{31};
  for (const TruthTable& f : {tt_majority(5), tt_parity(5), tt_conjunction(5), tt_threshold(5, 2)}) {
    const TruthTable canon = exact_npn_canonical(f);
    for (int trial = 0; trial < 5; ++trial) {
      const NpnTransform t = NpnTransform::random(5, rng);
      EXPECT_EQ(exact_npn_canonical(apply_transform(f, t)), canon);
    }
  }
}

TEST(ExactCanon, SeededSearchMatchesUnseeded)
{
  // Handing the caller's semiclass form in as the seed must not change the
  // canonical form or the witness, at every width the search dispatches on.
  std::mt19937_64 rng{0x5eedULL};
  for (int n = 2; n <= 8; ++n) {
    for (int trial = 0; trial < (n <= 6 ? 20 : 3); ++trial) {
      const TruthTable f = tt_random(n, rng);
      const CanonResult unseeded = exact_npn_canonical_with_transform(f);
      const CanonResult seeded = exact_npn_canonical_with_transform(f, semiclass_form(f));
      EXPECT_EQ(seeded.canonical, unseeded.canonical) << "n=" << n;
      EXPECT_EQ(seeded.transform, unseeded.transform) << "n=" << n;
    }
  }
}

TEST(ExactCanon, RejectsLargeWidths)
{
  EXPECT_THROW(exact_npn_canonical(TruthTable{9}), std::invalid_argument);
}

TEST(ExactCanon, ZeroAndOneVariableEdgeCases)
{
  // n = 0: constants; NPN merges 0 and 1 via output negation.
  EXPECT_EQ(exact_npn_canonical(tt_constant(0, false)), exact_npn_canonical(tt_constant(0, true)));
  // n = 1: {const0, const1} and {x, not x} are the two classes.
  EXPECT_EQ(exact_npn_canonical(tt_projection(1, 0)),
            exact_npn_canonical(~tt_projection(1, 0)));
  EXPECT_NE(exact_npn_canonical(tt_projection(1, 0)), exact_npn_canonical(tt_constant(1, false)));
}

TEST(ExhaustiveClassifier, MatchesCanonicalGrouping)
{
  std::mt19937_64 rng{13};
  const auto funcs = tt_random_set(4, 200, 99);
  const ClassificationResult result = classify_exhaustive(funcs);
  EXPECT_EQ(result.class_of.size(), funcs.size());
  // Same class iff same canonical form.
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    for (std::size_t j = i + 1; j < std::min(funcs.size(), i + 20); ++j) {
      const bool same_class = result.class_of[i] == result.class_of[j];
      const bool same_canon = exact_npn_canonical(funcs[i]) == exact_npn_canonical(funcs[j]);
      EXPECT_EQ(same_class, same_canon);
    }
  }
  (void)rng;
}

}  // namespace
}  // namespace facet
