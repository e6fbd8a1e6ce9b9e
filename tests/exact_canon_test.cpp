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
#include "facet/tt/tt_io.hpp"

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

TEST(ExactCanon, SeededCanonicalMatchesUnseeded)
{
  // The seeded search classify_exhaustive runs on its image stage's forms:
  // random and totally symmetric functions (parity, threshold, majority)
  // whose equal cofactors tie, at the search's widths 5-7.
  std::mt19937_64 rng{0x5eed2ULL};
  for (int n = 5; n <= 7; ++n) {
    std::vector<TruthTable> funcs{tt_parity(n), tt_threshold(n, 2), tt_threshold(n, n / 2)};
    if (n % 2 == 1) {
      funcs.push_back(tt_majority(n));
    }
    for (int trial = 0; trial < 12; ++trial) {
      funcs.push_back(tt_random(n, rng));
    }
    for (const TruthTable& f : funcs) {
      const CanonResult seeded = exact_npn_canonical_with_transform(f, semiclass_form(f));
      const CanonResult unseeded = exact_npn_canonical_with_transform(f);
      EXPECT_EQ(seeded.canonical, unseeded.canonical) << "n=" << n << " f=" << to_hex(f);
      EXPECT_EQ(seeded.transform, unseeded.transform) << "n=" << n << " f=" << to_hex(f);
      EXPECT_EQ(seeded.canonical, exact_npn_canonical(f)) << "n=" << n << " f=" << to_hex(f);
    }
  }
}

/// The witness-golden workload at width n: random functions, sparse and
/// dense functions (1, 2, 3 and 2^n - 1 ones), and the symmetric majority,
/// parity and threshold functions, whose many equal cofactors tie. Parity
/// stops at n = 7: every one of its orbit members ties on every block
/// bound, so at n = 8 the search visits millions of leaves (seconds).
std::vector<TruthTable> witness_golden_set(int n)
{
  std::mt19937_64 rng{0x90D0ULL + static_cast<unsigned>(n)};
  std::vector<TruthTable> funcs;
  const int randoms = n <= 6 ? 200 : (n == 7 ? 24 : 6);
  for (int i = 0; i < randoms; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  const std::uint64_t bits = std::uint64_t{1} << n;
  for (const std::uint64_t ones : {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, bits - 1}) {
    for (int i = 0; i < 4; ++i) {
      funcs.push_back(tt_random_with_ones(n, ones, rng));
    }
  }
  if (n <= 7) {
    funcs.push_back(tt_parity(n));
  }
  funcs.push_back(tt_threshold(n, n / 2));
  funcs.push_back(tt_threshold(n, 2));
  if (n % 2 == 1) {
    funcs.push_back(tt_majority(n));
  }
  return funcs;
}

TEST(ExactCanon, WitnessGolden)
{
  // Pins canonical forms AND witnesses at n = 5..8. The serve protocol's
  // transform bytes and every stored rep_to_canonical are these witnesses,
  // so a search change that reaches the same canonical form through a
  // different transform shows up here.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      hash ^= (value >> (8 * b)) & 0xFF;
      hash *= 0x100000001b3ULL;
    }
  };
  for (int n = 5; n <= 8; ++n) {
    for (const TruthTable& f : witness_golden_set(n)) {
      const CanonResult result = exact_npn_canonical_with_transform(f);
      for (const std::uint64_t word : result.canonical.words()) {
        mix(word, 8);
      }
      for (int i = 0; i < n; ++i) {
        mix(result.transform.perm[static_cast<std::size_t>(i)], 1);
      }
      mix(result.transform.input_neg, 4);
      mix(result.transform.output_neg ? 1 : 0, 1);
    }
  }
  EXPECT_EQ(hash, 0xebba649b8cd95582ULL);
}

TEST(ExactCanon, SearchMatchesWalk)
{
  // The branch-and-bound behind exact_npn_canonical (n = 5..7) against the
  // exhaustive orbit walk.
  std::mt19937_64 rng{0xA1CEULL};
  std::vector<TruthTable> funcs;
  for (int n = 5; n <= 6; ++n) {
    const std::uint64_t bits = std::uint64_t{1} << n;
    for (int i = 0; i < 400; ++i) {
      funcs.push_back(tt_random(n, rng));
    }
    for (int i = 0; i < 120; ++i) {
      const std::uint64_t ones = 1 + i % 4;
      funcs.push_back(tt_random_with_ones(n, i % 2 == 0 ? ones : bits - ones, rng));
    }
  }
  for (int t = 0; t <= 7; ++t) {
    funcs.push_back(tt_threshold(6, t));
  }
  funcs.push_back(tt_parity(6));
  funcs.push_back(tt_inner_product(6));
  funcs.push_back(tt_majority(5));
  for (int i = 0; i < 20; ++i) {
    funcs.push_back(tt_random(7, rng));
  }
  // n = 7 with 1-4 ones and their complements: the multi-word search's
  // sub-word blocks and packed-low ties.
  for (std::uint64_t ones = 1; ones <= 4; ++ones) {
    for (int i = 0; i < 2; ++i) {
      const TruthTable f = tt_random_with_ones(7, ones, rng);
      funcs.push_back(f);
      funcs.push_back(~f);
    }
  }
  funcs.push_back(tt_threshold(7, 2));
  funcs.push_back(tt_majority(7));
  for (const TruthTable& f : funcs) {
    EXPECT_EQ(exact_npn_canonical(f), exact_npn_canonical_walk(f)) << to_hex(f);
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
