/// Property tests of the semiclass kernel (npn/semiclass.hpp) and the
/// keyed matcher fast path (npn/matcher.hpp) that back the store's
/// semiclass memo tier:
///
///  * semiclass_key is a TRUE NPN invariant — verified exhaustively over
///    every table AND every transform at small widths, over the full
///    65536-table space with random transforms at n = 4, and on random
///    wide tables.
///  * semiclass_form returns a witnessed orbit member whose key matches, and
///    its word-level image and transform are bit-identical to the reference
///    below (cofactor pairs, std::stable_sort, apply_transform_fast) on
///    random and tie-heavy functions at every width 0..8 plus n = 9, 10.
///  * the 4-argument npn_match(f, f_keys, g, g_keys) overload is
///    bit-identical to the 2-argument matcher on equivalent and
///    inequivalent pairs alike.
///  * bucket-constrained classification (group by key, complete matcher
///    within the bucket) reproduces classify_exhaustive's ids exactly —
///    the correctness argument of the memo tier, minus the store.
///  * the branch-and-bound canonicalizer agrees with the unpruned orbit
///    walk, with valid witnesses — the soundness floor under the memo's
///    canonicalization savings.

#include "facet/npn/semiclass.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <random>
#include <unordered_map>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/transform.hpp"
#include "facet/sig/cofactor.hpp"
#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

/// The generic semiclass form: cofactor pairs of the chosen polarity, a
/// stable sort by (1-side, 0-side) count, and apply_transform_fast. The
/// library's word-level semiclass_form must reproduce it bit for bit.
SemiclassResult reference_form_polarity(const TruthTable& tt, bool output_neg)
{
  const TruthTable h = output_neg ? ~tt : tt;
  const int n = h.num_vars();
  const auto pairs = cofactor_pairs(h);

  NpnTransform t = NpnTransform::identity(n);
  t.output_neg = output_neg;

  std::array<std::uint32_t, kMaxVars> one_side{};
  std::array<std::uint32_t, kMaxVars> zero_side{};
  for (int i = 0; i < n; ++i) {
    std::uint32_t c0 = pairs[static_cast<std::size_t>(i)].count0;
    std::uint32_t c1 = pairs[static_cast<std::size_t>(i)].count1;
    if (c1 > c0) {
      t.input_neg |= 1u << i;
      std::swap(c0, c1);
    }
    one_side[static_cast<std::size_t>(i)] = c1;
    zero_side[static_cast<std::size_t>(i)] = c0;
  }

  std::array<int, kMaxVars> sorted{};
  std::iota(sorted.begin(), sorted.begin() + std::max(n, 1), 0);
  std::stable_sort(sorted.begin(), sorted.begin() + n, [&](int a, int b) {
    const auto ai = static_cast<std::size_t>(a);
    const auto bi = static_cast<std::size_t>(b);
    if (one_side[ai] != one_side[bi]) {
      return one_side[ai] < one_side[bi];
    }
    return zero_side[ai] < zero_side[bi];
  });
  for (int k = 0; k < n; ++k) {
    t.perm[static_cast<std::size_t>(sorted[static_cast<std::size_t>(k)])] =
        static_cast<std::uint8_t>(n - 1 - k);
  }
  return SemiclassResult{apply_transform_fast(tt, t), t};
}

SemiclassResult reference_semiclass_form(const TruthTable& tt)
{
  const std::uint64_t ones = tt.count_ones();
  const std::uint64_t bits = tt.num_bits();
  if (2 * ones < bits) {
    return reference_form_polarity(tt, false);
  }
  if (2 * ones > bits) {
    return reference_form_polarity(tt, true);
  }
  SemiclassResult a = reference_form_polarity(tt, false);
  SemiclassResult b = reference_form_polarity(tt, true);
  return a.image <= b.image ? a : b;
}

/// f(x) = 1 iff popcount(x) is in `weights` (bit w: weight w accepted).
TruthTable totally_symmetric(int n, std::uint32_t weights)
{
  TruthTable tt{n};
  for (std::uint64_t m = 0; m < tt.num_bits(); ++m) {
    if (((weights >> std::popcount(m)) & 1u) != 0) {
      tt.set_bit(m);
    }
  }
  return tt;
}

/// Functions whose cofactor counts tie a lot: sparse ANDs of 3-4 random
/// tables, balanced tables, totally symmetric functions, constants and
/// single literals, in rotation.
TruthTable tie_heavy(int n, int k, std::mt19937_64& rng)
{
  switch (k % 6) {
    case 0: {
      TruthTable f = tt_random(n, rng) & tt_random(n, rng) & tt_random(n, rng);
      return (rng() & 1u) != 0 ? f & tt_random(n, rng) : f;
    }
    case 1:
      return tt_random_with_ones(n, n == 0 ? 0 : std::uint64_t{1} << (n - 1), rng);
    case 2:
      return totally_symmetric(n, static_cast<std::uint32_t>(rng()) & ((2u << n) - 1));
    case 3:
      return tt_constant(n, (rng() & 1u) != 0);
    default: {
      if (n == 0) {
        return tt_constant(n, (k & 1) != 0);
      }
      const TruthTable lit = tt_projection(n, static_cast<int>(rng() % static_cast<unsigned>(n)));
      return k % 6 == 4 ? lit : ~lit;
    }
  }
}

/// All 2 * 2^n * n! transforms of width n, enumerated deterministically.
std::vector<NpnTransform> all_transforms(int n)
{
  std::vector<std::uint8_t> perm(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    perm[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  std::vector<NpnTransform> out;
  do {
    for (std::uint32_t neg = 0; neg < (1u << n); ++neg) {
      for (int out_neg = 0; out_neg < 2; ++out_neg) {
        NpnTransform t = NpnTransform::identity(n);
        for (int i = 0; i < n; ++i) {
          t.perm[static_cast<std::size_t>(i)] = perm[static_cast<std::size_t>(i)];
        }
        t.input_neg = neg;
        t.output_neg = out_neg != 0;
        out.push_back(t);
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  return out;
}

/// Every table of width n (only callable for n <= 4).
std::vector<TruthTable> all_tables(int n)
{
  std::vector<TruthTable> out;
  const std::uint64_t count = 1ULL << (1u << n);
  for (std::uint64_t bits = 0; bits < count; ++bits) {
    TruthTable tt{n};
    for (std::uint32_t b = 0; b < (1u << n); ++b) {
      if ((bits >> b) & 1u) {
        tt.set_bit(b);
      }
    }
    out.push_back(tt);
  }
  return out;
}

TEST(SemiclassKey, ExhaustiveInvarianceOverAllTablesAndTransforms)
{
  // Widths 1..3: every table crossed with every transform in the group.
  for (int n = 1; n <= 3; ++n) {
    const auto transforms = all_transforms(n);
    for (const auto& f : all_tables(n)) {
      const SemiclassKey key = semiclass_key(f);
      EXPECT_EQ(key.num_vars, n);
      for (const auto& t : transforms) {
        const TruthTable image = apply_transform(f, t);
        ASSERT_EQ(semiclass_key(image), key)
            << "n=" << n << " transform " << t.to_string() << " broke invariance";
      }
    }
  }
}

TEST(SemiclassKey, FullWidth4SpaceInvariantUnderRandomTransforms)
{
  const int n = 4;
  std::mt19937_64 rng{0x4444ULL};
  for (const auto& f : all_tables(n)) {
    const SemiclassKey key = semiclass_key(f);
    for (int k = 0; k < 4; ++k) {
      const NpnTransform t = NpnTransform::random(n, rng);
      ASSERT_EQ(semiclass_key(apply_transform(f, t)), key)
          << "transform " << t.to_string() << " broke invariance";
    }
  }
}

TEST(SemiclassKey, RandomWideTablesInvariantUnderRandomTransforms)
{
  std::mt19937_64 rng{0x5566ULL};
  for (int n = 5; n <= 8; ++n) {
    for (int i = 0; i < 200; ++i) {
      const TruthTable f = tt_random(n, rng);
      const SemiclassKey key = semiclass_key(f);
      for (int k = 0; k < 8; ++k) {
        ASSERT_EQ(semiclass_key(apply_transform(f, NpnTransform::random(n, rng))), key);
      }
    }
  }
}

TEST(SemiclassKey, SeparatesMostInequivalentPairs)
{
  // Inequality of keys must imply inequivalence (the invariance direction,
  // contrapositive); equal keys on inequivalent functions are allowed
  // collisions but should be the minority on random data, or the prefilter
  // would never prune anything.
  const int n = 5;
  std::mt19937_64 rng{0x909ULL};
  int equal_keys = 0;
  const int pairs = 300;
  for (int i = 0; i < pairs; ++i) {
    const TruthTable f = tt_random(n, rng);
    const TruthTable g = tt_random(n, rng);
    const bool same_key = semiclass_key(f) == semiclass_key(g);
    const bool equivalent = npn_match(f, g).has_value();
    if (equivalent) {
      EXPECT_TRUE(same_key);
    }
    if (same_key && !equivalent) {
      ++equal_keys;
    }
  }
  EXPECT_LT(equal_keys, pairs / 4);
}

TEST(SemiclassForm, WitnessedOrbitMemberWithMatchingKey)
{
  std::mt19937_64 rng{0xf0f0ULL};
  for (int n = 1; n <= 8; ++n) {
    for (int i = 0; i < 100; ++i) {
      const TruthTable f = tt_random(n, rng);
      const SemiclassResult r = semiclass_form(f);
      EXPECT_EQ(apply_transform(f, r.transform), r.image);
      EXPECT_EQ(apply_transform_fast(f, r.transform), r.image);
      EXPECT_EQ(semiclass_key(r.image), semiclass_key(f));
    }
  }
}

TEST(SemiclassForm, WordLevelFormIsBitIdenticalToTheReference)
{
  std::mt19937_64 rng{0x5eedf0ULL};
  const auto check = [](const TruthTable& f) {
    const SemiclassResult got = semiclass_form(f);
    const SemiclassResult want = reference_semiclass_form(f);
    ASSERT_EQ(got.image, want.image) << "n=" << f.num_vars();
    ASSERT_EQ(got.transform, want.transform)
        << "n=" << f.num_vars() << " got " << got.transform.to_string() << " want "
        << want.transform.to_string();
  };
  for (int n = 0; n <= 10; ++n) {
    const int samples = n <= 8 ? 2000 : 100;
    for (int k = 0; k < samples; ++k) {
      check(tt_random(n, rng));
      check(tie_heavy(n, k, rng));
    }
  }
  // Every table at n <= 3, whose faces tie constantly.
  for (int n = 0; n <= 3; ++n) {
    for (const auto& f : all_tables(n)) {
      check(f);
    }
  }
}

TEST(SemiclassMatcher, KeyedOverloadAgreesWithTwoArgOnEquivalentPairs)
{
  std::mt19937_64 rng{0xabcULL};
  for (int n = 1; n <= 7; ++n) {
    for (int i = 0; i < 60; ++i) {
      const TruthTable f = tt_random(n, rng);
      const TruthTable g = apply_transform(f, NpnTransform::random(n, rng));
      const NpnMatchKeys f_keys = npn_match_keys(f);
      const NpnMatchKeys g_keys = npn_match_keys(g);
      const auto keyed = npn_match(f, f_keys, g, g_keys);
      const auto plain = npn_match(f, g);
      ASSERT_TRUE(plain.has_value());
      ASSERT_TRUE(keyed.has_value());
      // Both witnesses map f onto g (the transforms themselves need not be
      // identical — orbits have stabilizers).
      EXPECT_EQ(apply_transform(f, *keyed), g);
      EXPECT_EQ(apply_transform(f, *plain), g);
    }
  }
}

TEST(SemiclassMatcher, KeyedOverloadAgreesWithTwoArgOnRandomPairs)
{
  std::mt19937_64 rng{0xdefULL};
  int matched = 0;
  for (int n = 2; n <= 6; ++n) {
    for (int i = 0; i < 80; ++i) {
      const TruthTable f = tt_random(n, rng);
      const TruthTable g = tt_random(n, rng);
      const auto keyed = npn_match(f, npn_match_keys(f), g, npn_match_keys(g));
      const auto plain = npn_match(f, g);
      ASSERT_EQ(keyed.has_value(), plain.has_value());
      if (keyed.has_value()) {
        ++matched;
        EXPECT_EQ(apply_transform(f, *keyed), g);
      }
    }
  }
  // Random pairs at n=2 collide often enough that this exercised both arms.
  EXPECT_GT(matched, 0);
}

TEST(SemiclassBucketing, BucketConstrainedClassificationMatchesExhaustive)
{
  // The memo tier's correctness argument, minus the store: group functions
  // by semiclass key, run the complete matcher only within the bucket, and
  // the resulting partition — with ids assigned in first-seen order — must
  // be identical to classify_exhaustive's.
  struct BucketEntry {
    TruthTable rep;
    NpnMatchKeys keys;
    std::uint32_t id;
  };
  std::mt19937_64 rng{0xb0caULL};
  for (int n = 3; n <= 6; ++n) {
    std::vector<TruthTable> funcs;
    for (int b = 0; b < 30; ++b) {
      const TruthTable base = tt_random(n, rng);
      funcs.push_back(base);
      for (int k = 0; k < 3; ++k) {
        funcs.push_back(apply_transform(base, NpnTransform::random(n, rng)));
      }
    }
    std::shuffle(funcs.begin(), funcs.end(), rng);
    const ClassificationResult expected = classify_exhaustive(funcs);

    std::unordered_map<SemiclassKey, std::vector<BucketEntry>, SemiclassKeyHash> buckets;
    std::uint32_t next_id = 0;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      auto& bucket = buckets[semiclass_key(funcs[i])];
      const NpnMatchKeys f_keys = npn_match_keys(funcs[i]);
      std::uint32_t id = 0xffffffffU;
      for (const auto& entry : bucket) {
        if (npn_match(funcs[i], f_keys, entry.rep, entry.keys).has_value()) {
          id = entry.id;
          break;
        }
      }
      if (id == 0xffffffffU) {
        id = next_id++;
        bucket.push_back(BucketEntry{funcs[i], f_keys, id});
      }
      ASSERT_EQ(id, expected.class_of[i]) << "n=" << n << " function " << i;
    }
    EXPECT_EQ(next_id, expected.num_classes);
  }
}

TEST(SemiclassCanon, BranchAndBoundMatchesOrbitWalkExhaustively)
{
  // Every table at n <= 3: the pruned canonicalizer and the unpruned orbit
  // walk must pick the identical orbit minimum, with valid witnesses.
  for (int n = 0; n <= 3; ++n) {
    for (const auto& f : all_tables(n)) {
      const CanonResult fast = exact_npn_canonical_with_transform(f);
      const CanonResult walk = exact_npn_canonical_walk_with_transform(f);
      ASSERT_EQ(fast.canonical, walk.canonical);
      EXPECT_EQ(apply_transform(f, fast.transform), fast.canonical);
      EXPECT_EQ(apply_transform(f, walk.transform), walk.canonical);
    }
  }
}

TEST(SemiclassCanon, BranchAndBoundMatchesOrbitWalkOnRandomWideTables)
{
  std::mt19937_64 rng{0xcafeULL};
  for (int n = 4; n <= 6; ++n) {
    const int samples = n <= 5 ? 60 : 20;
    for (int i = 0; i < samples; ++i) {
      const TruthTable f = tt_random(n, rng);
      const CanonResult fast = exact_npn_canonical_with_transform(f);
      ASSERT_EQ(fast.canonical, exact_npn_canonical_walk(f)) << "n=" << n;
      EXPECT_EQ(apply_transform(f, fast.transform), fast.canonical);
      // The canonical form's key equals the input's — canonicalization
      // never leaves the semiclass bucket.
      EXPECT_EQ(semiclass_key(fast.canonical), semiclass_key(f));
    }
  }
}

}  // namespace
}  // namespace facet
