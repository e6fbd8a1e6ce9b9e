/// Exhaustive verification of the baked NPN4 norm table: every 16-bit truth
/// table (and every sub-width table down to the constants) must agree with
/// the exhaustive orbit-walk oracle on canonical form, carry a valid
/// witnessing transform, and index exactly the known class counts
/// {1, 2, 4, 14, 222}; plus the golden-hash drift guard, the ClassStore
/// table tier's ids against the walk-based classifier, and the PN-min
/// tables against brute force over every PN transform.

#include "facet/npn/npn4_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "facet/npn/enumerate.hpp"
#include "facet/npn/exact_canon.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/npn4_table_golden.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/class_store.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/bit_ops.hpp"
#include "facet/tt/truth_table.hpp"
#include "facet/tt/tt_generate.hpp"

namespace facet {
namespace {

constexpr std::size_t kExpectedClasses[5] = {1, 2, 4, 14, 222};

/// Exhaustive sweep at one width: table canonical == walk-oracle canonical,
/// witness maps the query onto the canonical, and the class index round-trips
/// through npn4_class_canonical.
void sweep_width(int n)
{
  std::set<std::uint16_t> seen_classes;
  const std::uint64_t tables = 1ULL << (1u << n);
  for (std::uint64_t bits = 0; bits < tables; ++bits) {
    const TruthTable tt = TruthTable::from_word(n, bits);
    const Npn4Result result = npn4_lookup(tt);
    const TruthTable canonical = TruthTable::from_word(n, result.canonical_word);

    const CanonResult oracle = exact_npn_canonical_walk_with_transform(tt);
    ASSERT_EQ(canonical, oracle.canonical)
        << "n=" << n << " bits=0x" << std::hex << bits << ": table canonical diverges from walk";
    ASSERT_EQ(apply_transform(tt, result.transform), canonical)
        << "n=" << n << " bits=0x" << std::hex << bits << ": witness does not map to canonical";
    ASSERT_EQ(result.transform.num_vars, n);
    ASSERT_EQ(npn4_class_canonical(n, result.class_index), canonical)
        << "n=" << n << " bits=0x" << std::hex << bits << ": class index round-trip";
    seen_classes.insert(result.class_index);
  }
  EXPECT_EQ(seen_classes.size(), kExpectedClasses[n]) << "n=" << n;
  EXPECT_EQ(npn4_num_classes(n), kExpectedClasses[n]) << "n=" << n;
  // Dense and contiguous from zero.
  EXPECT_EQ(*seen_classes.begin(), 0u);
  EXPECT_EQ(*seen_classes.rbegin(), kExpectedClasses[n] - 1);
}

TEST(Npn4Table, ExhaustiveN4MatchesWalkOracle) { sweep_width(4); }

TEST(Npn4Table, ExhaustiveSubWidthsMatchWalkOracle)
{
  for (int n = 0; n <= 3; ++n) {
    sweep_width(n);
  }
}

TEST(Npn4Table, ExactCanonicalDispatchesThroughTheTable)
{
  // The public canonicalizer entry points must answer through the table for
  // every width <= 4 — same canonical, valid witness — and agree with the
  // exhaustive orbit walk.
  std::mt19937_64 rng{0x4417ULL};
  for (int n = 0; n <= 4; ++n) {
    for (int i = 0; i < 200; ++i) {
      const TruthTable tt = tt_random(n, rng);
      const CanonResult fast = exact_npn_canonical_with_transform(tt);
      const CanonResult walk = exact_npn_canonical_walk_with_transform(tt);
      EXPECT_EQ(fast.canonical, walk.canonical);
      EXPECT_EQ(exact_npn_canonical(tt), fast.canonical);
      EXPECT_EQ(exact_npn_canonical_walk(tt), fast.canonical);
      EXPECT_EQ(apply_transform(tt, fast.transform), fast.canonical);
    }
  }
}

TEST(Npn4Table, GoldenHashMatchesCheckedInValue)
{
  EXPECT_EQ(npn4_table_hash(), kNpn4GoldenTableHash);
}

TEST(Npn4Table, LookupCounterAdvances)
{
  const std::uint64_t before = npn4_table_lookups();
  (void)npn4_lookup(TruthTable::from_word(4, 0xe8e8ULL));
  (void)npn4_lookup(TruthTable::from_word(2, 0x6ULL));
  EXPECT_GE(npn4_table_lookups(), before + 2);
}

TEST(Npn4Table, RejectsWidthsBeyondFour)
{
  EXPECT_THROW((void)npn4_lookup(TruthTable{5}), std::invalid_argument);
  EXPECT_THROW((void)npn4_num_classes(5), std::invalid_argument);
  EXPECT_THROW((void)npn4_class_canonical(5, 0), std::invalid_argument);
  EXPECT_THROW((void)npn4_class_canonical(4, kNpn4NumClasses), std::out_of_range);
}

/// Every PN transform at width k: the 2^k * k! input permutations and
/// complementations, output polarity kept.
std::vector<NpnTransform> pn_transforms(int k)
{
  std::vector<NpnTransform> transforms;
  NpnTransform t = NpnTransform::identity(k);
  do {
    for (std::uint32_t neg = 0; neg < (1u << k); ++neg) {
      t.input_neg = neg;
      transforms.push_back(t);
    }
  } while (std::next_permutation(t.perm.begin(), t.perm.begin() + k));
  return transforms;
}

std::uint64_t brute_force_pn_min(int k, std::uint64_t g, const std::vector<NpnTransform>& transforms)
{
  const TruthTable tt = TruthTable::from_word(k, g);
  std::uint64_t least = g;
  for (const NpnTransform& t : transforms) {
    least = std::min(least, apply_transform(tt, t).word(0));
  }
  return least;
}

TEST(PnMinTable, EveryTableIsAnOrbitMinimum)
{
  // Constant along every generator move (k input flips, k - 1 adjacent
  // swaps), idempotent, and never above its argument, at every entry.
  for (int k = 1; k <= kNpn4MaxVars; ++k) {
    const std::uint64_t mask = low_bits_mask(k);
    for (std::uint64_t g = 0; g <= mask; ++g) {
      const std::uint64_t least = pn_min(k, g);
      ASSERT_LE(least, g) << "k=" << k << " g=" << g;
      ASSERT_EQ(pn_min(k, least), least) << "k=" << k << " g=" << g;
      for (int v = 0; v < k; ++v) {
        ASSERT_EQ(pn_min(k, flip_in_word(g, v) & mask), least) << "k=" << k << " g=" << g;
        if (v + 1 < k) {
          ASSERT_EQ(pn_min(k, swap_in_word(g, v, v + 1)), least) << "k=" << k << " g=" << g;
        }
      }
    }
  }
  EXPECT_EQ(pn_min(0, 1), 1u);
}

TEST(PnMinTable, MatchesBruteForceOverAllPnTransforms)
{
  // Exhaustive for k <= 3; 4,096 sampled entries at k = 4.
  for (int k = 1; k <= 3; ++k) {
    const std::vector<NpnTransform> transforms = pn_transforms(k);
    ASSERT_EQ(transforms.size(), (std::uint64_t{1} << k) * factorial(k));
    for (std::uint64_t g = 0; g <= low_bits_mask(k); ++g) {
      ASSERT_EQ(pn_min(k, g), brute_force_pn_min(k, g, transforms)) << "k=" << k << " g=" << g;
    }
  }
  const std::vector<NpnTransform> transforms = pn_transforms(4);
  ASSERT_EQ(transforms.size(), 384u);
  std::mt19937_64 rng{0x9417ULL};
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t g = rng() & 0xFFFF;
    ASSERT_EQ(pn_min(4, g), brute_force_pn_min(4, g, transforms)) << "g=" << g;
  }
}

std::vector<TruthTable> random_workload(int n, std::uint64_t seed, std::size_t count)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  funcs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return funcs;
}

/// Every table of width n (n <= 3), shuffled so a class's first query is
/// not simply its least member, then the same sequence again as repeats.
std::vector<TruthTable> exhaustive_workload(int n, std::uint64_t seed)
{
  std::vector<TruthTable> funcs;
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << (1u << n)); ++bits) {
    funcs.push_back(TruthTable::from_word(n, bits));
  }
  std::mt19937_64 rng{seed};
  std::shuffle(funcs.begin(), funcs.end(), rng);
  const std::size_t once = funcs.size();
  for (std::size_t i = 0; i < once; ++i) {
    funcs.push_back(funcs[i]);
  }
  return funcs;
}

TEST(Npn4Store, TableTierIdsMatchTheWalkClassifier)
{
  // A store learning a workload from empty through the table tier must
  // allocate the ids of the sequential classifier (dense, by first
  // occurrence) and of the orbit walk, keep each class's first query as its
  // representative, and never canonicalize: the table changes HOW a class
  // resolves, never WHICH class it is.
  for (int n = 0; n <= 4; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const std::vector<TruthTable> funcs =
        n <= 3 ? exhaustive_workload(n, 0x5172ULL + static_cast<std::uint64_t>(n))
               : random_workload(n, 0x5173ULL + static_cast<std::uint64_t>(n), 400);
    const ClassificationResult expected = classify_exhaustive(funcs);
    const ClassificationResult walked = classify_by_key(
        funcs, [](const TruthTable& tt) { return exact_npn_canonical_walk(tt); });
    ASSERT_EQ(expected.class_of, walked.class_of);

    std::vector<std::optional<TruthTable>> first_query(expected.num_classes);
    ClassStore store{n};
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      const TruthTable& f = funcs[i];
      const StoreLookupResult result = store.lookup_or_classify(f, /*append_on_miss=*/true);
      const std::uint32_t id = expected.class_of[i];
      ASSERT_EQ(result.class_id, id) << "function " << i;
      if (!first_query[id].has_value()) {
        first_query[id] = f;
      }
      ASSERT_EQ(result.representative, *first_query[id]) << "function " << i;
      ASSERT_EQ(apply_transform(f, result.to_representative), result.representative);
    }
    EXPECT_EQ(store.num_classes(), expected.num_classes);
    if (n <= 3) {
      EXPECT_EQ(store.num_classes(), kExpectedClasses[n]);
    }
    EXPECT_GT(store.num_table_hits(), 0u);
    EXPECT_EQ(store.num_canonicalizations(), 0u) << "a width <= 4 store must never canonicalize";
  }
}

TEST(Npn4Store, ExhaustiveWidth4StoreServesEveryQueryFromTheTable)
{
  // A store built over every class resolves any 16-bit query via
  // LookupSource::kTable — cold, with the hot cache cleared, gate untouched.
  std::vector<TruthTable> all;
  all.reserve(1u << 16);
  for (std::uint64_t bits = 0; bits < (1u << 16); ++bits) {
    all.push_back(TruthTable::from_word(4, bits));
  }
  ClassStore store = build_class_store(all, {});
  EXPECT_EQ(store.num_classes(), kNpn4NumClasses);
  store.clear_hot_cache();

  std::mt19937_64 rng{0x4a11ULL};
  for (int i = 0; i < 1000; ++i) {
    const TruthTable f = tt_random(4, rng);
    const auto result = store.lookup(f);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->source, LookupSource::kTable);
    EXPECT_TRUE(result->known);
    EXPECT_EQ(apply_transform(f, result->to_representative), result->representative);
  }
  EXPECT_EQ(store.num_canonicalizations(), 0u);
  EXPECT_GT(store.num_table_hits(), 0u);

  // An empty store learning the whole width, shuffled, allocates the
  // sequential classifier's ids without canonicalizing, then answers every
  // table cold from the table tier under the same id.
  std::shuffle(all.begin(), all.end(), rng);
  const ClassificationResult expected = classify_exhaustive(all);
  ClassStore learning{4};
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto result = learning.lookup_or_classify(all[i], /*append_on_miss=*/true);
    ASSERT_EQ(result.class_id, expected.class_of[i]) << "function " << i;
  }
  EXPECT_EQ(learning.num_classes(), kNpn4NumClasses);
  learning.clear_hot_cache();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const auto result = learning.lookup(all[i]);
    ASSERT_TRUE(result.has_value());
    ASSERT_EQ(result->class_id, expected.class_of[i]) << "function " << i;
    ASSERT_EQ(result->source, LookupSource::kTable);
  }
  EXPECT_EQ(learning.num_canonicalizations(), 0u);
}

TEST(Npn4Store, TransientMissesStayUnknownThroughTheTableTier)
{
  // A table-resolved query against a store that does not hold the class
  // reports known=0 without appending, exactly like the pre-table miss path.
  ClassStore store{4};  // empty
  const TruthTable f = TruthTable::from_word(4, 0xcafeULL);
  const StoreLookupResult miss = store.lookup_or_classify(f, /*append_on_miss=*/false);
  EXPECT_FALSE(miss.known);
  EXPECT_EQ(store.num_records(), 0u);
  EXPECT_EQ(store.num_canonicalizations(), 0u) << "the table resolves the canonical";

  // Appending publishes the class (still known=0 — it was not in the store
  // before this call); the repeat now answers src=table known=1.
  const StoreLookupResult appended = store.lookup_or_classify(f, /*append_on_miss=*/true);
  EXPECT_FALSE(appended.known);
  EXPECT_EQ(appended.source, LookupSource::kLive);
  EXPECT_EQ(appended.class_id, miss.class_id);
  store.clear_hot_cache();
  const auto warm = store.lookup(f);
  ASSERT_TRUE(warm.has_value());
  EXPECT_EQ(warm->source, LookupSource::kTable);
}

}  // namespace
}  // namespace facet
