#include "facet/npn/semiclass.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "facet/sig/cofactor.hpp"
#include "facet/sig/influence.hpp"
#include "facet/util/hash.hpp"

namespace facet {

namespace {

/// Digest of one output polarity: satisfy count plus the sorted multiset of
/// per-variable (phase-insensitive cofactor pair, influence) tuples. Every
/// ingredient is PN-invariant, and sorting removes the variable order, so
/// PN-equivalent polarities digest identically.
[[nodiscard]] std::uint64_t polarity_digest(const TruthTable& g)
{
  const int n = g.num_vars();
  const auto pairs = cofactor_pairs(g);
  const auto inf = influence_profile(g);

  std::array<std::array<std::uint32_t, 3>, kMaxVars> tuples{};
  for (int i = 0; i < n; ++i) {
    const auto& p = pairs[static_cast<std::size_t>(i)];
    tuples[static_cast<std::size_t>(i)] = {std::min(p.count0, p.count1),
                                           std::max(p.count0, p.count1),
                                           inf[static_cast<std::size_t>(i)]};
  }
  std::sort(tuples.begin(), tuples.begin() + n);

  std::uint64_t h = hash_combine64(static_cast<std::uint64_t>(n), g.count_ones());
  for (int i = 0; i < n; ++i) {
    const auto& t = tuples[static_cast<std::size_t>(i)];
    h = hash_combine64(h, (static_cast<std::uint64_t>(t[0]) << 32) | t[1]);
    h = hash_combine64(h, t[2]);
  }
  return h;
}

/// |f| and, per variable i < n, the satisfy count of f's x_i = 1 face:
/// masked popcounts for the in-word variables, whole word blocks for the
/// rest (word j lies in the x_i = 1 face iff bit i - 6 of j is set). Lanes
/// of variables a narrow table lacks count its zero excess bits.
struct FaceCounts {
  std::uint64_t ones = 0;
  std::array<std::uint32_t, kMaxVars> one_face{};
};

/// Sum of the eight byte lanes of x (each lane's sum must stay below 256).
[[nodiscard]] constexpr std::uint32_t byte_sum(std::uint64_t x) noexcept
{
  return static_cast<std::uint32_t>((x * 0x0101010101010101ULL) >> 56);
}

/// Adds the popcount of `w` and of `w & kVarMask[i]` (i < 6) to `counts`:
/// one shared SWAR reduction to pair, nibble and byte counts, then one
/// multiply-add per count instead of seven full popcounts.
void add_word_counts(std::uint64_t w, FaceCounts& counts)
{
  constexpr std::uint64_t k55 = 0x5555555555555555ULL;
  constexpr std::uint64_t k33 = 0x3333333333333333ULL;
  constexpr std::uint64_t k0F = 0x0F0F0F0F0F0F0F0FULL;
  const std::uint64_t pairs = w - ((w >> 1) & k55);
  const std::uint64_t nibbles = (pairs & k33) + ((pairs >> 2) & k33);
  const std::uint64_t bytes = (nibbles + (nibbles >> 4)) & k0F;
  const std::uint64_t odd = (w >> 1) & k55;  // bits with x_0 = 1
  const std::uint64_t odd_nibbles = (odd & k33) + ((odd >> 2) & k33);
  const std::uint64_t high_pairs = (pairs >> 2) & k33;  // x_1 = 1 pair counts
  const std::uint32_t ones = byte_sum(bytes);
  counts.ones += ones;
  counts.one_face[0] += byte_sum((odd_nibbles + (odd_nibbles >> 4)) & k0F);
  counts.one_face[1] += byte_sum((high_pairs + (high_pairs >> 4)) & k0F);
  counts.one_face[2] += byte_sum((nibbles >> 4) & k0F);
  counts.one_face[3] += byte_sum(bytes & kVarMask[3]);
  counts.one_face[4] += byte_sum(bytes & kVarMask[4]);
  counts.one_face[5] += byte_sum(bytes & kVarMask[5]);
}

[[nodiscard]] FaceCounts face_counts(const TruthTable& tt)
{
  FaceCounts counts;
  const int n = tt.num_vars();
  const auto words = tt.words();
  for (std::size_t j = 0; j < words.size(); ++j) {
    const std::uint64_t before = counts.ones;
    add_word_counts(words[j], counts);
    const auto ones = static_cast<std::uint32_t>(counts.ones - before);
    for (int i = kVarsPerWord; i < n; ++i) {
      if (((j >> (i - kVarsPerWord)) & 1u) != 0) {
        counts.one_face[static_cast<std::size_t>(i)] += ones;
      }
    }
  }
  return counts;
}

/// Complements every input whose bit is set in `neg`, in place: one block
/// swap per in-word variable, one word-index XOR for the rest. In-word flips
/// of a table with n < 6 keep the excess bits zero.
void flip_inputs(std::span<std::uint64_t> words, int n, std::uint32_t neg)
{
  for (int i = 0; i < std::min(n, kVarsPerWord); ++i) {
    const std::uint64_t select = 0 - static_cast<std::uint64_t>((neg >> i) & 1u);
    for (auto& w : words) {
      w ^= (w ^ flip_in_word(w, i)) & select;
    }
  }
  const std::size_t cross = neg >> kVarsPerWord;
  if (cross == 0) {
    return;
  }
  for (std::size_t j = 0; j < words.size(); ++j) {
    if (const std::size_t k = j ^ cross; j < k) {
      std::swap(words[j], words[k]);
    }
  }
}

/// Exchanges variables a <= b in place (a == b is a no-op): a delta-swap
/// inside each word, a half-word exchange between word pairs, or whole-word
/// swaps.
void swap_inputs(std::span<std::uint64_t> words, int a, int b)
{
  if (b < kVarsPerWord) {
    for (auto& w : words) {
      w = swap_in_word(w, a, b);
    }
    return;
  }
  const std::size_t stride_b = std::size_t{1} << (b - kVarsPerWord);
  if (a >= kVarsPerWord) {
    // Word j (x_a = 1, x_b = 0) trades with word j + stride_b - stride_a.
    const std::size_t stride_a = std::size_t{1} << (a - kVarsPerWord);
    for (std::size_t j = 0; j < words.size(); ++j) {
      if ((j & stride_a) != 0 && (j & stride_b) == 0) {
        std::swap(words[j], words[j + stride_b - stride_a]);
      }
    }
    return;
  }
  // In each (lo, hi) word pair differing in x_b, the x_a = 1 bits of lo
  // trade with the x_a = 0 bits of hi.
  const std::uint64_t mask_a = kVarMask[static_cast<std::size_t>(a)];
  const int shift = 1 << a;
  for (std::size_t j = 0; j < words.size(); ++j) {
    if ((j & stride_b) != 0) {
      continue;
    }
    const std::uint64_t lo = words[j];
    const std::uint64_t hi = words[j + stride_b];
    words[j] = (lo & ~mask_a) | ((hi & ~mask_a) << shift);
    words[j + stride_b] = (hi & mask_a) | ((lo & mask_a) >> shift);
  }
}

/// Cofactor-ordered form for a fixed output polarity, computed in place over
/// the table's words. `counts` are the input table's face counts; under
/// output negation each face count c becomes 2^(n-1) - c. Each input is
/// flipped so its 1-side cofactor count is the smaller one, then variables
/// with small 1-side counts move to the most significant positions
/// (position n-1 gets the smallest), so the image's top blocks are as sparse
/// as the one-pass heuristic can make them. Ties keep index order.
[[nodiscard]] SemiclassResult form_polarity(const TruthTable& tt, const FaceCounts& counts,
                                            bool output_neg)
{
  const int n = tt.num_vars();
  const std::uint32_t half = n == 0 ? 0 : std::uint32_t{1} << (n - 1);

  SemiclassResult result{tt, NpnTransform{}};
  NpnTransform& t = result.transform;
  t.num_vars = n;
  t.output_neg = output_neg;

  // Sort key of input i: its 1-side count above its index, so keys are
  // distinct and equal counts keep index order. The 0-side count is |h|
  // minus the 1-side count, so it never breaks a tie. Unused slots hold the
  // maximum key and rank after every input.
  std::array<std::uint32_t, kMaxVars> key{};
  key.fill(~std::uint32_t{0});
  for (int i = 0; i < n; ++i) {
    const auto ui = static_cast<std::size_t>(i);
    std::uint32_t c1 = counts.one_face[ui];
    std::uint32_t c0 = static_cast<std::uint32_t>(counts.ones) - c1;
    if (output_neg) {
      c1 = half - c1;
      c0 = half - c0;
    }
    t.input_neg |= static_cast<std::uint32_t>(c1 > c0) << i;
    key[ui] = (std::min(c0, c1) << 4) | static_cast<std::uint32_t>(i);
  }
  static_assert(kMaxVars <= 16, "the sort key packs the input index in 4 bits");
  // Branch-free ranks; order[r] = the input of rank r.
  std::array<std::uint8_t, kMaxVars> order{};
  for (int i = 0; i < n; ++i) {
    std::uint32_t rank = 0;
    for (const std::uint32_t other : key) {
      rank += static_cast<std::uint32_t>(other < key[static_cast<std::size_t>(i)]);
    }
    order[rank] = static_cast<std::uint8_t>(i);
    t.perm[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(n - 1 - static_cast<int>(rank));
  }

  const std::span<std::uint64_t> words = result.image.words();
  flip_inputs(words, n, t.input_neg);
  // Fill positions bottom-up: position p takes input order[n-1-p], found
  // wherever earlier transpositions left it.
  std::array<std::uint8_t, kMaxVars> at{};
  std::array<std::uint8_t, kMaxVars> where{};
  for (int i = 0; i < n; ++i) {
    at[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
    where[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i);
  }
  for (int p = 0; p < n; ++p) {
    const std::uint8_t v = order[static_cast<std::size_t>(n - 1 - p)];
    const int q = where[v];
    swap_inputs(words, p, q);  // a no-op when q == p
    const std::uint8_t u = at[static_cast<std::size_t>(p)];
    at[static_cast<std::size_t>(q)] = u;
    where[u] = static_cast<std::uint8_t>(q);
  }
  if (output_neg) {
    result.image.complement_in_place();
  }
  return result;
}

}  // namespace

SemiclassKey semiclass_key(const TruthTable& tt)
{
  const std::uint64_t ones = tt.count_ones();
  const std::uint64_t bits = tt.num_bits();

  std::uint64_t digest = 0;
  if (2 * ones < bits) {
    digest = polarity_digest(tt);
  } else if (2 * ones > bits) {
    digest = polarity_digest(~tt);
  } else {
    // Balanced: neither polarity is distinguished by the satisfy count, but
    // complementation maps the polarity pair onto itself, so the min of the
    // two digests is still an orbit invariant.
    digest = std::min(polarity_digest(tt), polarity_digest(~tt));
  }
  return SemiclassKey{tt.num_vars(), digest};
}

SemiclassResult semiclass_form(const TruthTable& tt)
{
  const FaceCounts counts = face_counts(tt);
  const std::uint64_t bits = tt.num_bits();
  if (2 * counts.ones < bits) {
    return form_polarity(tt, counts, false);
  }
  if (2 * counts.ones > bits) {
    return form_polarity(tt, counts, true);
  }
  SemiclassResult a = form_polarity(tt, counts, false);
  SemiclassResult b = form_polarity(tt, counts, true);
  return a.image <= b.image ? a : b;
}

}  // namespace facet
