#include "facet/npn/exact_canon.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <type_traits>

#include "facet/npn/enumerate.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {

namespace {

/// `facet_canonicalize_latency{path=...}` handles, resolved once per
/// process. "bb" is the branch-and-bound dispatch every store/serve miss
/// pays; "walk" is the exhaustive-orbit oracle.
obs::LatencyHistogram& canonicalize_histogram(const char* path)
{
  return obs::MetricRegistry::global().histogram("facet_canonicalize_latency",
                                                 obs::label("path", path));
}

/// Shared walk over all 2^n * n! input transformations (times both output
/// polarities at every visit).
///
/// Permutations are walked with the SJT adjacent-swap sequence, alternating
/// direction each pass (a palindrome), so every pass starts from the state
/// the previous one ended in. Phases are walked with a Gray code — but the
/// swap passes conjugate the accumulated phase, so applying the Gray flip at
/// a fixed table position would revisit states (e.g. for n = 2 the second
/// flip would cancel the first). Instead the walk tracks the current
/// permutation part sigma and flips table position sigma(p) for Gray
/// position p: the permutation-invariant phase signature sigma^{-1}(phase)
/// then follows the Gray code exactly, which makes all 2^n * n! visited
/// transformations distinct — i.e. full orbit coverage.
///
/// When `track` is true, maintains the NpnTransform reaching the current
/// table so the best one can be reported.
template <bool track>
CanonResult walk(const TruthTable& tt)
{
  const int n = tt.num_vars();
  if (n > 8) {
    throw std::invalid_argument("exact_npn_canonical: exhaustive walk limited to n <= 8");
  }

  const auto swaps = sjt_adjacent_swaps(n);

  TruthTable cur = tt;
  TruthTable curc = ~tt;
  NpnTransform cur_t = NpnTransform::identity(n);

  // Permutation part of the walk state (and its inverse): sigma[i] is where
  // table position i currently sits relative to the start.
  std::array<int, kMaxVars> sigma{};
  std::array<int, kMaxVars> sigma_inv{};
  std::iota(sigma.begin(), sigma.begin() + std::max(n, 1), 0);
  std::iota(sigma_inv.begin(), sigma_inv.begin() + std::max(n, 1), 0);

  CanonResult best{cur, cur_t};
  if (curc < best.canonical) {
    best.canonical = curc;
    best.transform.output_neg = true;
  }

  const auto visit = [&]() {
    if (cur < best.canonical) {
      best.canonical = cur;
      if constexpr (track) {
        best.transform = cur_t;
      }
    }
    if (curc < best.canonical) {
      best.canonical = curc;
      if constexpr (track) {
        best.transform = cur_t;
        best.transform.output_neg = !best.transform.output_neg;
      }
    }
  };

  const auto apply_swap = [&](int p) {
    swap_adjacent_in_place(cur, p);
    swap_adjacent_in_place(curc, p);
    // Left-composing the transposition (p, p+1): exchange which start
    // positions currently map to p and p + 1.
    const int j0 = sigma_inv[static_cast<std::size_t>(p)];
    const int j1 = sigma_inv[static_cast<std::size_t>(p + 1)];
    sigma[static_cast<std::size_t>(j0)] = p + 1;
    sigma[static_cast<std::size_t>(j1)] = p;
    sigma_inv[static_cast<std::size_t>(p)] = j1;
    sigma_inv[static_cast<std::size_t>(p + 1)] = j0;
    if constexpr (track) {
      NpnTransform op = NpnTransform::identity(n);
      op.perm[static_cast<std::size_t>(p)] = static_cast<std::uint8_t>(p + 1);
      op.perm[static_cast<std::size_t>(p + 1)] = static_cast<std::uint8_t>(p);
      cur_t = compose(op, cur_t);
    }
  };

  const auto apply_flip = [&](int table_pos) {
    flip_var_in_place(cur, table_pos);
    flip_var_in_place(curc, table_pos);
    if constexpr (track) {
      NpnTransform op = NpnTransform::identity(n);
      op.input_neg = 1u << table_pos;
      cur_t = compose(op, cur_t);
    }
  };

  const std::uint64_t phases = std::uint64_t{1} << n;
  for (std::uint64_t k = 0;; ++k) {
    // Full permutation pass, alternating direction (palindrome walk).
    if (k % 2 == 0) {
      for (const int p : swaps) {
        apply_swap(p);
        visit();
      }
    } else {
      for (std::size_t i = swaps.size(); i-- > 0;) {
        apply_swap(swaps[i]);
        visit();
      }
    }
    if (k + 1 == phases) {
      break;
    }
    const int gray_pos = gray_flip_position(k + 1);
    apply_flip(sigma[static_cast<std::size_t>(gray_pos)]);
    visit();
  }
  return best;
}

/// Free variables of the blocks the face bound works on: kPnMin4's width.
constexpr int kFaceVars = 4;

/// The least value `c` ones can take in a block of at most 64 bits: all of
/// them packed at the low end.
[[nodiscard]] std::uint64_t packed_low(std::uint64_t c)
{
  return c >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << c) - 1;
}

/// -1, 0 or 1 as a is less than, equal to or greater than b.
[[nodiscard]] int three_way(std::uint64_t a, std::uint64_t b) { return a == b ? 0 : (a > b ? 1 : -1); }

/// Compares `c` ones packed low in a block of `words` whole words against
/// the block `iw`, most significant word first.
[[nodiscard]] int compare_packed_words(std::uint64_t c, const std::uint64_t* iw, std::size_t words)
{
  for (std::size_t w = words; w-- > 0;) {
    const std::uint64_t base = static_cast<std::uint64_t>(w) * 64;
    const int cmp = three_way(packed_low(c > base ? c - base : 0), iw[w]);
    if (cmp != 0) {
      return cmp;
    }
  }
  return 0;
}

/// Least value any completion can give a block of 2^k bits holding `block`
/// (k free variables): the remaining transforms permute and complement
/// those k variables, so for k <= 4 the block's PN-minimum is exact; above
/// that its ones packed at the low end.
[[nodiscard]] std::uint64_t block_floor(std::uint64_t block, int k)
{
  if (k <= kFaceVars) {
    return pn_min(k, block);
  }
  return packed_low(static_cast<std::uint64_t>(popcount64(block)));
}

// Table primitives of the branch-and-bound, one overload per table
// representation: a single 64-bit word for n <= 6, a TruthTable for
// n = 7, 8 (so the TruthTable overloads always see at least two words).
// A depth-d "top block" is the table's most significant 2^(n-d) bits.

[[nodiscard]] std::uint64_t complement(std::uint64_t w, int n) { return ~w & low_bits_mask(n); }

[[nodiscard]] TruthTable complement(const TruthTable& t, int /*n*/) { return ~t; }

[[nodiscard]] TruthTable to_truth_table(std::uint64_t w, int n) { return TruthTable::from_word(n, w); }

[[nodiscard]] TruthTable to_truth_table(TruthTable t, int /*n*/) { return t; }

[[nodiscard]] std::uint64_t count_ones(std::uint64_t w)
{
  return static_cast<std::uint64_t>(popcount64(w));
}

[[nodiscard]] std::uint64_t count_ones(const TruthTable& t) { return t.count_ones(); }

/// Swaps table positions a <= b.
void swap_positions(std::uint64_t& w, int a, int b)
{
  if (a != b) {
    w = swap_in_word(w, a, b);
  }
}

void swap_positions(TruthTable& t, int a, int b) { swap_vars_in_place(t, a, b); }

/// Complements table position p (the bits above a sub-word table stay zero).
void flip_position(std::uint64_t& w, int p) { w = flip_in_word(w, p); }

void flip_position(TruthTable& t, int p) { flip_var_in_place(t, p); }

/// The c-th 16-bit chunk of a table: the 4-variable face its top positions
/// select with value c.
[[nodiscard]] std::uint64_t chunk16(std::uint64_t w, unsigned c) { return (w >> (16 * c)) & 0xFFFF; }

[[nodiscard]] std::uint64_t chunk16(const TruthTable& t, unsigned c)
{
  return (t.word(c >> 2) >> (16 * (c & 3))) & 0xFFFF;
}

/// Ones of r's depth-level top block restricted to minterms where the
/// variable at position `s` is 1 (s is below the assigned region).
[[nodiscard]] std::uint64_t masked_top_count(std::uint64_t r, int n, int depth, int s)
{
  const std::uint64_t bits = std::uint64_t{1} << n;
  const std::uint64_t region = bits >> depth;
  const std::uint64_t region_mask =
      (region >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << region) - 1) << (bits - region));
  return count_ones(r & region_mask & kVarMask[static_cast<std::size_t>(s)]);
}

[[nodiscard]] std::uint64_t masked_top_count(const TruthTable& r, int /*n*/, int depth, int s)
{
  const std::uint64_t bits = r.num_bits();
  const std::uint64_t region = bits >> depth;
  if (region >= 64) {
    std::uint64_t count = 0;
    for (std::size_t w = (bits - region) >> 6; w < (bits >> 6); ++w) {
      if (s >= kVarsPerWord) {
        if (((w >> (s - kVarsPerWord)) & 1u) != 0) {
          count += count_ones(r.word(w));
        }
      } else {
        count += count_ones(r.word(w) & kVarMask[static_cast<std::size_t>(s)]);
      }
    }
    return count;
  }
  // Sub-word region in the last word; s is in-word (s < log2(region) < 6).
  const std::uint64_t region_mask = ((std::uint64_t{1} << region) - 1) << (64 - region);
  return count_ones(r.words().back() & region_mask & kVarMask[static_cast<std::size_t>(s)]);
}

/// Compares `c` ones packed low against the incumbent's depth-level top
/// block: >0 means the packed bound alone already exceeds the incumbent
/// there (prune), 0 a tie, <0 strictly smaller.
[[nodiscard]] int compare_packed_top(std::uint64_t inc, int n, std::uint64_t c, int depth)
{
  const std::uint64_t bits = std::uint64_t{1} << n;
  return three_way(packed_low(c), inc >> (bits - (bits >> depth)));
}

[[nodiscard]] int compare_packed_top(const TruthTable& inc, int /*n*/, std::uint64_t c, int depth)
{
  const std::uint64_t bits = inc.num_bits();
  const std::uint64_t block = bits >> depth;
  if (block <= 64) {
    return three_way(packed_low(c), inc.words().back() >> (64 - block));
  }
  return compare_packed_words(c, inc.words().data() + ((bits - block) >> 6),
                              static_cast<std::size_t>(block >> 6));
}

/// True iff no completion of node `r` at `depth` can beat the incumbent:
/// compares the per-block floor (block_floor: PN-minimum up to 4 free
/// variables, packed low above) against `inc`, most significant block
/// first. Equality prunes too (only strict improvements matter).
[[nodiscard]] bool bound_prunes(std::uint64_t r, std::uint64_t inc, int n, int depth)
{
  const int block_log = n - depth;
  const std::uint64_t mask = low_bits_mask(block_log);
  for (std::uint64_t block = std::uint64_t{1} << depth; block-- > 0;) {
    const std::uint64_t shift = block << block_log;
    const std::uint64_t bv = block_floor((r >> shift) & mask, block_log);
    const std::uint64_t iv = (inc >> shift) & mask;
    if (bv != iv) {
      return bv > iv;
    }
  }
  return true;
}

[[nodiscard]] bool bound_prunes(const TruthTable& r, const TruthTable& inc, int n, int depth)
{
  const int block_log = n - depth;
  if (block_log >= kVarsPerWord) {
    // Blocks span whole words; above 4 free variables the floor is packed low.
    const std::size_t words_per_block = std::size_t{1} << (block_log - kVarsPerWord);
    for (std::size_t block = std::size_t{1} << depth; block-- > 0;) {
      const std::uint64_t* rw = r.words().data() + block * words_per_block;
      std::uint64_t c = 0;
      for (std::size_t w = 0; w < words_per_block; ++w) {
        c += count_ones(rw[w]);
      }
      const int cmp = compare_packed_words(c, inc.words().data() + block * words_per_block,
                                           words_per_block);
      if (cmp != 0) {
        return cmp > 0;
      }
    }
    return true;
  }
  // Sub-word blocks (they never straddle a word: power-of-two sizes).
  const std::uint64_t mask = low_bits_mask(block_log);
  for (std::uint64_t block = std::uint64_t{1} << depth; block-- > 0;) {
    const std::uint64_t bit = block << block_log;
    const std::uint64_t bv = block_floor((r.word(bit >> 6) >> (bit & 63)) & mask, block_log);
    const std::uint64_t iv = (inc.word(bit >> 6) >> (bit & 63)) & mask;
    if (bv != iv) {
      return bv > iv;
    }
  }
  return true;
}

/// The (n-4)-variable faces (cofactors) of f and ~f whose PN-minimum is
/// least. That least value is exactly the canonical form's top 2^4-bit
/// block: the top block of any transform of f is a PN image of the face of
/// f or ~f its n-4 top positions select, and a face reaching the least
/// value, placed on top and PN-minimized below, is such a transform. So no
/// leaf whose top positions select a face outside this list equals the
/// canonical form, and the search only extends prefixes that some listed
/// face is consistent with. `kCapacity` bounds the faces of one polarity,
/// C(n, n-4) * 2^(n-4).
template <std::size_t kCapacity>
class LeastFaces {
 public:
  /// `f` is the table as one word (n <= 6) or as a TruthTable.
  template <typename Table>
  LeastFaces(Table f, int n) : fixed_{n - kFaceVars}
  {
    for (unsigned vars = 0; vars < (1u << n); ++vars) {
      if (std::popcount(vars) != fixed_) {
        continue;
      }
      // Move the fixed variables to the top positions, highest first, so a
      // target position never holds a fixed variable still to be placed.
      // Chunk c is then the face with the fixed variables, in order, at the
      // values of c's bits.
      std::array<int, 8> moved{};
      int m = 0;
      for (int v = n - 1; v >= 0; --v) {
        if (((vars >> v) & 1u) != 0) {
          moved[static_cast<std::size_t>(m)] = v;
          swap_positions(f, v, n - 1 - m);
          ++m;
        }
      }
      for (unsigned c = 0; c < (1u << fixed_); ++c) {
        unsigned values = 0;
        for (unsigned rest = vars, bit = 0; rest != 0; rest &= rest - 1, ++bit) {
          values |= ((c >> bit) & 1u) << std::countr_zero(rest);
        }
        const std::uint64_t face = chunk16(f, c);
        add(0, vars, values, pn_min(kFaceVars, face));
        add(1, vars, values, pn_min(kFaceVars, face ^ 0xFFFF));
      }
      for (int k = m; k-- > 0;) {
        swap_positions(f, moved[static_cast<std::size_t>(k)], n - 1 - k);
      }
    }
  }

  /// True iff some least face is a face of f (output_neg false) or of ~f.
  [[nodiscard]] bool any(bool output_neg) const { return count_[output_neg ? 1 : 0] != 0; }

  /// The variables the next assignment may fix to 1 (index 0: phase 0)
  /// and to 0 (index 1: phase 1) and still agree with a least face of this
  /// polarity, when the prefix fixes the variables in `vars` to `values`.
  /// Every variable once n-4 are fixed: the faces are decided.
  [[nodiscard]] std::array<unsigned, 2> allowed(bool output_neg, unsigned vars,
                                                unsigned values) const
  {
    if (std::popcount(vars) >= fixed_) {
      return {~0u, ~0u};
    }
    const std::size_t side = output_neg ? 1 : 0;
    std::array<unsigned, 2> next{};
    for (std::size_t i = 0; i < count_[side]; ++i) {
      const Face& face = faces_[side][i];
      if ((face.vars & vars) == vars && ((face.values ^ values) & vars) == 0) {
        next[0] |= face.values;
        next[1] |= face.vars & ~face.values;
      }
    }
    return next;
  }

 private:
  /// Fixed-variable mask and their values (a subset of vars), n <= 8.
  struct Face {
    std::uint8_t vars = 0;
    std::uint8_t values = 0;
  };

  void add(std::size_t side, unsigned vars, unsigned values, std::uint64_t value)
  {
    if (value > least_) {
      return;
    }
    if (value < least_) {
      least_ = value;
      count_ = {};
    }
    faces_[side][count_[side]++] =
        Face{static_cast<std::uint8_t>(vars), static_cast<std::uint8_t>(values)};
  }

  int fixed_;
  std::uint64_t least_ = ~std::uint64_t{0};
  std::array<std::array<Face, kCapacity>, 2> faces_{};
  std::array<std::size_t, 2> count_{};
};

/// Branch-and-bound canonicalizer: assigns target positions most-significant
/// first (position n-1 at depth 0, position n-1-d at depth d). A node at
/// depth d is the table with the d assigned source variables moved to the
/// top positions (phases applied) and the unassigned variables below them in
/// their relative order; every completion only permutes/flips the unassigned
/// positions, i.e. rearranges bits WITHIN each of the 2^d top-address blocks
/// and preserves each block's popcount. Packing every block's ones at its
/// low end is therefore a sound lower bound on every completion, compared
/// lexicographically (most significant block first) against the incumbent:
/// bound >= incumbent cuts the subtree. A block with at most 4 free
/// variables is bounded by its PN-minimum instead (block_floor), and the
/// first n-4 assignments only extend prefixes some least face agrees with
/// (LeastFaces). The incumbent is seeded with the
/// semiclass image (a real orbit element whose cofactor ordering the search
/// must then beat), and children are expanded sparsest-top-block first — the
/// semiclass ordering — so the enumeration only descends into
/// permutation/phase prefixes consistent with a still-improvable cofactor
/// ordering instead of the full 2^(n+1) * n! orbit.
///
/// The search is written once over two table representations, and only the
/// table primitives above differ: `Table` is one std::uint64_t for n <= 6 and
/// a TruthTable for n = 7, 8. The store's hot range n = 5, 6 keeps the word:
/// there every node operation is a few register instructions and nodes pass
/// by value, while the multi-word table measured 16-27% slower at those
/// widths on circuit functions.
template <typename Table, bool track>
class Bnb {
 public:
  Bnb(const TruthTable& tt, const SemiclassResult& seed)
      : n_{tt.num_vars()}, faces_{table_of(tt), n_}, best_{table_of(seed.image)},
        best_transform_{seed.transform}
  {
    for (int out = 0; out <= 1; ++out) {
      output_neg_ = out == 1;
      const Table root = output_neg_ ? complement(table_of(tt), n_) : table_of(tt);
      std::iota(vars_at_.begin(), vars_at_.begin() + n_, 0);
      if (faces_.any(output_neg_) && !bound_prunes(root, best_, n_, 0)) {
        descend(root, 0, count_ones(root), 0, 0);
      }
    }
  }

  /// The canonical form of `tt` (the table searched) and, with `track`,
  /// its witness.
  [[nodiscard]] CanonResult result(const TruthTable& tt) &&
  {
    CanonResult out{to_truth_table(std::move(best_), n_), best_transform_};
    if constexpr (track) {
      // The store's bit-identity guarantee rides on this witness; fail loudly
      // rather than return a transform that does not reproduce the canonical.
      if (apply_transform_fast(tt, out.transform) != out.canonical) {
        throw std::logic_error("exact_npn_canonical: branch-and-bound witness failed verification");
      }
    }
    return out;
  }

 private:
  static constexpr bool kWord = std::is_same_v<Table, std::uint64_t>;
  /// The widest n the representation serves.
  static constexpr int kWidth = kWord ? kVarsPerWord : 8;
  /// Word nodes pass by value: a const& cost 10-15% at n = 5.
  using Node = std::conditional_t<kWord, Table, const Table&>;

  struct Candidate {
    std::uint64_t top_count = 0;
    int slot = 0;
    int phase = 0;
  };

  [[nodiscard]] static Table table_of(const TruthTable& t)
  {
    if constexpr (kWord) {
      return t.word(0);
    } else {
      return t;
    }
  }

  /// `top_count` is the popcount of r's most significant depth-level block
  /// (the whole table at the root), passed down so each child's new
  /// top-block count follows from one masked popcount on the parent. The
  /// assigned source variables are `fixed_vars`; `fixed_values` holds the
  /// value each takes in the top block (1 for phase 0).
  void descend(Node r, int depth, std::uint64_t top_count, unsigned fixed_vars,
               unsigned fixed_values)
  {
    if (depth == n_) {
      if (r < best_) {
        best_ = r;
        if constexpr (track) {
          NpnTransform t = NpnTransform::identity(n_);
          t.output_neg = output_neg_;
          for (int k = 0; k < n_; ++k) {
            const int v = assigned_var_[static_cast<std::size_t>(k)];
            t.perm[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(n_ - 1 - k);
            t.input_neg |= static_cast<std::uint32_t>(assigned_phase_[static_cast<std::size_t>(k)]) << v;
          }
          best_transform_ = t;
        }
      }
      return;
    }

    // Child (slot s, phase p) moves the variable at unassigned position s to
    // target position n-1-depth with optional complement. Its new top block
    // (depth+1) is the half of r's top block where that variable is 1 for
    // phase 0 and 0 for phase 1 — counted on r, without materializing the
    // child. Children whose packed-low top-block bound already exceeds the
    // incumbent's top block, or that no least face agrees with, are dropped
    // here.
    const int target = n_ - 1 - depth;
    const std::array<unsigned, 2> face_vars = faces_.allowed(output_neg_, fixed_vars, fixed_values);
    std::array<Candidate, 2 * kWidth> candidates;
    std::size_t count = 0;
    for (int s = 0; s <= target; ++s) {
      const std::uint64_t ones_side = masked_top_count(r, n_, depth, s);
      const std::uint64_t counts[2] = {ones_side, top_count - ones_side};
      const int var = vars_at_[static_cast<std::size_t>(s)];
      for (int p = 0; p <= 1; ++p) {
        if (((face_vars[static_cast<std::size_t>(p)] >> var) & 1u) == 0 ||
            compare_packed_top(best_, n_, counts[p], depth + 1) > 0) {
          continue;
        }
        candidates[count++] = Candidate{counts[p], s, p};
      }
    }
    // Sparsest new top block first: best candidates for a smaller table are
    // explored first, tightening the incumbent so later siblings prune.
    std::sort(candidates.begin(), candidates.begin() + static_cast<std::ptrdiff_t>(count),
              [](const Candidate& a, const Candidate& b) {
                if (a.top_count != b.top_count) {
                  return a.top_count < b.top_count;
                }
                if (a.slot != b.slot) {
                  return a.slot < b.slot;
                }
                return a.phase < b.phase;
              });

    for (std::size_t k = 0; k < count; ++k) {
      const Candidate& c = candidates[k];
      // The incumbent tightens as siblings complete; re-test before paying
      // for materialization. A strictly smaller packed top block is rarely
      // pruned by the full bound (above 4 free variables never: the first
      // differing block decides), so the full scan only runs on ties.
      const int cmp = compare_packed_top(best_, n_, c.top_count, depth + 1);
      if (cmp > 0) {
        continue;
      }
      if constexpr (kWord) {
        // On a tie, the second block (the other half of the parent's top
        // block, whose count is known) packed low above the incumbent's
        // prunes too, still without materializing the child.
        if (cmp == 0) {
          const std::uint64_t bits = std::uint64_t{1} << n_;
          const std::uint64_t sub = bits >> (depth + 1);
          const std::uint64_t iv2 = (best_ >> (bits - 2 * sub)) & ((std::uint64_t{1} << sub) - 1);
          if (packed_low(top_count - c.top_count) > iv2) {
            continue;
          }
        }
      }
      Table child = r;
      if (c.slot != target) {
        swap_positions(child, c.slot, target);
      }
      if (c.phase != 0) {
        flip_position(child, target);
      }
      if (cmp == 0 && bound_prunes(child, best_, n_, depth + 1)) {
        continue;
      }
      const int v = vars_at_[static_cast<std::size_t>(c.slot)];
      const int displaced = vars_at_[static_cast<std::size_t>(target)];
      vars_at_[static_cast<std::size_t>(c.slot)] = displaced;
      vars_at_[static_cast<std::size_t>(target)] = v;
      if constexpr (track) {
        assigned_var_[static_cast<std::size_t>(depth)] = v;
        assigned_phase_[static_cast<std::size_t>(depth)] = c.phase;
      }
      descend(child, depth + 1, c.top_count, fixed_vars | 1u << v,
              c.phase == 0 ? fixed_values | 1u << v : fixed_values);
      vars_at_[static_cast<std::size_t>(c.slot)] = v;
      vars_at_[static_cast<std::size_t>(target)] = displaced;
    }
  }

  int n_;
  /// Capacity C(n, n-4) * 2^(n-4) at the widest n of the representation.
  LeastFaces<kWord ? 15 * 4 : 70 * 16> faces_;
  Table best_;
  NpnTransform best_transform_;
  bool output_neg_ = false;
  std::array<int, 8> vars_at_{};
  std::array<int, 8> assigned_var_{};
  std::array<int, 8> assigned_phase_{};
};

/// The search behind exact_npn_canonical* for 4 < n <= 8 (width <= 4 is
/// the NPN4 table), timed into the "bb" histogram. `seed` is
/// semiclass_form(tt) when the caller already has it, else null.
template <bool track>
CanonResult canonical_dispatch(const TruthTable& tt, const SemiclassResult* seed)
{
  const int n = tt.num_vars();
  if (n > 8) {
    throw std::invalid_argument("exact_npn_canonical: limited to n <= 8");
  }
  static obs::LatencyHistogram& latency = canonicalize_histogram("bb");
  const std::uint64_t t0 = obs::now_ticks();
  std::optional<SemiclassResult> own;
  if (seed == nullptr) {
    own = semiclass_form(tt);
    seed = &*own;
  }
  CanonResult result = n <= kVarsPerWord ? Bnb<std::uint64_t, track>{tt, *seed}.result(tt)
                                         : Bnb<TruthTable, track>{tt, *seed}.result(tt);
  latency.record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
  return result;
}

}  // namespace

TruthTable exact_npn_canonical(const TruthTable& tt)
{
  if (tt.num_vars() <= kNpn4MaxVars) {
    // Tier zero: one array load resolves the whole orbit search. Left out
    // of the bb/walk histograms — there is no search to time.
    return TruthTable::from_word(tt.num_vars(), npn4_lookup(tt).canonical_word);
  }
  return canonical_dispatch<false>(tt, nullptr).canonical;
}

CanonResult exact_npn_canonical_with_transform(const TruthTable& tt)
{
  if (tt.num_vars() <= kNpn4MaxVars) {
    const Npn4Result result = npn4_lookup(tt);
    return CanonResult{TruthTable::from_word(tt.num_vars(), result.canonical_word),
                       result.transform};
  }
  return canonical_dispatch<true>(tt, nullptr);
}

CanonResult exact_npn_canonical_with_transform(const TruthTable& tt, const SemiclassResult& seed)
{
  if (tt.num_vars() <= kNpn4MaxVars) {
    return exact_npn_canonical_with_transform(tt);
  }
  return canonical_dispatch<true>(tt, &seed);
}

TruthTable exact_npn_canonical_walk(const TruthTable& tt)
{
  static obs::LatencyHistogram& latency = canonicalize_histogram("walk");
  const std::uint64_t t0 = obs::now_ticks();
  TruthTable canonical = walk<false>(tt).canonical;
  latency.record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
  return canonical;
}

CanonResult exact_npn_canonical_walk_with_transform(const TruthTable& tt)
{
  static obs::LatencyHistogram& latency = canonicalize_histogram("walk");
  const std::uint64_t t0 = obs::now_ticks();
  CanonResult result = walk<true>(tt);
  latency.record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
  return result;
}

}  // namespace facet
