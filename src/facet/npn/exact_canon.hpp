/// \file exact_canon.hpp
/// \brief Exact NPN canonical form: orbit walk, NPN4 table and branch-and-bound.
///
/// The canonical representative of an NPN class is the lexicographically
/// smallest truth table in the orbit of f under all 2^(n+1) * n! NPN
/// transformations.
///
/// Two complete implementations:
///
///  * exact_npn_canonical_walk — the algorithm family of
///    kitty::exact_npn_canonization, which the paper uses as the exact
///    reference for n <= 6 (Table III): walk the full orbit with
///    O(1)-table-op incremental steps (see enumerate.hpp). Exponential in n
///    with no pruning, which is why the paper reports it failing beyond 6
///    variables.
///
///  * exact_npn_canonical — for n <= 4 one load from the baked NPN4 norm
///    table (npn4_table.hpp, checked exhaustively against the walk); for
///    n > 4 branch-and-bound in the spirit of the paper's thesis: cheap
///    invariant characteristics prune the transform search.
///    Target positions are assigned most-significant first, so after d
///    steps the table splits into 2^d blocks whose contents only the n - d
///    free variables still rearrange. The incumbent is seeded with the
///    one-pass semiclass form (semiclass.hpp) and subtrees that cannot beat
///    it strictly are cut by three bounds:
///
///     - packed-low: a block keeps its popcount, so its ones packed at the
///       low end bound every completion (the only bound above 4 free
///       variables);
///     - PN-min blocks: with k <= 4 free variables a block can at best
///       become kPnMin<k>[block] (npn4_table.hpp), its least image under
///       the remaining input permutations and complementations;
///     - least faces: the canonical form's top 2^4-bit block is exactly the
///       least kPnMin4 value over every (n-4)-variable face (cofactor) of f
///       and ~f (one lookup each: 120 at n = 6), so the first n-4
///       assignments only extend prefixes that some face reaching that
///       value agrees with, and an output polarity with no such face is
///       skipped whole.
///
///    The search is one class template over two table representations:
///    one 64-bit word for n <= 6 and a multi-word TruthTable for n = 7, 8.
///    Only the table primitives (popcounts, swaps, flips, block compares)
///    differ. n = 5, 6 keep the word because they are the store's hot
///    range: a node is a register passed by value, and running the
///    multi-word table there was measured 16-27% slower.
///
///    Every cut removes only subtrees with no leaf equal to the canonical
///    form, and the traversal order (sparsest top block first, then slot,
///    then phase) does not depend on the bounds. So the witness — the
///    seed's transform when the seed is already canonical, else that of
///    the first leaf in this order reaching the canonical form — does not
///    depend on how much is pruned: the serve protocol's transform bytes
///    and every stored rep_to_canonical stay bit-identical when a bound is
///    sharpened (pinned by ExactCanon.WitnessGolden).
///
/// Both are limited to n <= 8 and both output polarities are searched, so
/// the results agree exactly (property-tested). The walk is the oracle
/// for both the table and the search.

#pragma once

#include "facet/npn/semiclass.hpp"
#include "facet/npn/transform.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// Lexicographically smallest table in the NPN orbit of `tt` (n <= 8).
/// Width <= 4 answers in O(1) through the baked NPN4 norm table
/// (npn4_table.hpp); wider inputs run the branch-and-bound search.
[[nodiscard]] TruthTable exact_npn_canonical(const TruthTable& tt);

struct CanonResult {
  TruthTable canonical;
  /// Transform with apply_transform(input, transform) == canonical.
  NpnTransform transform;
};

/// Canonical form plus a witnessing transform (table for n <= 4,
/// branch-and-bound beyond; n <= 8).
[[nodiscard]] CanonResult exact_npn_canonical_with_transform(const TruthTable& tt);

/// Same result, reusing `seed` == semiclass_form(tt) as the branch-and-bound
/// incumbent instead of deriving it again (the store has it from its memo
/// probe, classify_exhaustive from its image stage; width <= 4 ignores it).
/// A wrong seed that would change the result fails the witness check and
/// throws std::logic_error.
[[nodiscard]] CanonResult exact_npn_canonical_with_transform(const TruthTable& tt,
                                                             const SemiclassResult& seed);

/// Reference implementation: exhaustive orbit walk with no pruning. Kept as
/// the oracle the NPN4 table and the branch-and-bound are tested against.
[[nodiscard]] TruthTable exact_npn_canonical_walk(const TruthTable& tt);

/// Walk-based canonical form plus a witnessing transform.
[[nodiscard]] CanonResult exact_npn_canonical_walk_with_transform(const TruthTable& tt);

}  // namespace facet
