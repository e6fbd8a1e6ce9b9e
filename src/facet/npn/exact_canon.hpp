/// \file exact_canon.hpp
/// \brief Exact NPN canonical form: orbit walk and branch-and-bound.
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
///  * exact_npn_canonical — branch-and-bound in the spirit of the paper's
///    thesis: cheap invariant characteristics prune the transform search.
///    Target positions are assigned most-significant first; at depth d the
///    2^d top-block popcounts (d-ary cofactor counts of the partial
///    assignment) give a sound lower bound on every completion (each block's
///    ones packed at its low end), so subtrees that cannot beat the current
///    incumbent are cut. The incumbent is seeded with the one-pass semiclass
///    form (semiclass.hpp), which constrains the enumeration to
///    permutations/phases consistent with the semiclass cofactor ordering —
///    orders of magnitude fewer nodes than the full orbit on typical
///    functions, while remaining exhaustive (bit-identical results).
///
/// Both are limited to n <= 8 and both output polarities are searched, so
/// the results agree exactly (property-tested).

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
/// probe). A wrong seed that would change the result fails the witness
/// check and throws std::logic_error.
[[nodiscard]] CanonResult exact_npn_canonical_with_transform(const TruthTable& tt,
                                                             const SemiclassResult& seed);

/// The pre-table dispatch (walk for n <= 3, branch-and-bound beyond):
/// identical results to exact_npn_canonical at every width, but never
/// consults the NPN4 table. Kept as the table-off baseline the benchmarks
/// measure speedups against and the path a table-disabled store runs.
[[nodiscard]] TruthTable exact_npn_canonical_search(const TruthTable& tt);
[[nodiscard]] CanonResult exact_npn_canonical_search_with_transform(const TruthTable& tt);

/// Reference implementation: exhaustive orbit walk with no pruning. Kept as
/// the oracle the branch-and-bound is property-tested against.
[[nodiscard]] TruthTable exact_npn_canonical_walk(const TruthTable& tt);

/// Walk-based canonical form plus a witnessing transform.
[[nodiscard]] CanonResult exact_npn_canonical_walk_with_transform(const TruthTable& tt);

}  // namespace facet
