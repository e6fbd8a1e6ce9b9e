/// \file semiclass.hpp
/// \brief One-pass semiclass form (the store memo's key) and its invariant
///        digest.
///
/// semi_canonical.hpp is the paper's -6 baseline: a one-pass cofactor-ordered
/// form whose index tie-breaks deliberately sacrifice invariance for speed.
/// This module builds on the same face/point characteristics:
///
///  * semiclass_form(f) is the one-pass cofactor-ordered orbit element in the
///    style of pressmold's npn_semiclass: choose the sparser output polarity,
///    flip each input so its 1-side cofactor is the smaller one, and sort
///    variables by 1-side count so the sparsest variable drives the most
///    significant position. The image is NOT invariant (ties are broken by
///    index), but it is an exact member of f's orbit with a witnessing
///    transform. That makes it the key of the store's semiclass memo and of
///    classify_exhaustive's image stage (class_store.hpp,
///    exact_classifier.hpp): every function mapping onto a known image is in
///    that image's class, so a hit is exact by construction. It also seeds
///    the branch-and-bound canonicalizer's incumbent and constrains which
///    permutations/phases the exact search must consider. It works on the
///    table's words: cofactor counts are masked popcounts (variables >= 6
///    select word blocks), the stable order is a branch-free rank over a
///    fixed array, and the image is built by in-place flips and
///    delta-swaps, with no heap allocation for n <= 7.
///
///  * semiclass_key(f) is a TRUE NPN invariant — every function in an NPN
///    orbit produces the same key. The key digests only invariant
///    quantities: the polarity-normalized satisfy count and, per variable,
///    the phase-insensitive cofactor pair and the influence (Theorem 1), as
///    a sorted multiset. For balanced functions (where output polarity is
///    not distinguished by the satisfy count) the digest is the min over
///    both polarities; cofactor counts complement to 2^(n-1) - c under
///    output negation while influence is unchanged, so the min is itself
///    invariant. It is off the lookup path; tests and the ledger use it as
///    a bucket key (equal keys are necessary, not sufficient, for NPN
///    equivalence: distinct classes may collide in the 64-bit digest).

#pragma once

#include <cstddef>
#include <cstdint>

#include "facet/npn/transform.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// NPN-invariant bucket key. Equal for every member of an NPN orbit;
/// inequality proves two functions are NOT NPN equivalent. Equality does not
/// prove equivalence: a caller bucketing by the 64-bit digest must confirm
/// candidates with a complete check (matcher.hpp).
struct SemiclassKey {
  int num_vars = 0;
  std::uint64_t digest = 0;

  friend bool operator==(const SemiclassKey&, const SemiclassKey&) = default;
};

struct SemiclassKeyHash {
  [[nodiscard]] std::size_t operator()(const SemiclassKey& key) const noexcept
  {
    return static_cast<std::size_t>(key.digest ^ static_cast<std::uint64_t>(key.num_vars));
  }
};

/// Computes the invariant key of `tt`'s NPN orbit. O(n * 2^n / 64).
[[nodiscard]] SemiclassKey semiclass_key(const TruthTable& tt);

struct SemiclassResult {
  TruthTable image;
  /// Witness: apply_transform(input, transform) == image.
  NpnTransform transform;
};

/// One-pass cofactor-ordered semi-canonical form with a witnessing
/// transform. The image is in the NPN orbit of `tt` but is not itself an
/// orbit invariant (index tie-breaks); see the file comment.
[[nodiscard]] SemiclassResult semiclass_form(const TruthTable& tt);

}  // namespace facet
