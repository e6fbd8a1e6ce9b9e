/// \file semi_canonical.hpp
/// \brief Fast semi-canonical form (the `testnpn -6` / Huang FPT'13 analog).
///
/// The ultra-fast, inaccurate baseline of Table III: one deterministic NP
/// transform per function, decided purely by 0/1-ary cofactor counts —
/// output polarity by satisfy count, input phases by cofactor comparison,
/// variable order by sorting on cofactor counts with index tie-breaks.
/// Because ties are broken non-invariantly, NPN-equivalent functions often
/// land on different images (many more classes than exact), but every image
/// is a true transform of its source, so inequivalent functions are never
/// merged.

#pragma once

#include <cstddef>
#include <span>

#include "facet/npn/classifier.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// One deterministic NP-transform image of `tt`.
[[nodiscard]] TruthTable semi_canonical(const TruthTable& tt);

/// Classification by semi-canonical image.
[[nodiscard]] ClassificationResult classify_semi_canonical(std::span<const TruthTable> funcs,
                                                           std::size_t num_threads = 1);

}  // namespace facet
