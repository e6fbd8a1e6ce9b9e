/// \file hierarchical.hpp
/// \brief Hierarchical NPN classification (the `testnpn -7` / Petkovska
///        FPL'16 analog).
///
/// Spends effort hierarchically: a cheap semi-canonical pass groups the bulk
/// of the functions, then only the distinct group representatives — far
/// fewer than the input functions — are refined with a (budgeted)
/// co-designed canonical form, merging groups whose refined images coincide.
/// Both levels produce true transform images, so merges are always sound;
/// accuracy and runtime land between the -6 and -11 baselines, matching the
/// Table III profile.

#pragma once

#include <cstddef>
#include <span>

#include "facet/npn/classifier.hpp"

namespace facet {

/// Candidate budget of the refinement level's co-designed search.
inline constexpr std::size_t kHierarchicalRefineBudget = 64;

/// Hierarchical classification: semi-canonical grouping, then each distinct
/// semi-canonical image refined once under kHierarchicalRefineBudget. Both
/// levels run on `num_threads` threads.
[[nodiscard]] ClassificationResult classify_hierarchical(std::span<const TruthTable> funcs,
                                                         std::size_t num_threads = 1);

}  // namespace facet
