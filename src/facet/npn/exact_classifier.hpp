/// \file exact_classifier.hpp
/// \brief Exact NPN classification for arbitrary n (the ground truth).
///
/// Tables II and III compare every method against the exact class count
/// ("Kitty when n <= 6 and the exact version in [19] when n > 6"). This
/// module provides that reference for any n the kernel supports:
///
///  1. bucket the functions by their full MSV — sound, because Theorems 1-4
///     make the MSV an NPN invariant, so equivalent functions always share a
///     bucket;
///  2. within a bucket, maintain class representatives and decide membership
///     with the complete pairwise matcher (matcher.hpp), which is exact in
///     both directions. Buckets are matched independently, on threads.
///
/// MSV collisions between inequivalent functions (the paper observes them
/// from n = 8) are resolved by the matcher, so the output is exact even
/// where the signature classifier alone is not.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "facet/npn/classifier.hpp"
#include "facet/npn/exact_canon.hpp"
#include "facet/sig/msv.hpp"

namespace facet {

/// Telemetry of one exact classification run: how much work the signature
/// buckets saved the complete matcher.
struct ExactClassifyStats {
  std::size_t buckets = 0;        ///< distinct MSVs seen
  std::size_t matcher_calls = 0;  ///< pairwise complete matches performed
  std::size_t matcher_hits = 0;   ///< matches that confirmed equivalence
};

/// Exact NPN classification of `funcs` (all with the same variable count).
///
/// `bucket_config` selects the signature family used for bucketing. Any
/// NPN-invariant configuration is sound; stronger configurations shrink the
/// buckets and slash the number of complete-matcher calls. This realizes the
/// paper's closing remark that influence and sensitivity "have great
/// potential to be extended to the traditional method to achieve exact NPN
/// classification" — the ablation bench quantifies it.
[[nodiscard]] ClassificationResult classify_exact(std::span<const TruthTable> funcs,
                                                  const SignatureConfig& bucket_config = SignatureConfig::all(),
                                                  ExactClassifyStats* stats = nullptr, std::size_t num_threads = 1);

/// classify_exhaustive's classes and, per class, the exact canonical form
/// and witness of its first member.
struct ExhaustiveClassification {
  ClassificationResult classes;
  /// canon[c] == exact_npn_canonical_with_transform(first member of c).
  std::vector<CanonResult> canon;
};

/// Exact classification by exact canonical form (n <= 8 only): the NPN4
/// table at n <= 4, branch-and-bound beyond. Beyond n = 4 the functions are
/// first grouped by semiclass image (semiclass.hpp), and each image group
/// runs one search, so equivalent inputs, not just repeats, skip it.
[[nodiscard]] ExhaustiveClassification classify_exhaustive_with_transforms(std::span<const TruthTable> funcs,
                                                                           std::size_t num_threads = 1);

/// Its classes, dense by first occurrence: the Table III "Kitty" baseline.
[[nodiscard]] ClassificationResult classify_exhaustive(std::span<const TruthTable> funcs,
                                                       std::size_t num_threads = 1);

}  // namespace facet
