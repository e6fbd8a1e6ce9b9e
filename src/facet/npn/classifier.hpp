/// \file classifier.hpp
/// \brief Shared types for NPN classification runs, and the one dispatch over
///        every classifier in the library.
///
/// Every classifier in the library — the paper's signature classifier and
/// all baselines — consumes a list of truth tables and produces a
/// ClassificationResult: a class id per function plus the class count, which
/// is the quantity Tables II and III report. Each one builds a key per
/// function on `num_threads` threads and groups equal keys sequentially in
/// input order (classify_by_key), so ids never depend on the thread count;
/// classify() runs the one a ClassifierKind names.

#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "facet/sig/msv.hpp"
#include "facet/tt/truth_table.hpp"
#include "facet/util/parallel.hpp"

namespace facet {

struct ClassificationResult {
  std::size_t num_classes = 0;
  /// class_of[k] is the class id (0-based, dense) of the k-th input function.
  std::vector<std::uint32_t> class_of;

  /// Histogram of class sizes (class id -> member count).
  [[nodiscard]] std::vector<std::uint32_t> class_sizes() const
  {
    std::vector<std::uint32_t> sizes(num_classes, 0);
    for (const auto c : class_of) {
      ++sizes[c];
    }
    return sizes;
  }

  /// Index of the first member of every class, in class-id order.
  [[nodiscard]] std::vector<std::uint32_t> first_members() const
  {
    std::vector<std::uint32_t> first;
    for (std::size_t i = 0; i < class_of.size(); ++i) {
      if (class_of[i] == first.size()) {
        first.push_back(static_cast<std::uint32_t>(i));
      }
    }
    return first;
  }
};

/// key_at(i) for every i in [0, count), computed in chunks on `num_threads`
/// threads (parallel_for; 0 = hardware concurrency).
template <typename KeyAt>
[[nodiscard]] auto parallel_keys(std::size_t count, KeyAt&& key_at, std::size_t num_threads)
{
  std::vector<std::decay_t<std::invoke_result_t<KeyAt&, std::size_t>>> keys(count);
  const std::size_t threads = resolve_num_threads(num_threads);
  // Eight chunks per thread balance skewed keys; 64 keys amortize a claim.
  const std::size_t chunk = std::clamp<std::size_t>(count / (threads * 8), 1, 64);
  parallel_for((count + chunk - 1) / chunk, threads, [&](std::size_t c) {
    for (std::size_t i = c * chunk; i < std::min(count, (c + 1) * chunk); ++i) {
      keys[i] = key_at(i);
    }
  });
  return keys;
}

/// Numbers the distinct proj(keys[i]) densely by first occurrence. The
/// table is open addressing over each class's first index (slot = index + 1,
/// 0 = empty), at most half full: the keys stay in place, no node per key.
template <typename Hasher = TruthTableHash, std::ranges::random_access_range Keys,
          typename Proj = std::identity>
[[nodiscard]] ClassificationResult group_keys(const Keys& keys, Proj proj = {})
{
  const std::size_t count = std::ranges::size(keys);
  ClassificationResult result;
  result.class_of.resize(count);
  std::vector<std::uint32_t> slots(std::bit_ceil(2 * count + 1));
  for (std::size_t i = 0; i < count; ++i) {
    const auto& key = std::invoke(proj, keys[i]);
    std::size_t s = Hasher{}(key) & (slots.size() - 1);
    while (slots[s] != 0 && !(std::invoke(proj, keys[slots[s] - 1]) == key)) {
      s = (s + 1) & (slots.size() - 1);
    }
    if (slots[s] == 0) {
      slots[s] = static_cast<std::uint32_t>(i + 1);
      result.class_of[i] = static_cast<std::uint32_t>(result.num_classes++);
    } else {
      result.class_of[i] = result.class_of[slots[s] - 1];
    }
  }
  return result;
}

/// Input i lands in group_classes.class_of[groups.class_of[i]]: the second
/// grouping of a two-stage classifier, still dense by first occurrence.
[[nodiscard]] ClassificationResult merge_groups(const ClassificationResult& groups,
                                                const ClassificationResult& group_classes);

/// Groups functions by a per-function class key: two inputs share a class
/// iff key_of returns equal keys, and ids are dense by first occurrence.
/// With a canonicalization as the key (the canonical table is always an
/// NPN-transform image of the input) a classifier never merges inequivalent
/// functions; it can only split true classes when the canonicalization is
/// heuristic. With a signature vector as the key it never splits a class.
/// key_of must not share mutable state: it runs on `num_threads` threads.
template <typename Hasher = TruthTableHash, typename KeyOf>
[[nodiscard]] ClassificationResult classify_by_key(std::span<const TruthTable> funcs, KeyOf&& key_of,
                                                   std::size_t num_threads = 1)
{
  return group_keys<Hasher>(
      parallel_keys(funcs.size(), [&](std::size_t i) { return key_of(funcs[i]); }, num_threads));
}

/// Runs `classify_uniques` on the distinct tables of `funcs` in
/// first-occurrence order and maps its ids back onto every input: the same
/// result as classifying `funcs`, without keying a repeat twice.
/// `num_distinct`, when given, receives the distinct count.
[[nodiscard]] ClassificationResult classify_distinct(
    std::span<const TruthTable> funcs,
    const std::function<ClassificationResult(std::span<const TruthTable>)>& classify_uniques,
    std::size_t* num_distinct = nullptr);

/// The classifiers classify() and the batch engine run.
enum class ClassifierKind {
  kExact,          ///< classify_exact: signature buckets + complete matcher
  kExhaustive,     ///< classify_exhaustive: Kitty-style exact canonical form (n <= 8)
  kFp,             ///< classify_fp: full-MSV equality (Algorithm 1)
  kFpHashed,       ///< classify_fp_hashed: 128-bit MSV hash keys
  kSemiCanonical,  ///< classify_semi_canonical: Huang FPT'13 analog
  kHierarchical,   ///< classify_hierarchical: Petkovska FPL'16 analog
  kCodesign,       ///< classify_codesign: Zhou TC'20 analog
};

/// Stable CLI-facing name ("exact", "kitty", "fp", "fp-hashed", "semi",
/// "hier", "codesign").
[[nodiscard]] std::string classifier_kind_name(ClassifierKind kind);

/// Inverse of classifier_kind_name; nullopt for unknown names.
[[nodiscard]] std::optional<ClassifierKind> classifier_kind_from_name(std::string_view name);

/// Runs the classifier of `kind` on `funcs` (keys on `num_threads` threads).
/// `signature` is the MSV configuration of the fp kinds and the bucket
/// signature of kExact; the canonical-form kinds ignore it.
[[nodiscard]] ClassificationResult classify(std::span<const TruthTable> funcs, ClassifierKind kind,
                                            const SignatureConfig& signature = SignatureConfig::all(),
                                            std::size_t num_threads = 1);

}  // namespace facet
