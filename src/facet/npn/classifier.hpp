/// \file classifier.hpp
/// \brief Shared types for NPN classification runs, and the one dispatch over
///        every classifier in the library.
///
/// Every classifier in the library — the paper's signature classifier and
/// all baselines — consumes a list of truth tables and produces a
/// ClassificationResult: a class id per function plus the class count, which
/// is the quantity Tables II and III report. Each one groups its input on a
/// per-function class key through classify_by_key; classify() runs the one
/// a ClassifierKind names.

#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "facet/sig/msv.hpp"
#include "facet/tt/truth_table.hpp"

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
};

/// Groups functions by a per-function class key: two inputs share a class
/// iff key_of returns equal keys, and ids are dense by first occurrence.
/// With a canonicalization as the key (the canonical table is always an
/// NPN-transform image of the input) a classifier never merges inequivalent
/// functions; it can only split true classes when the canonicalization is
/// heuristic. With a signature vector as the key it never splits a class.
template <typename Hasher = TruthTableHash, typename KeyOf>
[[nodiscard]] ClassificationResult classify_by_key(std::span<const TruthTable> funcs, KeyOf&& key_of)
{
  using Key = std::decay_t<std::invoke_result_t<KeyOf&, const TruthTable&>>;
  ClassificationResult result;
  result.class_of.reserve(funcs.size());
  std::unordered_map<Key, std::uint32_t, Hasher> classes;
  classes.reserve(funcs.size());
  for (const auto& f : funcs) {
    const auto it = classes.emplace(key_of(f), static_cast<std::uint32_t>(classes.size())).first;
    result.class_of.push_back(it->second);
  }
  result.num_classes = classes.size();
  return result;
}

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

/// Runs the sequential classifier of `kind` on `funcs`. `signature` is the
/// MSV configuration of the fp kinds and the bucket signature of kExact; the
/// canonical-form kinds ignore it.
[[nodiscard]] ClassificationResult classify(std::span<const TruthTable> funcs, ClassifierKind kind,
                                            const SignatureConfig& signature = SignatureConfig::all());

}  // namespace facet
