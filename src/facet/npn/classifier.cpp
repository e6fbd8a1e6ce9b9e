#include "facet/npn/classifier.hpp"

#include <stdexcept>

#include "facet/npn/codesign.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/hierarchical.hpp"
#include "facet/npn/semi_canonical.hpp"

namespace facet {

std::string classifier_kind_name(ClassifierKind kind)
{
  switch (kind) {
    case ClassifierKind::kExact:
      return "exact";
    case ClassifierKind::kExhaustive:
      return "kitty";
    case ClassifierKind::kFp:
      return "fp";
    case ClassifierKind::kFpHashed:
      return "fp-hashed";
    case ClassifierKind::kSemiCanonical:
      return "semi";
    case ClassifierKind::kHierarchical:
      return "hier";
    case ClassifierKind::kCodesign:
      return "codesign";
  }
  return "unknown";
}

std::optional<ClassifierKind> classifier_kind_from_name(std::string_view name)
{
  if (name == "exact") {
    return ClassifierKind::kExact;
  }
  if (name == "kitty" || name == "exhaustive") {
    return ClassifierKind::kExhaustive;
  }
  if (name == "fp") {
    return ClassifierKind::kFp;
  }
  if (name == "fp-hashed") {
    return ClassifierKind::kFpHashed;
  }
  if (name == "semi") {
    return ClassifierKind::kSemiCanonical;
  }
  if (name == "hier") {
    return ClassifierKind::kHierarchical;
  }
  if (name == "codesign") {
    return ClassifierKind::kCodesign;
  }
  return std::nullopt;
}

ClassificationResult merge_groups(const ClassificationResult& groups, const ClassificationResult& group_classes)
{
  ClassificationResult result{group_classes.num_classes, groups.class_of};
  for (auto& c : result.class_of) {
    c = group_classes.class_of[c];
  }
  return result;
}

ClassificationResult classify_distinct(
    std::span<const TruthTable> funcs,
    const std::function<ClassificationResult(std::span<const TruthTable>)>& classify_uniques,
    std::size_t* num_distinct)
{
  const ClassificationResult copies = group_keys(funcs);
  if (num_distinct != nullptr) {
    *num_distinct = copies.num_classes;
  }
  if (copies.num_classes == funcs.size()) {
    return classify_uniques(funcs);  // nothing repeats: classify the input as is
  }
  std::vector<TruthTable> uniques;
  uniques.reserve(copies.num_classes);
  for (const auto i : copies.first_members()) {
    uniques.push_back(funcs[i]);
  }
  return merge_groups(copies, classify_uniques(uniques));
}

ClassificationResult classify(std::span<const TruthTable> funcs, ClassifierKind kind,
                              const SignatureConfig& signature, std::size_t num_threads)
{
  switch (kind) {
    case ClassifierKind::kExact:
      return classify_exact(funcs, signature, nullptr, num_threads);
    case ClassifierKind::kExhaustive:
      return classify_exhaustive(funcs, num_threads);
    case ClassifierKind::kFp:
      return classify_fp(funcs, signature, num_threads);
    case ClassifierKind::kFpHashed:
      return classify_fp_hashed(funcs, signature, num_threads);
    case ClassifierKind::kSemiCanonical:
      return classify_semi_canonical(funcs, num_threads);
    case ClassifierKind::kHierarchical:
      return classify_hierarchical(funcs, num_threads);
    case ClassifierKind::kCodesign:
      return classify_codesign(funcs, {}, num_threads);
  }
  throw std::logic_error{"unknown ClassifierKind"};
}

}  // namespace facet
