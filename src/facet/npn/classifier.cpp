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

ClassificationResult classify(std::span<const TruthTable> funcs, ClassifierKind kind,
                              const SignatureConfig& signature)
{
  switch (kind) {
    case ClassifierKind::kExact:
      return classify_exact(funcs, signature);
    case ClassifierKind::kExhaustive:
      return classify_exhaustive(funcs);
    case ClassifierKind::kFp:
      return classify_fp(funcs, signature);
    case ClassifierKind::kFpHashed:
      return classify_fp_hashed(funcs, signature);
    case ClassifierKind::kSemiCanonical:
      return classify_semi_canonical(funcs);
    case ClassifierKind::kHierarchical:
      return classify_hierarchical(funcs);
    case ClassifierKind::kCodesign:
      return classify_codesign(funcs);
  }
  throw std::logic_error{"unknown ClassifierKind"};
}

}  // namespace facet
