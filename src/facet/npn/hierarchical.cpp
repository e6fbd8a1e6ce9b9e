#include "facet/npn/hierarchical.hpp"

#include <unordered_map>

#include "facet/npn/codesign.hpp"
#include "facet/npn/semi_canonical.hpp"

namespace facet {

ClassificationResult classify_hierarchical(std::span<const TruthTable> funcs)
{
  CodesignOptions refine_options;
  refine_options.budget = kHierarchicalRefineBudget;
  // Level 1: the semi-canonical image. It is an NPN-equivalent member of the
  // class, so it doubles as the group representative that level 2 refines,
  // once per distinct image; the refined image is the class key.
  std::unordered_map<TruthTable, TruthTable, TruthTableHash> refined_of_semi;
  return classify_by_key(funcs, [&](const TruthTable& f) {
    auto [it, inserted] = refined_of_semi.try_emplace(semi_canonical(f));
    if (inserted) {
      it->second = codesign_canonical(it->first, refine_options);
    }
    return it->second;
  });
}

}  // namespace facet
