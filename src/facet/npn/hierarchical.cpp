#include "facet/npn/hierarchical.hpp"

#include <cstdint>
#include <vector>

#include "facet/npn/codesign.hpp"
#include "facet/npn/semi_canonical.hpp"

namespace facet {

ClassificationResult classify_hierarchical(std::span<const TruthTable> funcs, std::size_t num_threads)
{
  CodesignOptions refine_options;
  refine_options.budget = kHierarchicalRefineBudget;
  // Level 1: the semi-canonical image. It is an NPN-equivalent member of the
  // class, so it doubles as the group representative that level 2 refines,
  // once per distinct image; the refined image is the class key.
  const std::vector<TruthTable> images = parallel_keys(
      funcs.size(), [&](std::size_t i) { return semi_canonical(funcs[i]); }, num_threads);
  const ClassificationResult groups = group_keys(images);
  const std::vector<std::uint32_t> first = groups.first_members();
  const std::vector<TruthTable> refined = parallel_keys(
      first.size(), [&](std::size_t g) { return codesign_canonical(images[first[g]], refine_options); },
      num_threads);
  return merge_groups(groups, group_keys(refined));
}

}  // namespace facet
