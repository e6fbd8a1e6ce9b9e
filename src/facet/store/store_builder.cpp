#include "facet/store/store_builder.hpp"

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "facet/npn/exact_classifier.hpp"
#include "facet/util/parallel.hpp"

namespace facet {

ClassStore build_class_store(std::span<const TruthTable> funcs, const StoreBuildOptions& options)
{
  if (funcs.empty()) {
    throw std::invalid_argument{"build_class_store: empty dataset"};
  }
  const int num_vars = funcs[0].num_vars();
  if (num_vars > 8) {
    throw std::invalid_argument{
        "build_class_store: exact canonicalization is limited to n <= 8"};
  }
  for (const auto& f : funcs) {
    if (f.num_vars() != num_vars) {
      throw std::invalid_argument{"build_class_store: mixed function widths in dataset"};
    }
  }

  const std::size_t threads = resolve_num_threads(options.num_threads);
  ExhaustiveClassification exhaustive;
  std::size_t num_distinct = 0;
  const ClassificationResult result = classify_distinct(
      funcs,
      [&](std::span<const TruthTable> uniques) {
        exhaustive = classify_exhaustive_with_transforms(uniques, threads);
        return exhaustive.classes;
      },
      &num_distinct);
  if (options.stats != nullptr) {
    *options.stats = {.threads = threads, .cache_hits = funcs.size() - num_distinct, .cache_misses = num_distinct};
  }

  // The first dataset member of a class is the first distinct one, whose
  // canonical form and witness the image stage kept.
  const std::vector<std::uint32_t> first = result.first_members();
  const std::vector<std::uint32_t> sizes = result.class_sizes();
  std::vector<StoreRecord> records;
  records.reserve(result.num_classes);
  for (std::uint32_t c = 0; c < result.num_classes; ++c) {
    CanonResult& canon = exhaustive.canon[c];
    records.push_back(StoreRecord{std::move(canon.canonical), funcs[first[c]], canon.transform, c, sizes[c]});
  }

  return ClassStore{num_vars, std::move(records), result.num_classes, options.store};
}

}  // namespace facet
