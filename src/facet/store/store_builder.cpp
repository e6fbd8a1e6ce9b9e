#include "facet/store/store_builder.hpp"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "facet/npn/exact_canon.hpp"
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

  BatchEngineOptions engine_options;
  engine_options.num_threads = options.num_threads;
  const ClassificationResult result =
      classify_batch(funcs, ClassifierKind::kExhaustive, engine_options, options.stats);

  // First dataset member of every class, in class-id order (ids are dense by
  // first occurrence, so the first member of class c precedes every other).
  constexpr std::uint32_t kUnseen = 0xffffffffU;
  std::vector<std::uint32_t> rep_index(result.num_classes, kUnseen);
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    auto& slot = rep_index[result.class_of[i]];
    if (slot == kUnseen) {
      slot = static_cast<std::uint32_t>(i);
    }
  }
  const std::vector<std::uint32_t> sizes = result.class_sizes();

  // One canonicalization-with-transform per class, fanned out over threads.
  std::vector<StoreRecord> records(result.num_classes);
  parallel_for(result.num_classes, options.num_threads, [&](std::size_t c) {
    const TruthTable& rep = funcs[rep_index[c]];
    const CanonResult canon = exact_npn_canonical_with_transform(rep);
    records[c] = StoreRecord{canon.canonical, rep, canon.transform,
                             static_cast<std::uint32_t>(c), sizes[c]};
  });

  return ClassStore{num_vars, std::move(records), result.num_classes, options.store};
}

}  // namespace facet
