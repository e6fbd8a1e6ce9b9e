#include "facet/engine/batch_engine.hpp"

#include "facet/util/parallel.hpp"

namespace facet {

ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                    const BatchEngineOptions& options, BatchEngineStats* stats)
{
  const std::size_t threads = resolve_num_threads(options.num_threads);
  std::size_t num_distinct = 0;
  ClassificationResult result = classify_distinct(
      funcs,
      [&](std::span<const TruthTable> uniques) { return classify(uniques, kind, options.signature, threads); },
      &num_distinct);
  if (stats != nullptr) {
    *stats = {.threads = threads, .cache_hits = funcs.size() - num_distinct, .cache_misses = num_distinct};
  }
  return result;
}

}  // namespace facet
