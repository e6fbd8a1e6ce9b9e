/// \file store_builder.hpp
/// \brief Builds a ClassStore from a dataset on the batch engine's threads.
///
/// Classification is classify_batch(kExhaustive)'s, through
/// classify_exhaustive_with_transforms: one branch-and-bound per semiclass
/// image, whose canonical form and witness for each class's first member
/// become the store record. The resulting store answers lookups with the
/// exact class ids, sizes and partition the engine would produce on the
/// build dataset.

#pragma once

#include <span>

#include "facet/engine/batch_engine.hpp"
#include "facet/store/class_store.hpp"

namespace facet {

struct StoreBuildOptions {
  /// Worker threads for classification and canonicalization (0 = all cores;
  /// above kMaxThreads build_class_store throws std::invalid_argument).
  std::size_t num_threads = 0;
  /// Options of the produced store (hot-cache sizing).
  ClassStoreOptions store{};
  /// Optional telemetry of the classification, as classify_batch reports it.
  BatchEngineStats* stats = nullptr;
};

/// Classifies `funcs` and assembles the store. All functions must share one
/// width n <= 8 (the exact canonical walk's limit); throws
/// std::invalid_argument otherwise or when `funcs` is empty.
[[nodiscard]] ClassStore build_class_store(std::span<const TruthTable> funcs,
                                           const StoreBuildOptions& options = {});

}  // namespace facet
