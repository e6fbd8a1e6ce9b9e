/// \file batch_engine.hpp
/// \brief Multi-threaded batch NPN classification over every classifier in
///        the library.
///
/// classify_batch drops the repeated inputs, so the repeats ubiquitous in
/// cut-enumeration workloads never pay a key twice, and hands the distinct
/// functions to classify(uniques, kind, signature, threads): the sequential
/// classifier, with its per-function keys computed on threads and grouped in
/// input order (classifier.hpp). classify_exhaustive and
/// classify_hierarchical group by a cheap image first and search once per
/// image; classify_exact matches each MSV bucket on one thread.
///
/// The result is therefore bit-identical to the sequential classifier's
/// output — same num_classes, same class_of vector — for any thread count.
/// The batch-engine tests assert this exactly.

#pragma once

#include <cstddef>
#include <span>

#include "facet/npn/classifier.hpp"
#include "facet/sig/msv.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

struct BatchEngineOptions {
  /// Worker threads (including the calling thread); 0 = hardware concurrency,
  /// above kMaxThreads classify_batch throws std::invalid_argument.
  std::size_t num_threads = 0;
  /// Signature configuration for the fp kinds and exact bucketing.
  SignatureConfig signature = SignatureConfig::all();
};

/// Telemetry of one classify_batch call; cache_hits + cache_misses equals
/// the number of input functions.
struct BatchEngineStats {
  std::size_t threads = 0;  ///< workers used (incl. calling thread)
  /// Repeats of an earlier input: dropped before the classifier runs.
  std::size_t cache_hits = 0;
  /// Distinct functions handed to the classifier. The image stage is not
  /// counted here: a kExhaustive input whose semiclass image was seen before
  /// shows up as a missing facet_canonicalize_latency{path="bb"} event.
  std::size_t cache_misses = 0;
};

/// Classifies `funcs` on worker threads; the result is bit-identical to
/// classify(funcs, kind, options.signature).
[[nodiscard]] ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                                  const BatchEngineOptions& options = {},
                                                  BatchEngineStats* stats = nullptr);

}  // namespace facet
