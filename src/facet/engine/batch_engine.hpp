/// \file batch_engine.hpp
/// \brief Multi-threaded batch NPN classification over every classifier in
///        the library.
///
/// classify_batch runs the sequential classifier of a ClassifierKind
/// (classifier.hpp) on worker threads, in three phases:
///
///  1. shard: partition the input by a cheap NPN-invariant key, chosen so
///     that no class of the classifier can straddle two shards;
///  2. classify: parallel_for (util/parallel.hpp) hands shards to threads;
///     each shard drops its repeated functions, so the repeats ubiquitous
///     in cut-enumeration workloads never pay canonicalization twice, and
///     hands its distinct functions to classify(), the same call the
///     sequential path makes. Any memo lives in the classifier it serves
///     (the semiclass memo of classify_exhaustive, the refine memo of
///     classify_hierarchical);
///  3. merge: renumber shard-local class ids into dense global ids by first
///     occurrence in input order.
///
/// Every classifier assigns dense ids by first occurrence, and its classes
/// are the partition of its input by a per-function key, so the merged
/// result is bit-identical to the sequential classifier's output — same
/// num_classes, same class_of vector — for any thread count. The
/// batch-engine tests assert this exactly.

#pragma once

#include <cstddef>
#include <span>

#include "facet/npn/classifier.hpp"
#include "facet/sig/msv.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

struct BatchEngineOptions {
  /// Worker threads (including the calling thread); 0 = hardware concurrency,
  /// above kMaxThreads classify_batch throws std::invalid_argument. The input
  /// is split into 8 shards per thread (skew headroom).
  std::size_t num_threads = 0;
  /// Signature configuration for the fp kinds and exact bucketing.
  SignatureConfig signature = SignatureConfig::all();
};

/// Telemetry of one classify_batch call; cache_hits + cache_misses equals
/// the number of input functions.
struct BatchEngineStats {
  std::size_t threads = 0;         ///< workers used (incl. calling thread)
  std::size_t shards_used = 0;     ///< shards with at least one function
  std::size_t max_shard_size = 0;  ///< largest shard (skew indicator)
  /// Repeats of an earlier input: dropped before the classifier runs.
  std::size_t cache_hits = 0;
  /// Distinct functions handed to the classifier. Memo hits inside the
  /// classifier are not counted here: a kExhaustive semiclass-memo hit shows
  /// up as a missing facet_canonicalize_latency{path="bb"} event.
  std::size_t cache_misses = 0;
};

/// Classifies `funcs` on worker threads; the result is bit-identical to
/// classify(funcs, kind, options.signature).
[[nodiscard]] ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                                  const BatchEngineOptions& options = {},
                                                  BatchEngineStats* stats = nullptr);

}  // namespace facet
