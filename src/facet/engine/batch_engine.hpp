/// \file batch_engine.hpp
/// \brief Multi-threaded batch NPN classification over every classifier in
///        the library.
///
/// classify_batch wraps each sequential classifier (exact, exhaustive/Kitty,
/// fp, fp-hashed, semi-canonical, hierarchical, co-designed) behind one call
/// and parallelizes classification in three phases:
///
///  1. shard: partition the input by a cheap NPN-invariant key (shard.hpp)
///     chosen so that no class of the wrapped classifier can straddle two
///     shards;
///  2. classify: run the shards concurrently on a worker pool
///     (work_queue.hpp). Each shard classifies its distinct functions once,
///     so repeated functions — ubiquitous in cut-enumeration workloads —
///     never pay canonicalization twice. Three kinds keep a shard-local memo
///     for the call: kExhaustive maps semiclass image -> canonical form
///     (semiclass.hpp), so an NPN image of a seen class whose one-pass image
///     was seen before skips the canonicalizer; kHierarchical maps
///     semi-canonical image -> refined image; kExact keeps classify_exact's
///     signature buckets of class representatives;
///  3. merge: renumber shard-local class ids into dense global ids by first
///     occurrence in input order.
///
/// Because every wrapped classifier assigns dense ids by first occurrence
/// and its classes are per-function-key partitions, the merged result is
/// bit-identical to the sequential classifier's output — same num_classes,
/// same class_of vector — for any thread count. The batch-engine tests
/// assert this exactly.

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "facet/npn/classifier.hpp"
#include "facet/sig/msv.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// The sequential classifier classify_batch runs.
enum class ClassifierKind {
  kExact,          ///< classify_exact: signature buckets + complete matcher
  kExhaustive,     ///< classify_exhaustive: Kitty-style canonical walk (n <= 8)
  kFp,             ///< classify_fp: full-MSV equality (Algorithm 1)
  kFpHashed,       ///< classify_fp_hashed: 128-bit MSV hash keys
  kSemiCanonical,  ///< classify_semi_canonical: Huang FPT'13 analog
  kHierarchical,   ///< classify_hierarchical: Petkovska FPL'16 analog
  kCodesign,       ///< classify_codesign: Zhou TC'20 analog
};

/// Stable CLI-facing name ("exact", "kitty", "fp", "fp-hashed", "semi",
/// "hier", "codesign").
[[nodiscard]] std::string classifier_kind_name(ClassifierKind kind);

/// Inverse of classifier_kind_name; nullopt for unknown names.
[[nodiscard]] std::optional<ClassifierKind> classifier_kind_from_name(std::string_view name);

struct BatchEngineOptions {
  /// Worker threads (including the calling thread); 0 = hardware concurrency.
  /// The input is split into 8 shards per thread (skew headroom).
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
  /// Functions that skipped the canonicalizer: repeats of an earlier input,
  /// plus kExhaustive semiclass-memo and kHierarchical refine-memo hits.
  std::size_t cache_hits = 0;
  /// Canonicalizations actually performed (kExact: matcher bucket scans).
  std::size_t cache_misses = 0;
};

/// Classifies `funcs` on a worker pool; the result is bit-identical to the
/// sequential classifier of `kind` on the same span. Every memo lives for
/// this one call.
[[nodiscard]] ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                                  const BatchEngineOptions& options = {},
                                                  BatchEngineStats* stats = nullptr);

}  // namespace facet
