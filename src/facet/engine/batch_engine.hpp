/// \file batch_engine.hpp
/// \brief Multi-threaded batch NPN classification over every classifier in
///        the library.
///
/// The engine wraps each sequential classifier (exact, exhaustive/Kitty,
/// fp, fp-hashed, semi-canonical, hierarchical, co-designed) behind one API
/// and parallelizes classification in three phases:
///
///  1. shard: partition the input by a cheap NPN-invariant key (shard.hpp)
///     chosen so that no class of the wrapped classifier can straddle two
///     shards;
///  2. classify: run the shards concurrently on a worker pool
///     (work_queue.hpp), with a per-shard memo cache of canonical forms /
///     signature vectors so repeated functions — ubiquitous in
///     cut-enumeration workloads — never pay canonicalization twice, within
///     a call or across calls. The exhaustive kind also memoizes semiclass
///     image -> canonical form (semiclass.hpp), so an NPN image of a seen
///     class whose one-pass image was seen before skips the canonicalizer;
///  3. merge: renumber shard-local class ids into dense global ids by first
///     occurrence in input order.
///
/// Because every wrapped classifier assigns dense ids by first occurrence
/// and its classes are per-function-key partitions, the merged result is
/// bit-identical to the sequential classifier's output — same num_classes,
/// same class_of vector — for any thread or shard count. The batch-engine
/// tests assert this exactly.

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "facet/npn/classifier.hpp"
#include "facet/npn/codesign.hpp"
#include "facet/obs/histogram.hpp"
#include "facet/sig/msv.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

class WorkerPool;
struct BatchShardState;

/// The sequential classifier a BatchEngine wraps.
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
  std::size_t num_threads = 0;
  /// Shards to partition into; 0 = 8 per thread (skew headroom).
  std::size_t num_shards = 0;
  /// Signature configuration for the fp kinds and exact bucketing.
  SignatureConfig signature = SignatureConfig::all();
  /// Options forwarded to the co-designed canonical form (kCodesign).
  CodesignOptions codesign{};
  /// Refinement budget forwarded to classify_hierarchical.
  std::size_t hierarchical_refine_budget = 64;
};

/// Telemetry of one classify() call.
struct BatchEngineStats {
  std::size_t threads = 0;         ///< workers used (incl. calling thread)
  std::size_t shards_used = 0;     ///< shards with at least one function
  std::size_t max_shard_size = 0;  ///< largest shard (skew indicator)
  std::size_t cache_hits = 0;      ///< canonicalizations skipped (dups + memo)
  std::size_t cache_misses = 0;    ///< canonicalizations actually performed
};

/// Reusable parallel batch classifier. Thread-safe for sequential reuse
/// (one classify() at a time); the per-shard caches make repeated calls on
/// overlapping function sets cheaper than the first.
class BatchEngine {
 public:
  explicit BatchEngine(ClassifierKind kind, BatchEngineOptions options = {});
  ~BatchEngine();

  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  [[nodiscard]] ClassifierKind kind() const noexcept { return kind_; }
  [[nodiscard]] const BatchEngineOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t num_threads() const noexcept;
  [[nodiscard]] std::size_t num_shards() const noexcept { return num_shards_; }

  /// Classifies `funcs`; the result is bit-identical to the wrapped
  /// sequential classifier's output on the same span.
  [[nodiscard]] ClassificationResult classify(std::span<const TruthTable> funcs,
                                              BatchEngineStats* stats = nullptr);

  /// Drops all per-shard memo caches.
  void clear_cache();

 private:
  ClassifierKind kind_;
  BatchEngineOptions options_;
  std::size_t num_shards_;
  std::unique_ptr<WorkerPool> pool_;
  std::vector<std::unique_ptr<BatchShardState>> shards_;
  /// `facet_batch_shard_classify_latency{classifier=...}` — per-shard
  /// classify timing, resolved once at construction (obs/registry.hpp).
  obs::LatencyHistogram* shard_latency_ = nullptr;
};

/// One-shot convenience wrapper around a temporary BatchEngine.
[[nodiscard]] ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                                  const BatchEngineOptions& options = {},
                                                  BatchEngineStats* stats = nullptr);

}  // namespace facet
