#include "facet/engine/batch_engine.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/util/hash.hpp"
#include "facet/util/parallel.hpp"

namespace facet {

namespace {

/// Shards per worker thread: skew headroom for parallel_for's dynamic
/// claiming.
constexpr std::size_t kShardsPerThread = 8;

/// Shard-local classification: the classifier's result over the shard's
/// distinct functions, and which of them each member is.
struct LocalResult {
  ClassificationResult classes;          // one class id per distinct function
  std::vector<std::uint32_t> unique_of;  // per member, parallel to members[s]
};

LocalResult classify_shard(ClassifierKind kind, const SignatureConfig& signature,
                           std::span<const TruthTable> funcs, const std::vector<std::uint32_t>& members)
{
  // Identical tables always share a class, so each distinct table is
  // classified once; the repeats are the engine's cache hits.
  LocalResult local;
  local.unique_of.reserve(members.size());
  std::vector<TruthTable> uniques;
  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> seen;
  seen.reserve(members.size());
  for (const auto i : members) {
    const auto [it, inserted] = seen.emplace(funcs[i], static_cast<std::uint32_t>(uniques.size()));
    if (inserted) {
      uniques.push_back(funcs[i]);
    }
    local.unique_of.push_back(it->second);
  }
  local.classes = classify(uniques, kind, signature);
  return local;
}

}  // namespace

ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                    const BatchEngineOptions& options, BatchEngineStats* stats)
{
  const std::size_t threads = resolve_num_threads(options.num_threads);
  const std::size_t num_shards = kShardsPerThread * threads;
  // `facet_batch_shard_classify_latency{classifier=...}` — per-shard
  // classify timing (obs/registry.hpp).
  obs::LatencyHistogram& shard_latency = obs::MetricRegistry::global().histogram(
      "facet_batch_shard_classify_latency", obs::label("classifier", classifier_kind_name(kind)));

  // Phase 1, shard: the shard key is constant on every class the classifier
  // can produce, so classifying shards independently and merging is exactly
  // equivalent to one sequential run.
  //  * The fp kinds class on MSV equality, so their key hashes the full
  //    configured MSV: equal MSVs hash equally. The cheaper prefix below is
  //    not safe for them, because the polarity chosen when minimizing a
  //    balanced function's full MSV can differ from the one minimizing the
  //    prefix alone.
  //  * Every other kind classes on keys that are true transform images, so
  //    they imply NPN equivalence, and the OCV1+OIV sub-MSV is an NPN
  //    invariant (Theorems 1 and 2): no class can straddle two shards.
  // Cheap-signature bucketing before expensive canonicalization is the same
  // lever arXiv:2308.12311 pulls for exact classification; here it doubles
  // as the parallel decomposition. Keys are chunked: one costs far less
  // than claiming an index.
  const SignatureConfig key_config = (kind == ClassifierKind::kFp || kind == ClassifierKind::kFpHashed)
                                         ? options.signature
                                         : SignatureConfig{.use_ocv1 = true, .use_oiv = true};
  std::vector<std::uint32_t> shard_of(funcs.size());
  const std::size_t chunk = std::max<std::size_t>(64, funcs.size() / (threads * 8));
  parallel_for((funcs.size() + chunk - 1) / chunk, threads, [&](std::size_t c) {
    const std::size_t end = std::min((c + 1) * chunk, funcs.size());
    for (std::size_t i = c * chunk; i < end; ++i) {
      const std::uint64_t key = hash_combine64(static_cast<std::uint64_t>(funcs[i].num_vars()),
                                               msv_hash(funcs[i], key_config));
      shard_of[i] = static_cast<std::uint32_t>(key % num_shards);
    }
  });
  // Bucketing stays sequential so member lists ascend in input order (the
  // merge depends on it).
  std::vector<std::vector<std::uint32_t>> members(num_shards);
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    members[shard_of[i]].push_back(static_cast<std::uint32_t>(i));
  }

  // Phase 2, classify.
  std::vector<LocalResult> locals(num_shards);
  parallel_for(num_shards, threads, [&](std::size_t s) {
    if (!members[s].empty()) {
      const std::uint64_t t0 = obs::now_ticks();
      locals[s] = classify_shard(kind, options.signature, funcs, members[s]);
      shard_latency.record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
    }
  });

  // Phase 3, merge: renumber (shard, local id) pairs into dense global ids
  // by first occurrence in input order — exactly the order every sequential
  // classifier assigns, so the merged result matches it bit for bit.
  constexpr std::uint32_t kUnassigned = 0xffffffffU;
  ClassificationResult result;
  result.class_of.resize(funcs.size());
  std::vector<std::vector<std::uint32_t>> remap(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    remap[s].assign(locals[s].classes.num_classes, kUnassigned);
  }
  std::vector<std::size_t> cursor(num_shards, 0);
  std::uint32_t next_global = 0;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto s = shard_of[i];
    const auto local_id = locals[s].classes.class_of[locals[s].unique_of[cursor[s]++]];
    auto& global_id = remap[s][local_id];
    if (global_id == kUnassigned) {
      global_id = next_global++;
    }
    result.class_of[i] = global_id;
  }
  result.num_classes = next_global;

  if (stats != nullptr) {
    *stats = {};
    stats->threads = threads;
    for (std::size_t s = 0; s < num_shards; ++s) {
      stats->shards_used += members[s].empty() ? 0 : 1;
      stats->max_shard_size = std::max(stats->max_shard_size, members[s].size());
      stats->cache_misses += locals[s].classes.class_of.size();
      stats->cache_hits += locals[s].unique_of.size() - locals[s].classes.class_of.size();
    }
  }
  return result;
}

}  // namespace facet
