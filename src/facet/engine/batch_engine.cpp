#include "facet/engine/batch_engine.hpp"

#include <unordered_map>
#include <vector>

#include "facet/engine/shard.hpp"
#include "facet/engine/work_queue.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"

namespace facet {

namespace {

/// Shards per worker thread: skew headroom for the pool's dynamic claiming.
constexpr std::size_t kShardsPerThread = 8;

/// Shard-local classification: the classifier's result over the shard's
/// distinct functions, and which of them each member is.
struct LocalResult {
  ClassificationResult classes;          // one class id per distinct function
  std::vector<std::uint32_t> unique_of;  // per member, parallel to ShardPlan::members[s]
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
  WorkerPool pool{options.num_threads};
  // `facet_batch_shard_classify_latency{classifier=...}` — per-shard
  // classify timing (obs/registry.hpp).
  obs::LatencyHistogram& shard_latency = obs::MetricRegistry::global().histogram(
      "facet_batch_shard_classify_latency", obs::label("classifier", classifier_kind_name(kind)));

  // The fp kinds class on MSV equality, so the shard key must be a function
  // of the full MSV; every other kind classes on keys that imply NPN
  // equivalence, for which the cheap invariant prefix is safe. See shard.hpp.
  const ShardKeyKind key_kind = (kind == ClassifierKind::kFp || kind == ClassifierKind::kFpHashed)
                                    ? ShardKeyKind::kFullMsv
                                    : ShardKeyKind::kInvariantPrefix;
  const ShardPlan plan =
      make_shard_plan(funcs, kShardsPerThread * pool.num_threads(), key_kind, options.signature, pool);

  std::vector<LocalResult> locals(plan.num_shards);
  pool.run_indexed(plan.num_shards, [&](std::size_t s) {
    if (!plan.members[s].empty()) {
      const std::uint64_t t0 = obs::now_ticks();
      locals[s] = classify_shard(kind, options.signature, funcs, plan.members[s]);
      shard_latency.record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
    }
  });

  // Merge: renumber (shard, local id) pairs into dense global ids by first
  // occurrence in input order — exactly the order every sequential
  // classifier assigns, so the merged result matches it bit for bit.
  constexpr std::uint32_t kUnassigned = 0xffffffffU;
  ClassificationResult result;
  result.class_of.resize(funcs.size());
  std::vector<std::vector<std::uint32_t>> remap(plan.num_shards);
  for (std::size_t s = 0; s < plan.num_shards; ++s) {
    remap[s].assign(locals[s].classes.num_classes, kUnassigned);
  }
  std::vector<std::size_t> cursor(plan.num_shards, 0);
  std::uint32_t next_global = 0;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto s = plan.shard_of[i];
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
    stats->threads = pool.num_threads();
    stats->max_shard_size = plan.max_shard_size();
    for (std::size_t s = 0; s < plan.num_shards; ++s) {
      stats->shards_used += plan.members[s].empty() ? 0 : 1;
      stats->cache_misses += locals[s].classes.class_of.size();
      stats->cache_hits += locals[s].unique_of.size() - locals[s].classes.class_of.size();
    }
  }
  return result;
}

}  // namespace facet
