#include "facet/engine/batch_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "facet/engine/shard.hpp"
#include "facet/engine/work_queue.hpp"
#include "facet/npn/exact_canon.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/util/hash.hpp"

namespace facet {

/// Per-shard persistent state: memo caches that survive across classify()
/// calls. Each shard is processed by exactly one worker per call, and a
/// function always hashes to the same shard, so no locking is needed.
struct BatchShardState {
  /// Image-based kinds: input table -> canonical image. For kHierarchical
  /// this holds the level-1 (semi-canonical) image.
  std::unordered_map<TruthTable, TruthTable, TruthTableHash> image_cache;
  /// kHierarchical level 2: semi-canonical image -> refined image.
  std::unordered_map<TruthTable, TruthTable, TruthTableHash> refine_cache;
  /// fp kinds: input table -> full configured MSV.
  std::unordered_map<TruthTable, std::vector<std::uint32_t>, TruthTableHash> msv_cache;
  /// kExact: input table -> class representative (first member of its NPN
  /// class ever seen in this shard).
  std::unordered_map<TruthTable, TruthTable, TruthTableHash> rep_cache;
  /// kExact: MSV bucket -> representatives, mirrors classify_exact's buckets.
  std::unordered_map<std::vector<std::uint32_t>, std::vector<TruthTable>, U32VectorHash> exact_buckets;

  /// kExhaustive: semiclass image (semiclass_form, semiclass.hpp) ->
  /// canonical form. The image is a member of the input's NPN orbit, so
  /// every function mapping onto a seen image shares its canonical form and
  /// skips the exact canonicalizer. The image_cache above only helps
  /// bit-identical repeats; this memo catches equivalent ones.
  std::unordered_map<TruthTable, TruthTable, TruthTableHash> semiclass_memo;

  void clear()
  {
    image_cache.clear();
    refine_cache.clear();
    msv_cache.clear();
    rep_cache.clear();
    exact_buckets.clear();
    semiclass_memo.clear();
  }
};

namespace {

/// Shard-local classification output, parallel to ShardPlan::members[s].
struct LocalResult {
  std::vector<std::uint32_t> class_of;
  std::uint32_t num_classes = 0;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
};

struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  friend bool operator==(const Hash128&, const Hash128&) = default;
};

struct Hash128Hasher {
  [[nodiscard]] std::size_t operator()(const Hash128& h) const noexcept
  {
    return static_cast<std::size_t>(h.lo);
  }
};

/// Dedup of a shard's functions: uniques in first-occurrence order plus the
/// unique index of every member. Identical tables are always classified
/// together by every classifier, so this is the universal intra-call memo.
struct Dedup {
  std::vector<TruthTable> uniques;
  std::vector<std::uint32_t> unique_of;  // per member
};

Dedup dedup_members(std::span<const TruthTable> funcs, const std::vector<std::uint32_t>& members)
{
  Dedup d;
  d.unique_of.reserve(members.size());
  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> seen;
  seen.reserve(members.size());
  for (const auto i : members) {
    const auto [it, inserted] = seen.emplace(funcs[i], static_cast<std::uint32_t>(d.uniques.size()));
    if (inserted) {
      d.uniques.push_back(funcs[i]);
    }
    d.unique_of.push_back(it->second);
  }
  return d;
}

/// Groups per-unique keys into dense local class ids (first-occurrence
/// order) and expands them back onto the shard's members.
template <typename Key, typename Hasher>
LocalResult group_by_key(const Dedup& d, std::vector<Key> key_of_unique, std::size_t hits,
                         std::size_t misses)
{
  LocalResult local;
  local.cache_hits = hits;
  local.cache_misses = misses;
  std::unordered_map<Key, std::uint32_t, Hasher> classes;
  classes.reserve(key_of_unique.size());
  std::vector<std::uint32_t> class_of_unique;
  class_of_unique.reserve(key_of_unique.size());
  for (auto& key : key_of_unique) {
    const auto [it, inserted] =
        classes.emplace(std::move(key), static_cast<std::uint32_t>(classes.size()));
    class_of_unique.push_back(it->second);
  }
  local.num_classes = static_cast<std::uint32_t>(classes.size());
  local.class_of.reserve(d.unique_of.size());
  for (const auto u : d.unique_of) {
    local.class_of.push_back(class_of_unique[u]);
  }
  return local;
}

/// Exact canonical form of `tt` through the shard's semiclass memo: a seen
/// semiclass image answers directly (it lies in tt's orbit, so its
/// canonical form is tt's), else pay the exact canonicalizer once and
/// memoize the image.
TruthTable canonical_via_semiclass(BatchShardState& state, const TruthTable& tt)
{
  if (tt.num_vars() <= kNpn4MaxVars) {
    // The exact canonicalizer is a single NPN4 norm-table load at these
    // widths — cheaper than deriving the image, so the memo would only add
    // overhead for what the table already answers in O(1).
    return exact_npn_canonical(tt);
  }
  SemiclassResult sc = semiclass_form(tt);
  if (const auto it = state.semiclass_memo.find(sc.image); it != state.semiclass_memo.end()) {
    return it->second;
  }
  TruthTable canon = exact_npn_canonical(tt);
  state.semiclass_memo.emplace(std::move(sc.image), canon);
  return canon;
}

/// Looks up `tt` in `cache` or computes-and-stores via `compute`, counting
/// hits and misses.
template <typename Value, typename Compute>
const Value& memoized(std::unordered_map<TruthTable, Value, TruthTableHash>& cache,
                      const TruthTable& tt, std::size_t& hits, std::size_t& misses,
                      const Compute& compute)
{
  if (const auto it = cache.find(tt); it != cache.end()) {
    ++hits;
    return it->second;
  }
  ++misses;
  return cache.emplace(tt, compute(tt)).first->second;
}

LocalResult classify_shard(ClassifierKind kind, const BatchEngineOptions& options,
                           BatchShardState& state, std::span<const TruthTable> funcs,
                           const std::vector<std::uint32_t>& members)
{
  Dedup d = dedup_members(funcs, members);
  // Duplicate members never pay canonicalization — the first flavor of hit.
  std::size_t hits = members.size() - d.uniques.size();
  std::size_t misses = 0;

  switch (kind) {
    case ClassifierKind::kExact: {
      std::vector<TruthTable> rep_of_unique;
      rep_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        rep_of_unique.push_back(memoized(state.rep_cache, u, hits, misses, [&](const TruthTable& tt) {
          auto& reps = state.exact_buckets[build_msv(tt, options.signature)];
          for (const auto& rep : reps) {
            if (npn_equivalent(rep, tt)) {
              return rep;
            }
          }
          reps.push_back(tt);
          return tt;
        }));
      }
      return group_by_key<TruthTable, TruthTableHash>(d, std::move(rep_of_unique), hits, misses);
    }

    case ClassifierKind::kExhaustive:
    case ClassifierKind::kSemiCanonical:
    case ClassifierKind::kCodesign:
    case ClassifierKind::kHierarchical: {
      std::vector<TruthTable> image_of_unique;
      image_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        image_of_unique.push_back(memoized(state.image_cache, u, hits, misses, [&](const TruthTable& tt) {
          switch (kind) {
            case ClassifierKind::kExhaustive:
              return canonical_via_semiclass(state, tt);
            case ClassifierKind::kSemiCanonical:
              return semi_canonical(tt);
            case ClassifierKind::kCodesign:
              return codesign_canonical(tt, options.codesign);
            case ClassifierKind::kHierarchical: {
              // Same two-level composition as classify_hierarchical: refine
              // the semi-canonical representative with a budgeted co-designed
              // pass; the refined image is the class key.
              const TruthTable semi = semi_canonical(tt);
              CodesignOptions refine_options;
              refine_options.budget = options.hierarchical_refine_budget;
              std::size_t refine_hits = 0;
              std::size_t refine_misses = 0;
              return memoized(state.refine_cache, semi, refine_hits, refine_misses,
                              [&](const TruthTable& s) { return codesign_canonical(s, refine_options); });
            }
            default:
              throw std::logic_error{"unreachable image kind"};
          }
        }));
      }
      return group_by_key<TruthTable, TruthTableHash>(d, std::move(image_of_unique), hits, misses);
    }

    case ClassifierKind::kFp: {
      std::vector<std::vector<std::uint32_t>> msv_of_unique;
      msv_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        msv_of_unique.push_back(memoized(state.msv_cache, u, hits, misses, [&](const TruthTable& tt) {
          return build_msv(tt, options.signature);
        }));
      }
      return group_by_key<std::vector<std::uint32_t>, U32VectorHash>(d, std::move(msv_of_unique), hits,
                                                                     misses);
    }

    case ClassifierKind::kFpHashed: {
      std::vector<Hash128> key_of_unique;
      key_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        const auto& msv = memoized(state.msv_cache, u, hits, misses, [&](const TruthTable& tt) {
          return build_msv(tt, options.signature);
        });
        // Same two-seed 128-bit key as classify_fp_hashed.
        key_of_unique.push_back(Hash128{hash_u32_span(msv, 0xa0761d6478bd642fULL),
                                        hash_u32_span(msv, 0x589965cc75374cc3ULL)});
      }
      return group_by_key<Hash128, Hash128Hasher>(d, std::move(key_of_unique), hits, misses);
    }
  }
  throw std::logic_error{"unknown ClassifierKind"};
}

}  // namespace

std::string classifier_kind_name(ClassifierKind kind)
{
  switch (kind) {
    case ClassifierKind::kExact:
      return "exact";
    case ClassifierKind::kExhaustive:
      return "kitty";
    case ClassifierKind::kFp:
      return "fp";
    case ClassifierKind::kFpHashed:
      return "fp-hashed";
    case ClassifierKind::kSemiCanonical:
      return "semi";
    case ClassifierKind::kHierarchical:
      return "hier";
    case ClassifierKind::kCodesign:
      return "codesign";
  }
  return "unknown";
}

std::optional<ClassifierKind> classifier_kind_from_name(std::string_view name)
{
  if (name == "exact") {
    return ClassifierKind::kExact;
  }
  if (name == "kitty" || name == "exhaustive") {
    return ClassifierKind::kExhaustive;
  }
  if (name == "fp") {
    return ClassifierKind::kFp;
  }
  if (name == "fp-hashed") {
    return ClassifierKind::kFpHashed;
  }
  if (name == "semi") {
    return ClassifierKind::kSemiCanonical;
  }
  if (name == "hier") {
    return ClassifierKind::kHierarchical;
  }
  if (name == "codesign") {
    return ClassifierKind::kCodesign;
  }
  return std::nullopt;
}

BatchEngine::BatchEngine(ClassifierKind kind, BatchEngineOptions options)
    : kind_{kind}, options_{options}, pool_{std::make_unique<WorkerPool>(options.num_threads)}
{
  num_shards_ = options_.num_shards != 0 ? options_.num_shards : pool_->num_threads() * 8;
  num_shards_ = std::max<std::size_t>(1, num_shards_);
  shards_.reserve(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    shards_.push_back(std::make_unique<BatchShardState>());
  }
  shard_latency_ = &obs::MetricRegistry::global().histogram(
      "facet_batch_shard_classify_latency", obs::label("classifier", classifier_kind_name(kind)));
}

BatchEngine::~BatchEngine() = default;

std::size_t BatchEngine::num_threads() const noexcept
{
  return pool_->num_threads();
}

void BatchEngine::clear_cache()
{
  for (auto& shard : shards_) {
    shard->clear();
  }
}

ClassificationResult BatchEngine::classify(std::span<const TruthTable> funcs, BatchEngineStats* stats)
{
  // The fp kinds class on MSV equality, so the shard key must be a function
  // of the full MSV; every other kind classes on keys that imply NPN
  // equivalence, for which the cheap invariant prefix is safe. See shard.hpp.
  const ShardKeyKind key_kind = (kind_ == ClassifierKind::kFp || kind_ == ClassifierKind::kFpHashed)
                                    ? ShardKeyKind::kFullMsv
                                    : ShardKeyKind::kInvariantPrefix;
  const ShardPlan plan = make_shard_plan(funcs, num_shards_, key_kind, options_.signature, *pool_);

  std::vector<LocalResult> locals(plan.num_shards);
  pool_->run_indexed(plan.num_shards, [&](std::size_t s) {
    if (!plan.members[s].empty()) {
      const std::uint64_t t0 = obs::now_ticks();
      locals[s] = classify_shard(kind_, options_, *shards_[s], funcs, plan.members[s]);
      shard_latency_->record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
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
    remap[s].assign(locals[s].num_classes, kUnassigned);
  }
  std::vector<std::size_t> cursor(plan.num_shards, 0);
  std::uint32_t next_global = 0;
  for (std::size_t i = 0; i < funcs.size(); ++i) {
    const auto s = plan.shard_of[i];
    const auto local_id = locals[s].class_of[cursor[s]++];
    auto& global_id = remap[s][local_id];
    if (global_id == kUnassigned) {
      global_id = next_global++;
    }
    result.class_of[i] = global_id;
  }
  result.num_classes = next_global;

  if (stats != nullptr) {
    *stats = {};
    stats->threads = pool_->num_threads();
    stats->max_shard_size = plan.max_shard_size();
    for (std::size_t s = 0; s < plan.num_shards; ++s) {
      stats->shards_used += plan.members[s].empty() ? 0 : 1;
      stats->cache_hits += locals[s].cache_hits;
      stats->cache_misses += locals[s].cache_misses;
    }
  }
  return result;
}

ClassificationResult classify_batch(std::span<const TruthTable> funcs, ClassifierKind kind,
                                    const BatchEngineOptions& options, BatchEngineStats* stats)
{
  BatchEngine engine{kind, options};
  return engine.classify(funcs, stats);
}

}  // namespace facet
