#include "facet/engine/batch_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "facet/engine/shard.hpp"
#include "facet/engine/work_queue.hpp"
#include "facet/npn/codesign.hpp"
#include "facet/npn/exact_canon.hpp"
#include "facet/npn/hierarchical.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/util/hash.hpp"

namespace facet {

namespace {

/// Shards per worker thread: skew headroom for the pool's dynamic claiming.
constexpr std::size_t kShardsPerThread = 8;

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
/// order) and expands them back onto the shard's members. Every member is
/// one hit or one miss: repeats and the `memo_hits` uniques skipped the
/// canonicalizer, every other unique paid it.
template <typename Key, typename Hasher>
LocalResult group_by_key(const Dedup& d, std::vector<Key> key_of_unique, std::size_t memo_hits)
{
  LocalResult local;
  local.cache_hits = d.unique_of.size() - d.uniques.size() + memo_hits;
  local.cache_misses = d.uniques.size() - memo_hits;
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

/// The memoized value of `key`, or compute(key) stored under it. A memo hit
/// skips the canonicalizer, so it counts in `hits`.
template <typename Compute>
TruthTable memoized(std::unordered_map<TruthTable, TruthTable, TruthTableHash>& memo, TruthTable key,
                    std::size_t& hits, const Compute& compute)
{
  if (const auto it = memo.find(key); it != memo.end()) {
    ++hits;
    return it->second;
  }
  TruthTable value = compute(key);
  memo.emplace(std::move(key), value);
  return value;
}

LocalResult classify_shard(ClassifierKind kind, const SignatureConfig& signature,
                           std::span<const TruthTable> funcs, const std::vector<std::uint32_t>& members)
{
  // Duplicate members never pay canonicalization — the first flavor of hit;
  // the kExhaustive and kHierarchical memos below count the second.
  const Dedup d = dedup_members(funcs, members);

  switch (kind) {
    case ClassifierKind::kExact: {
      // MSV bucket -> class representatives (first member of each class in
      // this shard), mirroring classify_exact's buckets.
      std::unordered_map<std::vector<std::uint32_t>, std::vector<TruthTable>, U32VectorHash> buckets;
      std::vector<TruthTable> rep_of_unique;
      rep_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        auto& reps = buckets[build_msv(u, signature)];
        const auto rep = std::find_if(reps.begin(), reps.end(),
                                      [&](const TruthTable& r) { return npn_equivalent(r, u); });
        if (rep == reps.end()) {
          reps.push_back(u);
          rep_of_unique.push_back(u);
        } else {
          rep_of_unique.push_back(*rep);
        }
      }
      return group_by_key<TruthTable, TruthTableHash>(d, std::move(rep_of_unique), 0);
    }

    case ClassifierKind::kExhaustive: {
      // Semiclass image (semiclass_form) -> canonical form. The image is a
      // member of the input's NPN orbit, so every function mapping onto a
      // seen image shares its canonical form and skips the exact
      // canonicalizer — the memo catches equivalent inputs, not just repeats.
      std::unordered_map<TruthTable, TruthTable, TruthTableHash> semiclass_memo;
      std::size_t memo_hits = 0;
      std::vector<TruthTable> image_of_unique;
      image_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        if (u.num_vars() <= kNpn4MaxVars) {
          // The exact canonicalizer is a single NPN4 norm-table load at these
          // widths — cheaper than deriving the image.
          image_of_unique.push_back(exact_npn_canonical(u));
        } else {
          image_of_unique.push_back(memoized(semiclass_memo, semiclass_form(u).image, memo_hits,
                                             [&](const TruthTable&) { return exact_npn_canonical(u); }));
        }
      }
      return group_by_key<TruthTable, TruthTableHash>(d, std::move(image_of_unique), memo_hits);
    }

    case ClassifierKind::kHierarchical: {
      // Same two-level composition as classify_hierarchical: refine the
      // semi-canonical representative with a budgeted co-designed pass,
      // once per distinct semi-canonical image; the refined image is the
      // class key.
      CodesignOptions refine_options;
      refine_options.budget = kHierarchicalRefineBudget;
      std::unordered_map<TruthTable, TruthTable, TruthTableHash> refine_memo;
      std::size_t memo_hits = 0;
      std::vector<TruthTable> image_of_unique;
      image_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        image_of_unique.push_back(memoized(refine_memo, semi_canonical(u), memo_hits,
                                           [&](const TruthTable& semi) {
                                             return codesign_canonical(semi, refine_options);
                                           }));
      }
      return group_by_key<TruthTable, TruthTableHash>(d, std::move(image_of_unique), memo_hits);
    }

    case ClassifierKind::kSemiCanonical:
    case ClassifierKind::kCodesign: {
      std::vector<TruthTable> image_of_unique;
      image_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        image_of_unique.push_back(kind == ClassifierKind::kSemiCanonical ? semi_canonical(u)
                                                                         : codesign_canonical(u));
      }
      return group_by_key<TruthTable, TruthTableHash>(d, std::move(image_of_unique), 0);
    }

    case ClassifierKind::kFp: {
      std::vector<std::vector<std::uint32_t>> msv_of_unique;
      msv_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        msv_of_unique.push_back(build_msv(u, signature));
      }
      return group_by_key<std::vector<std::uint32_t>, U32VectorHash>(d, std::move(msv_of_unique), 0);
    }

    case ClassifierKind::kFpHashed: {
      std::vector<Hash128> key_of_unique;
      key_of_unique.reserve(d.uniques.size());
      for (const auto& u : d.uniques) {
        const auto msv = build_msv(u, signature);
        // Same two-seed 128-bit key as classify_fp_hashed.
        key_of_unique.push_back(Hash128{hash_u32_span(msv, 0xa0761d6478bd642fULL),
                                        hash_u32_span(msv, 0x589965cc75374cc3ULL)});
      }
      return group_by_key<Hash128, Hash128Hasher>(d, std::move(key_of_unique), 0);
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
    stats->threads = pool.num_threads();
    stats->max_shard_size = plan.max_shard_size();
    for (std::size_t s = 0; s < plan.num_shards; ++s) {
      stats->shards_used += plan.members[s].empty() ? 0 : 1;
      stats->cache_hits += locals[s].cache_hits;
      stats->cache_misses += locals[s].cache_misses;
    }
  }
  return result;
}

}  // namespace facet
