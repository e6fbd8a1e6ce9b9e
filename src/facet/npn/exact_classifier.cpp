#include "facet/npn/exact_classifier.hpp"

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/sig/msv.hpp"
#include "facet/util/hash.hpp"
#include "facet/util/parallel.hpp"

namespace facet {

ClassificationResult classify_exact(std::span<const TruthTable> funcs, const SignatureConfig& bucket_config,
                                    ExactClassifyStats* stats, std::size_t num_threads)
{
  std::size_t num_buckets = 0;
  std::atomic<std::size_t> matcher_calls{0};
  std::atomic<std::size_t> matcher_hits{0};
  // Identical truth tables short-circuit the matcher entirely.
  ClassificationResult result = classify_distinct(funcs, [&](std::span<const TruthTable> uniques) {
    const ClassificationResult buckets = classify_by_key<U32VectorHash>(
        uniques, [&](const TruthTable& f) { return build_msv(f, bucket_config); }, num_threads);
    num_buckets = buckets.num_classes;
    std::vector<std::vector<std::uint32_t>> members(buckets.num_classes);
    for (std::size_t i = 0; i < uniques.size(); ++i) {
      members[buckets.class_of[i]].push_back(static_cast<std::uint32_t>(i));
    }
    // rep_of[i]: the first member of i's class, the first representative in
    // its bucket that i matches (else i itself).
    std::vector<std::uint32_t> rep_of(uniques.size());
    parallel_for(members.size(), num_threads, [&](std::size_t b) {
      // Each representative's match keys are computed once, reused by every probe.
      std::vector<std::pair<std::uint32_t, NpnMatchKeys>> reps;
      std::size_t calls = 0;
      std::size_t hits = 0;
      for (const auto i : members[b]) {
        const NpnMatchKeys keys = npn_match_keys(uniques[i]);
        rep_of[i] = i;
        for (const auto& [rep, rep_keys] : reps) {
          ++calls;
          if (npn_match(uniques[rep], rep_keys, uniques[i], keys).has_value()) {
            rep_of[i] = rep;
            ++hits;
            break;
          }
        }
        if (rep_of[i] == i) {
          reps.emplace_back(i, keys);
        }
      }
      matcher_calls += calls;
      matcher_hits += hits;
    });
    // A representative precedes its members, so numbering representatives
    // by first occurrence numbers the classes by first occurrence.
    return group_keys<std::hash<std::uint32_t>>(rep_of);
  });
  if (stats != nullptr) {
    stats->buckets = num_buckets;
    stats->matcher_calls += matcher_calls;
    stats->matcher_hits += matcher_hits;
  }
  return result;
}

ExhaustiveClassification classify_exhaustive_with_transforms(std::span<const TruthTable> funcs,
                                                             std::size_t num_threads)
{
  // Stage 1: the semiclass image is in the input's NPN orbit, so functions
  // sharing an image share a canonical form. At n <= 4 the NPN4 table load
  // is cheaper than deriving an image, so a function is its own image.
  const std::vector<SemiclassResult> forms = parallel_keys(
      funcs.size(),
      [&](std::size_t i) {
        const TruthTable& tt = funcs[i];
        return tt.num_vars() <= kNpn4MaxVars ? SemiclassResult{tt, NpnTransform::identity(tt.num_vars())}
                                             : semiclass_form(tt);
      },
      num_threads);
  const ClassificationResult groups = group_keys(forms, &SemiclassResult::image);
  const std::vector<std::uint32_t> first = groups.first_members();
  // Stage 2: one search per image group, seeded with its first member's form
  // (the NPN4 table ignores the seed).
  std::vector<CanonResult> canon = parallel_keys(
      first.size(),
      [&](std::size_t g) { return exact_npn_canonical_with_transform(funcs[first[g]], forms[first[g]]); },
      num_threads);
  const ClassificationResult group_classes = group_keys(canon, &CanonResult::canonical);

  ExhaustiveClassification result{merge_groups(groups, group_classes), {}};
  result.canon.reserve(group_classes.num_classes);
  for (const auto g : group_classes.first_members()) {
    result.canon.push_back(std::move(canon[g]));
  }
  return result;
}

ClassificationResult classify_exhaustive(std::span<const TruthTable> funcs, std::size_t num_threads)
{
  return classify_exhaustive_with_transforms(funcs, num_threads).classes;
}

}  // namespace facet
