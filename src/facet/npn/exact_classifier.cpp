#include "facet/npn/exact_classifier.hpp"

#include <unordered_map>

#include "facet/npn/exact_canon.hpp"
#include "facet/npn/matcher.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/semiclass.hpp"
#include "facet/sig/msv.hpp"
#include "facet/util/hash.hpp"

namespace facet {

ClassificationResult classify_exact(std::span<const TruthTable> funcs, const SignatureConfig& bucket_config,
                                    ExactClassifyStats* stats)
{
  ClassificationResult result;
  result.class_of.reserve(funcs.size());

  struct Rep {
    TruthTable table;
    NpnMatchKeys keys;  // precomputed once, reused across every probe
    std::uint32_t class_id;
  };
  struct Bucket {
    // Representative table and its class id, one per distinct class that
    // shares this MSV.
    std::vector<Rep> reps;
  };
  std::unordered_map<std::vector<std::uint32_t>, Bucket, U32VectorHash> buckets;
  // Identical truth tables short-circuit the matcher entirely.
  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> seen;

  std::uint32_t next_class = 0;

  for (const auto& f : funcs) {
    if (const auto it = seen.find(f); it != seen.end()) {
      result.class_of.push_back(it->second);
      continue;
    }
    auto& bucket = buckets[build_msv(f, bucket_config)];
    std::uint32_t cls = next_class;
    bool matched = false;
    const NpnMatchKeys f_keys = npn_match_keys(f);
    for (const auto& rep : bucket.reps) {
      if (stats != nullptr) {
        ++stats->matcher_calls;
      }
      if (npn_match(rep.table, rep.keys, f, f_keys).has_value()) {
        cls = rep.class_id;
        matched = true;
        if (stats != nullptr) {
          ++stats->matcher_hits;
        }
        break;
      }
    }
    if (!matched) {
      bucket.reps.push_back(Rep{f, f_keys, cls});
      ++next_class;
    }
    seen.emplace(f, cls);
    result.class_of.push_back(cls);
  }
  result.num_classes = next_class;
  if (stats != nullptr) {
    stats->buckets = buckets.size();
  }
  return result;
}

ClassificationResult classify_exhaustive(std::span<const TruthTable> funcs)
{
  // Semiclass image (semiclass_form) -> canonical form. The image is a
  // member of the input's NPN orbit, so every function mapping onto a seen
  // image shares its canonical form and skips the exact canonicalizer: the
  // memo catches equivalent inputs, not just repeats.
  std::unordered_map<TruthTable, TruthTable, TruthTableHash> semiclass_memo;
  return classify_by_key(funcs, [&semiclass_memo](const TruthTable& tt) {
    if (tt.num_vars() <= kNpn4MaxVars) {
      // The exact canonicalizer is a single NPN4 norm-table load at these
      // widths, cheaper than deriving the image.
      return exact_npn_canonical(tt);
    }
    const SemiclassResult sc = semiclass_form(tt);
    auto [it, inserted] = semiclass_memo.try_emplace(sc.image);
    if (inserted) {
      // The image seeds the search: one semiclass pass per memo miss.
      it->second = exact_npn_canonical(tt, sc);
    }
    return it->second;
  });
}

}  // namespace facet
