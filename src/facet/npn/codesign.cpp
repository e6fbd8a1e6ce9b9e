#include "facet/npn/codesign.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <tuple>
#include <vector>

#include "facet/npn/symmetry.hpp"
#include "facet/sig/cofactor.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {

namespace {

struct VarGroup {
  std::vector<int> vars;  ///< current order (cycled by std::next_permutation)
  bool collapsed = false;  ///< symmetric group: single order suffices
};

/// Canonicalizes one output-polarity candidate.
[[nodiscard]] TruthTable canonical_one_polarity(const TruthTable& g, const CodesignOptions& options,
                                                CodesignStats* stats)
{
  const int n = g.num_vars();

  // Default phases: make |g_{x_i=1}| >= |g_{x_i=0}|.
  const auto pairs = cofactor_pairs(g);
  std::uint32_t default_neg = 0;
  for (int i = 0; i < n; ++i) {
    if (pairs[static_cast<std::size_t>(i)].count1 < pairs[static_cast<std::size_t>(i)].count0) {
      default_neg |= 1u << i;
    }
  }
  const TruthTable g1 = flip_vars(g, default_neg);

  // Phase ambiguity: cofactor-tied variables, minus the degenerate cases
  // where the flip provably cannot matter (flip-invariant: the variable is
  // irrelevant; flip-complementing: the flip is absorbed by output polarity,
  // which the caller enumerates).
  std::vector<int> ambiguous;
  for (int i = 0; i < n; ++i) {
    const auto& p = pairs[static_cast<std::size_t>(i)];
    if (p.count0 != p.count1) {
      continue;
    }
    if (flip_invariant(g1, i) || flip_complements(g1, i)) {
      continue;
    }
    ambiguous.push_back(i);
  }

  // Per-variable keys decide the coarse order; equal keys form groups whose
  // internal order must be enumerated. As in the pre-facet canonical forms
  // the baseline models ([14] and earlier), the keys are cofactor-based
  // only — influence is this paper's contribution and is deliberately NOT
  // available to the baseline, which is exactly why tied variables force it
  // into enumeration.
  using Key = std::tuple<std::uint32_t, std::uint32_t>;
  std::vector<Key> key(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto& p = pairs[static_cast<std::size_t>(i)];
    key[static_cast<std::size_t>(i)] = Key{std::min(p.count0, p.count1), std::max(p.count0, p.count1)};
  }
  std::vector<int> sorted(static_cast<std::size_t>(n));
  std::iota(sorted.begin(), sorted.end(), 0);
  std::sort(sorted.begin(), sorted.end(), [&](int a, int b) {
    return key[static_cast<std::size_t>(a)] != key[static_cast<std::size_t>(b)]
               ? key[static_cast<std::size_t>(a)] > key[static_cast<std::size_t>(b)]
               : a < b;
  });

  std::vector<VarGroup> groups;
  for (int k = 0; k < n;) {
    VarGroup group;
    const Key& gk = key[static_cast<std::size_t>(sorted[static_cast<std::size_t>(k)])];
    int m = k;
    while (m < n && key[static_cast<std::size_t>(sorted[static_cast<std::size_t>(m)])] == gk) {
      group.vars.push_back(sorted[static_cast<std::size_t>(m)]);
      ++m;
    }
    k = m;
    std::sort(group.vars.begin(), group.vars.end());
    if (options.use_symmetry && group.vars.size() > 1 && all_pairwise_symmetric(g1, group.vars)) {
      group.collapsed = true;
    }
    groups.push_back(std::move(group));
  }

  // Candidate space size (saturating).
  std::size_t space = std::size_t{1} << std::min<std::size_t>(ambiguous.size(), 63);
  for (const auto& group : groups) {
    if (group.collapsed) {
      continue;
    }
    for (std::size_t s = 2; s <= group.vars.size(); ++s) {
      if (space > options.budget * 16) {
        break;  // already far beyond the budget; no need for the exact size
      }
      space *= s;
    }
  }
  const std::size_t todo = std::min(space, options.budget);
  if (stats != nullptr) {
    stats->candidates += todo;
    stats->budget_exhausted |= space > options.budget;
  }

  // Odometer over [phase subset of ambiguous vars] x [group permutations].
  std::uint64_t phase_index = 0;
  const std::uint64_t phase_count = std::uint64_t{1} << ambiguous.size();

  TruthTable best = g1;  // identity candidate is always evaluated first
  bool first = true;

  std::array<int, kMaxVars> perm{};
  for (std::size_t c = 0; c < todo; ++c) {
    // Build the permutation: result position k hosts the k-th variable of
    // the concatenated group orders; permute_vars takes the inverse map.
    int pos = 0;
    for (const auto& group : groups) {
      for (const int v : group.vars) {
        perm[static_cast<std::size_t>(v)] = pos++;
      }
    }
    std::uint32_t amb_mask = 0;
    for (std::size_t a = 0; a < ambiguous.size(); ++a) {
      if ((phase_index >> a) & 1ULL) {
        amb_mask |= 1u << ambiguous[a];
      }
    }

    TruthTable candidate = amb_mask == 0 ? g1 : flip_vars(g1, amb_mask);
    candidate = permute_vars_fast(candidate, std::span<const int>{perm.data(), static_cast<std::size_t>(n)});
    if (first || candidate < best) {
      best = candidate;
      first = false;
    }

    // Advance the odometer: phases innermost, then group permutations.
    if (++phase_index < phase_count) {
      continue;
    }
    phase_index = 0;
    bool carried = false;
    for (auto& group : groups) {
      if (group.collapsed || group.vars.size() < 2) {
        continue;
      }
      if (std::next_permutation(group.vars.begin(), group.vars.end())) {
        carried = true;
        break;
      }
      // wrapped to sorted order; carry into the next group
    }
    if (!carried) {
      break;  // full space exhausted (possible when space < budget estimate)
    }
  }
  return best;
}

}  // namespace

TruthTable codesign_canonical(const TruthTable& tt, const CodesignOptions& options, CodesignStats* stats)
{
  const std::uint64_t ones = tt.count_ones();
  const std::uint64_t half = tt.num_bits() / 2;
  if (ones > half) {
    return canonical_one_polarity(~tt, options, stats);
  }
  if (ones < half) {
    return canonical_one_polarity(tt, options, stats);
  }
  const TruthTable a = canonical_one_polarity(tt, options, stats);
  const TruthTable b = canonical_one_polarity(~tt, options, stats);
  return a <= b ? a : b;
}

ClassificationResult classify_codesign(std::span<const TruthTable> funcs, const CodesignOptions& options,
                                       std::size_t num_threads)
{
  return classify_by_key(
      funcs, [&options](const TruthTable& tt) { return codesign_canonical(tt, options); }, num_threads);
}

}  // namespace facet
