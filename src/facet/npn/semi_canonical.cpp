#include "facet/npn/semi_canonical.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "facet/sig/cofactor.hpp"
#include "facet/tt/tt_transform.hpp"

namespace facet {

namespace {

/// Phase- and order-normalizes one polarity candidate.
[[nodiscard]] TruthTable normalize(const TruthTable& g)
{
  const int n = g.num_vars();

  // Input phases: flip every variable whose positive cofactor is smaller,
  // so that |g_{x_i=1}| >= |g_{x_i=0}| afterwards. Ties keep phase 0.
  std::uint32_t neg = 0;
  const auto pairs = cofactor_pairs(g);
  for (int i = 0; i < n; ++i) {
    if (pairs[static_cast<std::size_t>(i)].count1 < pairs[static_cast<std::size_t>(i)].count0) {
      neg |= 1u << i;
    }
  }
  TruthTable flipped = flip_vars(g, neg);

  // Variable order: sort by positive-cofactor count, descending, stable
  // (index tie-break — deliberately not an NPN invariant; this is the
  // accuracy/speed trade the -6 baseline makes).
  std::array<std::uint32_t, kMaxVars> key{};
  for (int i = 0; i < n; ++i) {
    const auto& p = pairs[static_cast<std::size_t>(i)];
    key[static_cast<std::size_t>(i)] = std::max(p.count0, p.count1);
  }
  std::array<int, kMaxVars> sorted{};
  std::iota(sorted.begin(), sorted.begin() + n, 0);
  std::stable_sort(sorted.begin(), sorted.begin() + n, [&](int a, int b) {
    return key[static_cast<std::size_t>(a)] > key[static_cast<std::size_t>(b)];
  });

  // Position k of the result hosts variable sorted[k]; permute_vars wants
  // the inverse map (input i driven by its new position).
  std::array<int, kMaxVars> perm{};
  for (int k = 0; k < n; ++k) {
    perm[static_cast<std::size_t>(sorted[static_cast<std::size_t>(k)])] = k;
  }
  return permute_vars_fast(flipped, std::span<const int>{perm.data(), static_cast<std::size_t>(n)});
}

}  // namespace

TruthTable semi_canonical(const TruthTable& tt)
{
  const std::uint64_t ones = tt.count_ones();
  const std::uint64_t half = tt.num_bits() / 2;
  if (ones > half) {
    return normalize(~tt);
  }
  if (ones < half) {
    return normalize(tt);
  }
  // Balanced: neither polarity is distinguished by the satisfy count; take
  // the smaller of the two images so the choice is at least deterministic.
  const TruthTable a = normalize(tt);
  const TruthTable b = normalize(~tt);
  return a <= b ? a : b;
}

ClassificationResult classify_semi_canonical(std::span<const TruthTable> funcs, std::size_t num_threads)
{
  return classify_by_key(funcs, semi_canonical, num_threads);
}

}  // namespace facet
