/// Fixed-work rows of the exact canonicalizer: one seeded set of uniform
/// random functions per width (1,000 at n = 5 and 6, 50 at n = 7), canonical
/// form plus witness through exact_npn_canonical_with_transform, us/op as
/// the minimum of 7 passes, single thread. The inputs are the same at every
/// commit, so the rows compare across changes. Every canonical form is
/// checked against the exhaustive orbit walk; the exit code is 1 on any
/// mismatch, never on time.
///
///   canon_fixed_work

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "facet/npn/exact_canon.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/util/timer.hpp"

int main()
{
  using namespace facet;
  constexpr int kPasses = 7;
  bool identical = true;
  for (const int n : {5, 6, 7}) {
    const std::vector<TruthTable> funcs =
        tt_random_set(n, n <= 6 ? 1000 : 50, 0xCA70ULL + static_cast<std::uint64_t>(n));
    std::vector<TruthTable> canonical(funcs.size());
    double us_per_op = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      Stopwatch watch;
      for (std::size_t i = 0; i < funcs.size(); ++i) {
        canonical[i] = exact_npn_canonical_with_transform(funcs[i]).canonical;
      }
      const double us = watch.seconds() * 1e6 / static_cast<double>(funcs.size());
      us_per_op = pass == 0 ? us : std::min(us_per_op, us);
    }
    bool row_identical = true;
    for (std::size_t i = 0; i < funcs.size(); ++i) {
      row_identical = row_identical && exact_npn_canonical_walk(funcs[i]) == canonical[i];
    }
    identical = identical && row_identical;
    std::cout << "canon_random n=" << n << " (" << funcs.size() << " functions, min of " << kPasses
              << " passes): " << us_per_op << " us/op, identical to walk: "
              << (row_identical ? "yes" : "NO") << "\n";
  }
  return identical ? 0 : 1;
}
