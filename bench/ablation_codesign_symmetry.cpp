/// Ablation: symmetry collapse in the co-designed canonical baseline.
///
/// Zhou-style canonical forms co-design the form with its computation by
/// detecting symmetric variable groups and collapsing their permutation
/// space. This bench measures the baseline with and without that collapse
/// on workloads of increasing symmetry content, showing (a) why the
/// co-design matters for canonical methods and (b) why their runtime is
/// structure-dependent — the instability the paper's signature classifier
/// avoids (Fig. 5).
///
/// Flags: --count (functions per workload, default 2000), --seed.

#include <iostream>
#include <vector>

#include "facet/npn/codesign.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/transform.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/util/cli.hpp"
#include "facet/util/table.hpp"
#include "facet/util/timer.hpp"

namespace {

using namespace facet;

/// Workload with a controlled fraction of totally symmetric functions.
std::vector<TruthTable> symmetric_mix(int n, std::size_t count, double symmetric_fraction,
                                      std::mt19937_64& rng)
{
  std::vector<TruthTable> funcs;
  funcs.reserve(count);
  const std::size_t symmetric = static_cast<std::size_t>(static_cast<double>(count) * symmetric_fraction);
  for (std::size_t i = 0; i < symmetric; ++i) {
    // Random symmetric function: value depends only on popcount(X).
    TruthTable tt{n};
    std::uint32_t spectrum = static_cast<std::uint32_t>(rng()) & ((1u << (n + 1)) - 1);
    for (std::uint64_t m = 0; m < tt.num_bits(); ++m) {
      if ((spectrum >> std::popcount(m)) & 1u) {
        tt.set_bit(m);
      }
    }
    funcs.push_back(apply_transform(tt, NpnTransform::random(n, rng)));
  }
  while (funcs.size() < count) {
    funcs.push_back(tt_random(n, rng));
  }
  std::shuffle(funcs.begin(), funcs.end(), rng);
  return funcs;
}

}  // namespace

int run(const facet::CliArgs& args)
{
  const std::size_t count = static_cast<std::size_t>(args.get_uint64("count", 2000));
  std::mt19937_64 rng{args.get_uint64("seed", 77)};
  const int n = 7;

  std::cout << "Ablation: symmetry collapse in the co-designed canonical baseline (n = " << n << ")\n\n";

  AsciiTable table;
  table.set_header({"symmetric fraction", "-11 with collapse (s)", "-11 without (s)", "ours (s)",
                    "classes (with/without/ours)"});

  for (const double fraction : {0.0, 0.1, 0.3, 0.5}) {
    const auto funcs = symmetric_mix(n, count, fraction, rng);

    CodesignOptions with_sym;
    with_sym.use_symmetry = true;
    CodesignOptions without_sym;
    without_sym.use_symmetry = false;

    Stopwatch w1;
    const auto r_with = classify_codesign(funcs, with_sym);
    const double t_with = w1.seconds();

    Stopwatch w2;
    const auto r_without = classify_codesign(funcs, without_sym);
    const double t_without = w2.seconds();

    Stopwatch w3;
    const auto r_ours = classify_fp(funcs, SignatureConfig::all());
    const double t_ours = w3.seconds();

    table.add_row({AsciiTable::to_cell(fraction), AsciiTable::to_cell(t_with),
                   AsciiTable::to_cell(t_without), AsciiTable::to_cell(t_ours),
                   std::to_string(r_with.num_classes) + "/" + std::to_string(r_without.num_classes) + "/" +
                       std::to_string(r_ours.num_classes)});
  }

  table.render(std::cout);
  std::cout << "\nThe canonical baseline's cost climbs with the symmetric share (collapse recovers\n"
               "part of it); the signature classifier's cost stays put — the structural reason for\n"
               "the Fig. 5 stability gap.\n";
  return 0;
}

int main(int argc, char** argv) { return facet::run_main(argc, argv, run); }
