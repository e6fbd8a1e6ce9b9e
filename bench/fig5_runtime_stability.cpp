/// Reproduces Fig. 5: runtime of the signature classifier ("ours") vs the
/// co-designed canonical baseline ("testnpn -11") on randomly generated
/// 5-bit and 7-bit function sets of growing size, using the paper's
/// "truth tables in consecutive binary encoding" workload.
///
/// The paper's claim: ours is near-linear in the set size with low variance
/// across batches; the canonical baseline fluctuates strongly because its
/// cost depends on each function's tie/symmetry structure. The binary prints
/// the two time series plus per-batch fluctuation statistics.
///
/// Flags:
///   --points P   series length (default 8)
///   --step5 K    functions added per point at n=5 (default 25000)
///   --step7 K    functions added per point at n=7 (default 10000)
///   --seed S

#include <cmath>
#include <iostream>
#include <utility>
#include <vector>

#include "facet/data/dataset.hpp"
#include "facet/npn/codesign.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/util/cli.hpp"
#include "facet/util/table.hpp"
#include "facet/util/timer.hpp"

namespace {

struct Series {
  std::vector<double> ours;
  std::vector<double> codesign;
};

double coefficient_of_variation(const std::vector<double>& batch_times)
{
  if (batch_times.size() < 2) {
    return 0.0;
  }
  double mean = 0;
  for (const double t : batch_times) {
    mean += t;
  }
  mean /= static_cast<double>(batch_times.size());
  double var = 0;
  for (const double t : batch_times) {
    var += (t - mean) * (t - mean);
  }
  var /= static_cast<double>(batch_times.size() - 1);
  return mean > 0 ? std::sqrt(var) / mean : 0.0;
}

}  // namespace

int run(const facet::CliArgs& args)
{
  using namespace facet;
  const std::uint64_t points = args.get_uint64("points", 8);
  const std::uint64_t seed = args.get_uint64("seed", 55);
  // Every flag is read before the first line of output, so a malformed one
  // fails with nothing printed.
  const std::size_t step5 = static_cast<std::size_t>(args.get_uint64("step5", 25000));
  const std::size_t step7 = static_cast<std::size_t>(args.get_uint64("step7", 10000));

  std::cout << "Fig. 5: runtime stability, ours vs co-designed canonical (testnpn -11 analog)\n";

  for (const auto& [n, step] : std::vector<std::pair<int, std::size_t>>{{5, step5}, {7, step7}}) {
    std::cout << "\n" << n << "-bit functions (consecutive binary encoding), step " << step << ":\n\n";

    AsciiTable table;
    table.set_header({"#funcs", "ours (s)", "-11 (s)"});
    std::vector<double> ours_batch;
    std::vector<double> codesign_batch;

    // Warm-up pass (first allocation / page-cache effects would otherwise
    // pollute the first measured batch).
    {
      const auto warm = make_consecutive_dataset(n, step / 4 + 1, seed);
      (void)classify_fp(warm, SignatureConfig::all());
      (void)classify_codesign(warm);
    }

    for (std::uint64_t p = 1; p <= points; ++p) {
      const std::size_t count = step * static_cast<std::size_t>(p);
      const auto funcs = make_consecutive_dataset(n, count, seed + p);

      Stopwatch w1;
      // The hashed variant is Algorithm 1 verbatim (class <- hash(MSV)) and
      // keeps the class map constant-size-per-entry at this scale.
      const auto ours = classify_fp_hashed(funcs, SignatureConfig::all());
      const double t_ours = w1.seconds();

      Stopwatch w2;
      const auto codesign = classify_codesign(funcs);
      const double t_codesign = w2.seconds();

      ours_batch.push_back(t_ours / static_cast<double>(count));
      codesign_batch.push_back(t_codesign / static_cast<double>(count));
      table.add_row_of(count, t_ours, t_codesign);
      (void)ours;
      (void)codesign;
    }
    table.render(std::cout);
    std::cout << "per-function time variation (coefficient of variation across batches):\n"
              << "  ours: " << coefficient_of_variation(ours_batch)
              << "   -11: " << coefficient_of_variation(codesign_batch) << "\n";
  }

  std::cout << "\nExpected shape (paper Fig. 5): both series grow with the set size, but the\n"
               "per-function cost of ours is flat (bitwise signatures + hash) while the canonical\n"
               "baseline's fluctuates with the tie/symmetry structure of each batch.\n";
  return 0;
}

int main(int argc, char** argv) { return facet::run_main(argc, argv, run); }
