/// library_dedup: NPN-canonical deduplication of a cell-library candidate
/// set — the classic application of NPN classification in technology
/// mapping (§I of the paper).
///
/// A "candidate library" of single-output cells is generated as NP-polluted
/// variants of a few seed functions plus random noise cells. The example
/// dedupes it three ways — exact truth-table identity, the paper's signature
/// classifier, and the exact NPN reference — and shows how many physical
/// cells a mapper actually needs.
///
/// Flags: --seeds K (default 12), --variants V (default 40), --noise M
///        (default 50), --n N (default 5).

#include <iostream>
#include <unordered_set>

#include "facet/facet.hpp"

int run(const facet::CliArgs& args)
{
  using namespace facet;
  const int n = static_cast<int>(args.get_int("n", 5));
  const std::size_t seeds = static_cast<std::size_t>(args.get_uint64("seeds", 12));
  const std::size_t variants = static_cast<std::size_t>(args.get_uint64("variants", 40));
  const std::size_t noise = static_cast<std::size_t>(args.get_uint64("noise", 50));

  std::mt19937_64 rng{0x11B4A4Bu};

  // Seed cells: the functions a real standard-cell library is built around.
  std::vector<TruthTable> cells;
  std::vector<TruthTable> seed_functions;
  seed_functions.push_back(tt_majority(n | 1));  // make odd if needed
  for (std::size_t s = seed_functions[0].num_vars() == n ? 1u : 0u; s < seeds; ++s) {
    seed_functions.push_back(tt_random(n, rng));
  }
  for (const auto& seed : seed_functions) {
    if (seed.num_vars() != n) {
      continue;
    }
    cells.push_back(seed);
    for (std::size_t v = 0; v < variants; ++v) {
      cells.push_back(apply_transform(seed, NpnTransform::random(n, rng)));
    }
  }
  for (std::size_t m = 0; m < noise; ++m) {
    cells.push_back(tt_random(n, rng));
  }
  std::shuffle(cells.begin(), cells.end(), rng);

  std::cout << "candidate library: " << cells.size() << " cells (" << n << "-input)\n\n";

  // Level 0: exact truth-table dedup only.
  std::unordered_set<TruthTable, TruthTableHash> distinct(cells.begin(), cells.end());
  std::cout << "distinct truth tables:          " << distinct.size() << "\n";

  // Level 1: the paper's signature classifier.
  Stopwatch watch;
  const auto fp = classify_fp(cells, SignatureConfig::all());
  std::cout << "signature classifier classes:   " << fp.num_classes << "  (" << watch.seconds() << " s)\n";

  // Level 2: exact NPN classes.
  watch.reset();
  const auto exact = classify_exact(cells);
  std::cout << "exact NPN classes:              " << exact.num_classes << "  (" << watch.seconds()
            << " s)\n\n";

  const auto sizes = exact.class_sizes();
  std::size_t reusable = 0;
  for (const auto s : sizes) {
    reusable += s > 1 ? 1 : 0;
  }
  std::cout << "classes with more than one member (cells a mapper can merge): " << reusable << "\n";
  std::cout << "library compression: " << cells.size() << " -> " << exact.num_classes << " cells ("
            << (100.0 * static_cast<double>(exact.num_classes) / static_cast<double>(cells.size()))
            << "% of the original)\n";
  return 0;
}

int main(int argc, char** argv) { return facet::run_main(argc, argv, run); }
