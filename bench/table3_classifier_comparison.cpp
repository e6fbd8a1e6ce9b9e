/// Reproduces Table III: runtime and accuracy of the classifier line-up on
/// the same circuit-derived sets as Table II.
///
/// Column mapping to the paper:
///   Kitty        -> exhaustive exact canonical form, one search per
///                   semiclass image in classify_exhaustive (n <= 6 only)
///   testnpn -6   -> semi-canonical baseline (Huang FPT'13 analog)
///   testnpn -7   -> hierarchical baseline (Petkovska FPL'16 analog)
///   testnpn -11  -> co-designed canonical baseline (Zhou TC'20 analog,
///                   final exhaustive stage removed, as in the paper)
///   Ours         -> the face+point signature classifier (Algorithm 1)
///
/// Absolute times are machine-specific; the paper's claims are the relative
/// profile (ultra-fast/inaccurate -6, near-exact/slow -11, exact-for-small-n
/// and stable Ours), which this binary reports.
///
/// A second table reruns the heavier classifiers on the parallel batch
/// engine (--jobs threads, default and 0 = all cores, as in facet_cli) and
/// reports the speedup over the sequential runs; class counts are asserted
/// to match the sequential results exactly. --sequential-only skips it.
///
/// Flags: --min-n, --max-n (default 4..8), --max-funcs (default 20000),
///        --jobs (batch-engine threads), --sequential-only.

#include <cstdlib>
#include <iostream>

#include "facet/data/dataset.hpp"
#include "facet/engine/batch_engine.hpp"
#include "facet/npn/codesign.hpp"
#include "facet/npn/npn4_table.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/npn/fp_classifier.hpp"
#include "facet/npn/hierarchical.hpp"
#include "facet/npn/semi_canonical.hpp"
#include "facet/util/cli.hpp"
#include "facet/util/parallel.hpp"
#include "facet/util/table.hpp"
#include "facet/util/timer.hpp"

namespace {

struct Timed {
  std::size_t classes;
  double seconds;
};

template <typename Fn>
Timed timed(Fn&& fn)
{
  facet::Stopwatch watch;
  const auto result = fn();
  return Timed{result.num_classes, watch.seconds()};
}

}  // namespace

int run(const facet::CliArgs& args)
{
  using namespace facet;
  const int min_n = static_cast<int>(args.get_int("min-n", 4));
  const int max_n = static_cast<int>(args.get_int("max-n", 8));
  const std::size_t max_funcs = static_cast<std::size_t>(args.get_uint64("max-funcs", 20000));
  // --jobs 0 = hardware concurrency, resolved as facet_cli does.
  const std::size_t jobs = resolve_num_threads(args.get_uint64("jobs", 0));
  const bool run_engine = !args.get_bool("sequential-only");

  std::cout << "Table III: runtime (s) and accuracy of NPN classifiers (circuit-derived sets)\n\n";

  AsciiTable table;
  table.set_header({"n", "#Func", "#Exact", "Kitty #", "Kitty t", "-6 #", "-6 t", "-7 #", "-7 t", "-11 #",
                    "-11 t", "Ours #", "Ours t"});

  AsciiTable parallel_table;
  parallel_table.set_header(
      {"n", "#Func", "-6 tP", "-6 x", "-7 tP", "-7 x", "-11 tP", "-11 x", "Ours tP", "Ours x"});

  std::uint64_t total_table_lookups = 0;

  for (int n = min_n; n <= max_n; ++n) {
    CircuitDatasetOptions options;
    options.max_functions = max_funcs;
    const auto funcs = make_circuit_dataset(n, options);
    // Widths <= 4 resolve exact canonicalization through the baked NPN4 norm
    // table; report how much of the row it carried.
    const std::uint64_t table_lookups_before = npn4_table_lookups();

    const auto exact = classify_exact(funcs);
    const Timed semi = timed([&] { return classify_semi_canonical(funcs); });
    const Timed hier = timed([&] { return classify_hierarchical(funcs); });
    const Timed codesign = timed([&] { return classify_codesign(funcs); });
    const Timed ours = timed([&] { return classify_fp(funcs, SignatureConfig::all()); });

    std::string kitty_classes = "-";
    std::string kitty_time = "-";
    if (n <= 6) {
      const Timed kitty = timed([&] { return classify_exhaustive(funcs); });
      kitty_classes = std::to_string(kitty.classes);
      kitty_time = AsciiTable::to_cell(kitty.seconds);
    }

    table.add_row({std::to_string(n), std::to_string(funcs.size()), std::to_string(exact.num_classes),
                   kitty_classes, kitty_time, std::to_string(semi.classes), AsciiTable::to_cell(semi.seconds),
                   std::to_string(hier.classes), AsciiTable::to_cell(hier.seconds),
                   std::to_string(codesign.classes), AsciiTable::to_cell(codesign.seconds),
                   std::to_string(ours.classes), AsciiTable::to_cell(ours.seconds)});

    if (run_engine) {
      // Rerun the four set-scale classifiers on the batch engine and assert
      // the class counts match the sequential runs exactly — the engine's
      // bit-identity contract, checked here at benchmark scale.
      BatchEngineOptions engine_options;
      engine_options.num_threads = jobs;
      const auto engine_run = [&](ClassifierKind kind, const Timed& sequential) {
        const Timed t = timed([&] { return classify_batch(funcs, kind, engine_options); });
        if (t.classes != sequential.classes) {
          std::cerr << "FATAL: batch engine diverged from sequential " << classifier_kind_name(kind)
                    << " at n=" << n << " (" << t.classes << " vs " << sequential.classes << ")\n";
          std::exit(1);
        }
        return t;
      };
      const Timed semi_p = engine_run(ClassifierKind::kSemiCanonical, semi);
      const Timed hier_p = engine_run(ClassifierKind::kHierarchical, hier);
      const Timed codesign_p = engine_run(ClassifierKind::kCodesign, codesign);
      const Timed ours_p = engine_run(ClassifierKind::kFp, ours);
      const auto speedup = [](const Timed& seq, const Timed& par) {
        return par.seconds > 0 ? AsciiTable::to_cell(seq.seconds / par.seconds) : "-";
      };
      parallel_table.add_row({std::to_string(n), std::to_string(funcs.size()),
                              AsciiTable::to_cell(semi_p.seconds), speedup(semi, semi_p),
                              AsciiTable::to_cell(hier_p.seconds), speedup(hier, hier_p),
                              AsciiTable::to_cell(codesign_p.seconds), speedup(codesign, codesign_p),
                              AsciiTable::to_cell(ours_p.seconds), speedup(ours, ours_p)});
    }
    const std::uint64_t row_table_lookups = npn4_table_lookups() - table_lookups_before;
    total_table_lookups += row_table_lookups;
    std::cerr << "  [n=" << n << " done, " << funcs.size() << " functions, "
              << row_table_lookups << " npn4 table lookup(s)]\n";
  }

  table.render(std::cout);
  std::cout << "\nExpected shape (paper Table III): -6 is fastest but far above exact; -7 in between;\n"
               "-11 near exact but slower with n; Ours matches exact for small n, slightly below for\n"
               "large n (signature collisions), with runtime that scales with set size only.\n";
  std::cout << "\nNPN4 table tier: " << total_table_lookups
            << " O(1) table lookup(s) served exact canonicalization at n <= 4.\n";
  if (run_engine) {
    std::cout << "\nBatch engine (" << jobs << " thread(s), tP = parallel time, x = speedup; class\n"
                 "counts verified identical to the sequential runs):\n\n";
    parallel_table.render(std::cout);
  }
  return 0;
}

int main(int argc, char** argv) { return facet::run_main(argc, argv, run); }
