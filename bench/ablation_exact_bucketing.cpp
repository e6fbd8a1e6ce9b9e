/// Ablation: the paper's closing remark — extending influence/sensitivity
/// signatures "to the traditional method to achieve exact NPN
/// classification". The exact classifier buckets functions by an invariant
/// signature vector and resolves residual collisions with a complete
/// Boolean matcher; this bench sweeps the bucket signature from face-only
/// to face+point and reports how many complete-matcher calls each
/// configuration needs (exactness is unaffected — only the work changes).
///
/// Flags: --n (default 6), --max-funcs (default 8000).

#include <iostream>

#include "facet/data/dataset.hpp"
#include "facet/npn/exact_classifier.hpp"
#include "facet/util/cli.hpp"
#include "facet/util/table.hpp"
#include "facet/util/timer.hpp"

int run(const facet::CliArgs& args)
{
  using namespace facet;
  const int n = static_cast<int>(args.get_int("n", 6));
  const std::size_t max_funcs = static_cast<std::size_t>(args.get_uint64("max-funcs", 8000));

  CircuitDatasetOptions options;
  options.max_functions = max_funcs;
  const auto funcs = make_circuit_dataset(n, options);
  std::cout << "Ablation: exact classification with different bucket signatures\n"
            << "dataset: " << funcs.size() << " circuit-derived " << n << "-variable functions\n\n";

  const std::vector<SignatureConfig> configs{
      SignatureConfig::ocv1_only(),    SignatureConfig::ocv1_ocv2_osv(), SignatureConfig::oiv_only(),
      SignatureConfig::oiv_osv(),      SignatureConfig::oiv_osv_osdv(),  SignatureConfig::all(),
  };

  AsciiTable table;
  table.set_header(
      {"bucket signature", "#classes", "buckets", "matcher calls", "wasted calls", "time (s)"});

  for (const auto& config : configs) {
    ExactClassifyStats stats;
    Stopwatch watch;
    const auto result = classify_exact(funcs, config, &stats);
    table.add_row({config.name(), std::to_string(result.num_classes), std::to_string(stats.buckets),
                   std::to_string(stats.matcher_calls),
                   std::to_string(stats.matcher_calls - stats.matcher_hits),
                   AsciiTable::to_cell(watch.seconds())});
  }

  table.render(std::cout);
  std::cout << "\nEvery row is exact (identical #classes). Successful matcher calls are inherent to\n"
               "representative-based classification; *wasted* calls (signature collision, functions\n"
               "inequivalent) are pure bucketing slack. Face+point signatures drive the slack to\n"
               "(near) zero — the paper's proposed marriage of signature classification and\n"
               "traditional exact methods.\n";
  return 0;
}

int main(int argc, char** argv) { return facet::run_main(argc, argv, run); }
