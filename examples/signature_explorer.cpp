/// signature_explorer: inspect the face and point characteristics of any
/// Boolean function, in the layout of the paper's Table I — the per-face
/// cofactor breakdown (Fig. 2a/2b), per-point local sensitivities (Fig. 2c)
/// and per-variable influences (Fig. 2d).
///
/// Usage:
///   signature_explorer --n 3 --tt e8            one function
///   signature_explorer --n 4 --tt 688d --tt 588d   compare two functions
/// With no arguments, explores the paper's f1 and f3.

#include <iostream>
#include <string>
#include <vector>

#include "facet/facet.hpp"

namespace {

using namespace facet;

void explore(const TruthTable& tt)
{
  std::cout << "function 0x" << to_hex(tt) << " (" << tt.num_vars() << " variables, |f| = "
            << tt.count_ones() << (tt.is_balanced() ? ", balanced" : "") << ")\n";

  std::cout << "  per-variable faces (cofactor counts |f_{x=0}|/|f_{x=1}|) and influences:\n";
  const auto pairs = cofactor_pairs(tt);
  for (int v = 0; v < tt.num_vars(); ++v) {
    std::cout << "    x" << (v + 1) << ": " << pairs[static_cast<std::size_t>(v)].count0 << "/"
              << pairs[static_cast<std::size_t>(v)].count1 << "  inf=" << influence(tt, v) << "\n";
  }

  const SignatureSummary s = summarize_signatures(tt);
  std::cout << "  OCV1  = " << vector_to_string(s.ocv1) << "\n";
  std::cout << "  OCV2  = " << vector_to_string(s.ocv2) << "\n";
  std::cout << "  OIV   = " << vector_to_string(s.oiv) << "\n";
  std::cout << "  OSV1  = " << vector_to_string(s.osv1_sorted) << "\n";
  std::cout << "  OSV0  = " << vector_to_string(s.osv0_sorted) << "\n";
  std::cout << "  OSV   = " << vector_to_string(s.osv_sorted) << "\n";
  std::cout << "  OSDV1 = " << vector_to_string(s.osdv1) << "\n";
  std::cout << "  OSDV  = " << vector_to_string(s.osdv) << "\n";
  std::cout << "  sen(f) = " << sensitivity(tt) << ", sen0 = " << sensitivity0(tt)
            << ", sen1 = " << sensitivity1(tt) << ", total influence = " << total_influence(tt) << "\n\n";
}

int run(const CliArgs& args, int argc, char** argv)
{
  const int n = static_cast<int>(args.get_int("n", 3));

  std::vector<TruthTable> functions;
  // Collect every --tt occurrence from the raw arguments (CliArgs keeps the
  // last one, so rescan for multi-value usage).
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--tt") {
      functions.push_back(from_hex(n, argv[i + 1]));
    }
  }
  if (functions.empty()) {
    std::cout << "(no --tt given; exploring the paper's Table I functions)\n\n";
    functions.push_back(tt_majority(3));
    functions.push_back(tt_projection(3, 2));
  }

  for (const auto& tt : functions) {
    explore(tt);
  }

  if (functions.size() == 2) {
    const auto& a = functions[0];
    const auto& b = functions[1];
    std::cout << "comparison:\n";
    const SignatureConfig all = SignatureConfig::all();
    const bool msv_equal = build_msv(a, all) == build_msv(b, all);
    std::cout << "  MSVs equal (necessary for NPN equivalence): " << (msv_equal ? "yes" : "no") << "\n";
    if (a.num_vars() == b.num_vars()) {
      const auto witness = npn_match(a, b);
      if (witness.has_value()) {
        std::cout << "  exact matcher: EQUIVALENT via " << witness->to_string() << "\n";
      } else {
        std::cout << "  exact matcher: NOT equivalent\n";
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv)
{
  return run_main(argc, argv,
                  [argc, argv](const CliArgs& args) { return run(args, argc, argv); });
}
