/// \file codesign.hpp
/// \brief Co-designed canonical form (the `testnpn -11` / Zhou TC'20 analog).
///
/// The high-accuracy baseline of Table III and the comparator of Fig. 5. A
/// canonical form is co-designed with its computation: per-variable cofactor
/// and influence keys fix most of the variable order and phases outright;
/// detected symmetric groups collapse the residual permutation space; the
/// remaining ambiguity (equal-key groups, phase-tied variables) is
/// enumerated exhaustively up to a candidate budget, taking the
/// lexicographically smallest transform image.
///
/// As in the paper's evaluation, the final exhaustive-enumeration stage of
/// [14] is *not* performed ("we modified ABC and removed this part for a
/// fair comparison"), which is exactly what the budget models: functions
/// whose ambiguity space exceeds it get a best-effort image. Every output is
/// still a true NP-transform image, so inequivalent functions never merge;
/// equivalent functions may fail to, leaving class counts slightly above
/// exact — the profile Table III reports for testnpn -11.
///
/// Runtime depends strongly on the symmetry/tie structure of each function —
/// the source of the fluctuation the paper contrasts with its own
/// signature-only classifier in Fig. 5.

#pragma once

#include <cstddef>
#include <span>

#include "facet/npn/classifier.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

struct CodesignOptions {
  /// Maximum ambiguity candidates evaluated per output polarity.
  std::size_t budget = 4096;
  /// Collapse provably symmetric variable groups to a single order.
  bool use_symmetry = true;
};

struct CodesignStats {
  /// Candidates actually evaluated (both polarities).
  std::size_t candidates = 0;
  /// True when the ambiguity space was truncated by the budget.
  bool budget_exhausted = false;
};

/// Canonical (up to budget) transform image of `tt`.
[[nodiscard]] TruthTable codesign_canonical(const TruthTable& tt, const CodesignOptions& options = {},
                                            CodesignStats* stats = nullptr);

/// Classification by co-designed canonical image.
[[nodiscard]] ClassificationResult classify_codesign(std::span<const TruthTable> funcs,
                                                     const CodesignOptions& options = {},
                                                     std::size_t num_threads = 1);

}  // namespace facet
