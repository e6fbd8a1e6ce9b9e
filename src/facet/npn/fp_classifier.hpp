/// \file fp_classifier.hpp
/// \brief The paper's NPN classifier (Algorithm 1): face + point signatures,
///        then a hash — no transformation enumeration.
///
/// For each truth table the classifier computes the configured signature
/// vectors (OCV1, OCV2, OIV, OSV, OSDV by default), concatenates them into
/// the Mixed Signature Vector and groups functions by MSV equality. Because
/// every signature is an NPN invariant (Theorems 1-4), the classifier never
/// splits an equivalence class; signature collisions between inequivalent
/// functions can merge classes, which is the accuracy gap Tables II/III
/// measure (exact through n = 7 on the paper's sets, slightly under from
/// n = 8).
///
/// Runtime is signature computation plus hashing only — linear in the number
/// of functions with a per-function cost depending only on n, which is the
/// stable-runtime property of Fig. 5.

#pragma once

#include <cstddef>
#include <span>

#include "facet/npn/classifier.hpp"
#include "facet/sig/msv.hpp"

namespace facet {

/// Classifies by MSV equality under `config` (default: all signatures, the
/// paper's full classifier). Classes are keyed on the full MSV, so hash
/// collisions cannot merge classes; use this variant wherever class counts
/// feed an accuracy comparison.
[[nodiscard]] ClassificationResult classify_fp(std::span<const TruthTable> funcs,
                                               const SignatureConfig& config = SignatureConfig::all(),
                                               std::size_t num_threads = 1);

/// Algorithm 1's literal "class <- hash(MSV)" step: classes keyed on a
/// 128-bit hash of the MSV. Constant-size keys keep the class map compact
/// and cache-friendly at millions of functions (the Fig. 5 regime); a
/// collision would need ~2^64 classes to become likely.
[[nodiscard]] ClassificationResult classify_fp_hashed(std::span<const TruthTable> funcs,
                                                      const SignatureConfig& config = SignatureConfig::all(),
                                                      std::size_t num_threads = 1);

}  // namespace facet
