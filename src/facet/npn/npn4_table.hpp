/// \file npn4_table.hpp
/// \brief O(1) NPN classification for width <= 4: the baked 64Ki norm table.
///
/// The paper's thesis is that cheap function characteristics should resolve
/// a query before any expensive orbit search — and for n <= 4 the ultimate
/// prefilter is total: there are only 222 NPN classes over the 65,536
/// possible 16-bit truth tables, so a build-time-generated table (the
/// abc-zz `ZZ_Npn4` / `npn4_norm[f]` idiom) maps EVERY width-4 function to
/// its class index, canonical form and a witnessing transform in a single
/// array load. No canonicalizer, no memo, no cache, no binary search.
///
/// Sub-width functions (n = 0..3, constants included) are served by the
/// same table through variable replication: a 2^n-bit word repeated to 16
/// bits adds dummy top variables without changing the NPN orbit structure,
/// and because every baked canonical keeps its support on the TOP
/// contiguous variables (verified at generation time), the width-n
/// canonical reads back out of the width-4 one by sampling every
/// 2^(4-n)-th bit and the witness projects onto the live variables. One
/// table, every width <= 4.
///
/// The table is generated by `tools/gen_npn4_table` (a standalone binary
/// CMake runs before the library builds), verified at compile time against
/// the checked-in golden hash (npn4_table_golden.hpp), and exhaustively
/// re-verified against `exact_npn_canonical_walk` in tests.

#pragma once

#include <cstddef>
#include <cstdint>

#include "facet/npn/transform.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

/// Widths the norm table serves: every function with num_vars() <= 4.
inline constexpr int kNpn4MaxVars = 4;

/// Number of NPN classes at n = 4 (degenerate classes included).
inline constexpr std::size_t kNpn4NumClasses = 222;

struct Npn4Result {
  /// Canonical form of f's NPN class at f's own width (low 2^n bits) —
  /// bit-identical to exact_npn_canonical(f).
  std::uint16_t canonical_word = 0;
  /// Dense class index within f's width: [0, npn4_num_classes(n)). Ordered
  /// by ascending canonical form, so indices are stable across processes.
  std::uint16_t class_index = 0;
  /// Witness: apply_transform(f, transform) == canonical.
  NpnTransform transform;
};

/// Resolves class index, canonical form and witness of `f` (num_vars <= 4)
/// in O(1). Throws std::invalid_argument beyond width 4.
[[nodiscard]] Npn4Result npn4_lookup(const TruthTable& f);

/// NPN class count at `num_vars` <= 4: {1, 2, 4, 14, 222}.
[[nodiscard]] std::size_t npn4_num_classes(int num_vars);

/// The canonical form of class `class_index` at width `num_vars`, as a
/// TruthTable (the enumeration npn4_lookup's class_index indexes into).
[[nodiscard]] TruthTable npn4_class_canonical(int num_vars, std::size_t class_index);

/// FNV-1a digest of the baked table — equals kNpn4GoldenTableHash or the
/// library would not have compiled; exposed for runtime re-verification.
[[nodiscard]] std::uint64_t npn4_table_hash();

/// Process-global count of npn4_lookup calls (relaxed; monotonic). Lets
/// the CLI and Table III benchmark report how much width <= 4 traffic
/// resolved without ever touching a canonicalizer.
[[nodiscard]] std::uint64_t npn4_table_lookups();

/// PN-min tables, generated and hash-pinned like the norm table:
/// kPnMin<k>[g] is the least 2^k-bit table reachable from g by permuting
/// and complementing its k inputs, with no output negation. The
/// branch-and-bound canonicalizer reads them as exact bounds on blocks with
/// k free variables (exact_canon.hpp).
extern const std::uint8_t kPnMin1[4];
extern const std::uint8_t kPnMin2[16];
extern const std::uint8_t kPnMin3[256];
extern const std::uint16_t kPnMin4[65536];

/// kPnMin<k>[g] for k = 1..4; the identity at k = 0.
[[nodiscard]] inline std::uint64_t pn_min(int k, std::uint64_t g) noexcept
{
  switch (k) {
    case 1:
      return kPnMin1[g];
    case 2:
      return kPnMin2[g];
    case 3:
      return kPnMin3[g];
    case 4:
      return kPnMin4[g];
    default:
      return g;
  }
}

}  // namespace facet
