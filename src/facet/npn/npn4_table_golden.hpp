/// \file npn4_table_golden.hpp
/// \brief Checked-in golden hashes of the generated NPN4 norm and PN-min tables.
///
/// `tools/gen_npn4_table` emits the 64Ki-entry table into the build tree
/// together with an FNV-1a digest of every packed entry and class canonical
/// (`kNpn4TableGeneratedHash`). `npn4_table.cpp` static_asserts that digest
/// against this pinned value, so any drift in the generator — a transform
/// convention change, a different class count, a reordered permutation
/// table — fails the build (and CI) instead of silently shipping a table
/// that disagrees with history. Update this constant only together with an
/// intentional, test-verified regeneration.

#pragma once

#include <cstdint>

namespace facet {

inline constexpr std::uint64_t kNpn4GoldenTableHash = 0x5e9fd5dc829ead42ULL;

/// The same guard over the PN-min tables kPnMin1..kPnMin4 (npn4_table.hpp).
inline constexpr std::uint64_t kPnMinGoldenTableHash = 0x371cef1bc52d8664ULL;

}  // namespace facet
