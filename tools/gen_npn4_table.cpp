/// \file gen_npn4_table.cpp
/// \brief Build-time generator of the 64Ki-entry NPN4 norm table.
///
/// Emits `npn4_table_data.inc`: for every 16-bit truth table, the dense
/// index of its NPN class (222 classes at n = 4), plus a witnessing
/// transform packed into one uint32 — the abc-zz `ZZ_Npn4` idiom, where one
/// array load replaces the whole canonicalization search for width <= 4.
///
/// This tool is deliberately standalone (no facet link): the facet library
/// itself compiles the generated table into `npn/npn4_table.cpp`, so the
/// generator must be buildable first. The 16-bit transform application and
/// inversion below mirror the documented facet semantics exactly
/// (src/facet/npn/transform.hpp):
///
///   g(X) = output_neg XOR f(Y),   Y_i = X_{perm[i]} XOR input_neg_i
///
/// and the emitted witnesses satisfy apply(word, witness) == canonical of
/// its class — self-checked here, and exhaustively re-verified against the
/// library's `exact_npn_canonical_walk` oracle in tests/npn4_table_test.cpp.
///
/// It also emits `pn_min_table_data.inc`: for k = 1..4, kPnMin<k>[g] is the
/// least 2^k-bit table reachable from g by permuting and complementing its
/// k inputs (no output negation) — the exact bound the branch-and-bound
/// canonicalizer (npn/exact_canon.cpp) puts on a block with k free
/// variables. Each table is the orbit closure of an ascending sweep under
/// the k input flips and k - 1 adjacent swaps, cross-checked at k = 4
/// against the NPN4 classes: min(pn_min(g), pn_min(~g)) is g's canonical.
///
/// Usage: gen_npn4_table <npn4_table_data.inc> <pn_min_table_data.inc>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <vector>

namespace {

constexpr int kNumVars = 4;
constexpr std::size_t kTableSize = 1u << (1u << kNumVars);  // 65536
constexpr std::size_t kNumPerms = 24;

using Perm = std::array<std::uint8_t, kNumVars>;

/// g(X) = out ^ f(Y), Y_i = X_{perm[i]} ^ neg_i — the facet convention.
std::uint16_t apply16(std::uint16_t f, const Perm& perm, unsigned neg, unsigned out)
{
  std::uint16_t g = 0;
  for (unsigned x = 0; x < 16; ++x) {
    unsigned y = 0;
    for (int i = 0; i < kNumVars; ++i) {
      const unsigned bit = (x >> perm[static_cast<std::size_t>(i)]) & 1u;
      y |= (bit ^ ((neg >> i) & 1u)) << i;
    }
    g |= static_cast<std::uint16_t>((((f >> y) & 1u) ^ out) << x);
  }
  return g;
}

/// inverse: q[p[i]] = i, neg'_{p[i]} = neg_i, out' = out (transform.cpp).
void invert(const Perm& perm, unsigned neg, Perm& inv_perm, unsigned& inv_neg)
{
  inv_neg = 0;
  for (int i = 0; i < kNumVars; ++i) {
    const std::uint8_t pi = perm[static_cast<std::size_t>(i)];
    inv_perm[pi] = static_cast<std::uint8_t>(i);
    inv_neg |= ((neg >> i) & 1u) << pi;
  }
}

int support_size(std::uint16_t f)
{
  int s = 0;
  for (int v = 0; v < kNumVars; ++v) {
    // f depends on v iff complementing v changes the table.
    std::uint16_t flipped = 0;
    for (unsigned x = 0; x < 16; ++x) {
      flipped |= static_cast<std::uint16_t>(((f >> (x ^ (1u << v))) & 1u) << x);
    }
    if (flipped != f) {
      ++s;
    }
  }
  return s;
}

/// Does `f` depend on variable `v`?
bool depends_on(std::uint16_t f, int v)
{
  std::uint16_t flipped = 0;
  for (unsigned x = 0; x < 16; ++x) {
    flipped |= static_cast<std::uint16_t>(((f >> (x ^ (1u << v))) & 1u) << x);
  }
  return flipped != f;
}

std::uint64_t fnv1a(std::uint64_t hash, const unsigned char* data, std::size_t size)
{
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Bits of a 16-bit table where input v is 1 (v < 4).
constexpr std::array<std::uint16_t, kNumVars> kVarMask16 = {0xAAAA, 0xCCCC, 0xF0F0, 0xFF00};

/// Complements input v of a 2^k-bit table (k <= 4, v < k).
std::uint16_t flip16(std::uint16_t g, int v, std::uint16_t table_mask)
{
  const int shift = 1 << v;
  const std::uint16_t hi = kVarMask16[static_cast<std::size_t>(v)];
  return static_cast<std::uint16_t>((((g & hi) >> shift) | ((g & ~hi) << shift)) & table_mask);
}

/// Exchanges inputs v and v + 1 of a 2^k-bit table (k <= 4, v + 1 < k).
std::uint16_t swap_adjacent16(std::uint16_t g, int v)
{
  // Minterms with x_v = 1, x_{v+1} = 0 trade places with x_v = 0, x_{v+1} = 1,
  // which sit 2^v positions higher.
  const int shift = 1 << v;
  const auto low = static_cast<std::uint16_t>(kVarMask16[static_cast<std::size_t>(v)] &
                                              ~kVarMask16[static_cast<std::size_t>(v + 1)]);
  const auto t = static_cast<std::uint16_t>(((g >> shift) ^ g) & low);
  return static_cast<std::uint16_t>(g ^ t ^ (t << shift));
}

/// kPnMin<k> by an ascending sweep: the first unvisited word is the least of
/// its PN orbit, so the orbit's closure under the generator moves is
/// labelled with it.
std::vector<std::uint16_t> pn_min_table(int k)
{
  const std::size_t size = std::size_t{1} << (1u << k);
  const auto table_mask = static_cast<std::uint16_t>(size - 1);
  std::vector<std::uint16_t> least(size);
  std::vector<bool> seen(size, false);
  std::vector<std::uint16_t> frontier;
  for (std::size_t w = 0; w < size; ++w) {
    if (seen[w]) {
      continue;
    }
    const auto root = static_cast<std::uint16_t>(w);
    seen[w] = true;
    frontier.assign(1, root);
    while (!frontier.empty()) {
      const std::uint16_t g = frontier.back();
      frontier.pop_back();
      least[g] = root;
      for (int v = 0; v < k; ++v) {
        for (const std::uint16_t next :
             {flip16(g, v, table_mask), v + 1 < k ? swap_adjacent16(g, v) : g}) {
          if (!seen[next]) {
            seen[next] = true;
            frontier.push_back(next);
          }
        }
      }
    }
  }
  return least;
}

/// Self-check of one kPnMin table: idempotent, never above its argument,
/// and constant along every generator move.
bool pn_min_table_ok(const std::vector<std::uint16_t>& least, int k)
{
  const auto table_mask = static_cast<std::uint16_t>(least.size() - 1);
  for (std::size_t w = 0; w < least.size(); ++w) {
    const auto g = static_cast<std::uint16_t>(w);
    if (least[g] > g || least[least[g]] != least[g]) {
      return false;
    }
    for (int v = 0; v < k; ++v) {
      if (least[flip16(g, v, table_mask)] != least[g] ||
          (v + 1 < k && least[swap_adjacent16(g, v)] != least[g])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv)
{
  if (argc != 3) {
    std::fprintf(stderr, "usage: gen_npn4_table <npn4_table_data.inc> <pn_min_table_data.inc>\n");
    return 2;
  }

  // The 24 permutations of {0,1,2,3} in std::next_permutation order — the
  // same order npn4_table.cpp uses to unpack perm indices.
  std::vector<Perm> perms;
  Perm p{};
  std::iota(p.begin(), p.end(), std::uint8_t{0});
  do {
    perms.push_back(p);
  } while (std::next_permutation(p.begin(), p.end()));
  if (perms.size() != kNumPerms) {
    std::fprintf(stderr, "gen_npn4_table: expected 24 permutations, got %zu\n", perms.size());
    return 1;
  }
  const auto perm_index = [&perms](const Perm& q) -> std::size_t {
    for (std::size_t i = 0; i < perms.size(); ++i) {
      if (perms[i] == q) {
        return i;
      }
    }
    return kNumPerms;  // unreachable for a valid permutation
  };

  // Orbit sweep, ascending: the smallest unassigned word is the canonical
  // form of a new class (uint16 order == the library's lexicographic
  // TruthTable order for single-word tables), and every image it reaches
  // under the 768 transforms records the INVERSE transform as its witness:
  // apply(image, witness) == canonical.
  std::vector<std::int32_t> class_of(kTableSize, -1);
  std::vector<std::uint32_t> packed(kTableSize, 0);
  std::vector<std::uint16_t> canonicals;

  for (std::uint32_t w = 0; w < kTableSize; ++w) {
    if (class_of[w] >= 0) {
      continue;
    }
    const auto canonical = static_cast<std::uint16_t>(w);
    const auto class_index = static_cast<std::uint32_t>(canonicals.size());
    canonicals.push_back(canonical);
    for (std::size_t pi = 0; pi < perms.size(); ++pi) {
      for (unsigned neg = 0; neg < 16; ++neg) {
        for (unsigned out = 0; out < 2; ++out) {
          const std::uint16_t image = apply16(canonical, perms[pi], neg, out);
          if (class_of[image] >= 0) {
            continue;
          }
          Perm inv_perm{};
          unsigned inv_neg = 0;
          invert(perms[pi], neg, inv_perm, inv_neg);
          class_of[image] = static_cast<std::int32_t>(class_index);
          packed[image] = class_index | static_cast<std::uint32_t>(perm_index(inv_perm)) << 8 |
                          inv_neg << 16 | out << 20;
        }
      }
    }
  }

  if (canonicals.size() != 222) {
    std::fprintf(stderr, "gen_npn4_table: expected 222 NPN classes at n=4, got %zu\n",
                 canonicals.size());
    return 1;
  }

  // Self-checks before anything is written.
  for (std::uint32_t w = 0; w < kTableSize; ++w) {
    const std::uint32_t entry = packed[w];
    const std::uint16_t canonical = canonicals[entry & 0xFF];
    const Perm& wp = perms[(entry >> 8) & 0x1F];
    const std::uint16_t mapped =
        apply16(static_cast<std::uint16_t>(w), wp, (entry >> 16) & 0xF, (entry >> 20) & 0x1);
    if (mapped != canonical) {
      std::fprintf(stderr, "gen_npn4_table: witness of 0x%04x does not map to its canonical\n", w);
      return 1;
    }
    if (canonical > w) {
      std::fprintf(stderr, "gen_npn4_table: canonical 0x%04x exceeds orbit member 0x%04x\n",
                   canonical, w);
      return 1;
    }
  }
  // Sub-width embedding invariant: every canonical's support occupies the
  // TOP contiguous variables, so a width-w slice (w >= support size) reads
  // off by sampling every 2^(4-w)-th bit (npn4_table.cpp's unstretch).
  for (const std::uint16_t canonical : canonicals) {
    const int s = support_size(canonical);
    for (int v = 0; v < kNumVars; ++v) {
      const bool expected = v >= kNumVars - s;
      if (depends_on(canonical, v) != expected) {
        std::fprintf(stderr,
                     "gen_npn4_table: canonical 0x%04x (support %d) depends on var %d "
                     "but its support must be the top %d variables\n",
                     canonical, s, v, s);
        return 1;
      }
    }
  }

  // FNV-1a over the packed entries then the class canonicals, both as
  // little-endian bytes — the drift guard pinned in npn4_table_golden.hpp.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint32_t entry : packed) {
    const unsigned char bytes[4] = {
        static_cast<unsigned char>(entry & 0xFF), static_cast<unsigned char>((entry >> 8) & 0xFF),
        static_cast<unsigned char>((entry >> 16) & 0xFF),
        static_cast<unsigned char>((entry >> 24) & 0xFF)};
    hash = fnv1a(hash, bytes, sizeof bytes);
  }
  for (const std::uint16_t canonical : canonicals) {
    const unsigned char bytes[2] = {static_cast<unsigned char>(canonical & 0xFF),
                                    static_cast<unsigned char>((canonical >> 8) & 0xFF)};
    hash = fnv1a(hash, bytes, sizeof bytes);
  }

  // PN-minimum tables, k = 1..4 (index k - 1), checked before writing.
  std::array<std::vector<std::uint16_t>, kNumVars> pn_min;
  for (int k = 1; k <= kNumVars; ++k) {
    pn_min[static_cast<std::size_t>(k - 1)] = pn_min_table(k);
    if (!pn_min_table_ok(pn_min[static_cast<std::size_t>(k - 1)], k)) {
      std::fprintf(stderr, "gen_npn4_table: PN-min table at k=%d is not an orbit minimum\n", k);
      return 1;
    }
  }
  const std::vector<std::uint16_t>& least4 = pn_min[kNumVars - 1];
  for (std::uint32_t w = 0; w < kTableSize; ++w) {
    const std::uint16_t npn_least = std::min(least4[w], least4[w ^ 0xFFFF]);
    if (npn_least != canonicals[packed[w] & 0xFF]) {
      std::fprintf(stderr, "gen_npn4_table: PN-min of 0x%04x disagrees with its NPN class\n", w);
      return 1;
    }
  }
  // FNV-1a over the four tables, k = 1..4, entries as little-endian bytes
  // (one byte each below k = 4): the golden kPnMinGoldenTableHash.
  std::uint64_t pn_hash = 0xcbf29ce484222325ULL;
  for (int k = 1; k <= kNumVars; ++k) {
    for (const std::uint16_t entry : pn_min[static_cast<std::size_t>(k - 1)]) {
      const unsigned char bytes[2] = {static_cast<unsigned char>(entry & 0xFF),
                                      static_cast<unsigned char>((entry >> 8) & 0xFF)};
      pn_hash = fnv1a(pn_hash, bytes, k == kNumVars ? 2 : 1);
    }
  }

  std::ofstream out{argv[1]};
  if (!out) {
    std::fprintf(stderr, "gen_npn4_table: cannot open '%s' for writing\n", argv[1]);
    return 1;
  }
  out << "// npn4_table_data.inc — generated by tools/gen_npn4_table. Do not edit.\n"
         "// entry = class_index | perm_index << 8 | input_neg << 16 | output_neg << 20\n"
         "// where perm_index selects from the 24 permutations of {0,1,2,3} in\n"
         "// std::next_permutation order and the witness maps the word onto its\n"
         "// class canonical: apply(word, witness) == kNpn4ClassCanonical[class_index].\n"
         "inline constexpr std::uint32_t kNpn4NormPacked[65536] = {\n";
  char buf[24];
  for (std::size_t i = 0; i < packed.size(); ++i) {
    std::snprintf(buf, sizeof buf, "0x%06x,", packed[i]);
    out << buf << ((i % 8 == 7) ? "\n" : "");
  }
  out << "};\n\ninline constexpr std::uint16_t kNpn4ClassCanonical[222] = {\n";
  for (std::size_t i = 0; i < canonicals.size(); ++i) {
    std::snprintf(buf, sizeof buf, "0x%04x,", canonicals[i]);
    out << buf << ((i % 8 == 7) ? "\n" : "");
  }
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(hash));
  out << "};\n\ninline constexpr std::uint64_t kNpn4TableGeneratedHash = 0x" << buf << "ULL;\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "gen_npn4_table: write to '%s' failed\n", argv[1]);
    return 1;
  }

  std::ofstream pn_out{argv[2]};
  if (!pn_out) {
    std::fprintf(stderr, "gen_npn4_table: cannot open '%s' for writing\n", argv[2]);
    return 1;
  }
  pn_out << "// pn_min_table_data.inc — generated by tools/gen_npn4_table. Do not edit.\n"
            "// kPnMin<k>[g]: the least 2^k-bit table reachable from g by permuting and\n"
            "// complementing its k inputs.\n";
  for (int k = 1; k <= kNumVars; ++k) {
    const std::vector<std::uint16_t>& least = pn_min[static_cast<std::size_t>(k - 1)];
    pn_out << "const std::" << (k == kNumVars ? "uint16_t" : "uint8_t") << " kPnMin" << k << "["
           << least.size() << "] = {\n";
    for (std::size_t i = 0; i < least.size(); ++i) {
      std::snprintf(buf, sizeof buf, k == kNumVars ? "0x%04x," : "0x%02x,", least[i]);
      pn_out << buf << ((i % 8 == 7 || i + 1 == least.size()) ? "\n" : "");
    }
    pn_out << "};\n\n";
  }
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(pn_hash));
  pn_out << "constexpr std::uint64_t kPnMinTableGeneratedHash = 0x" << buf << "ULL;\n";
  pn_out.close();
  if (!pn_out) {
    std::fprintf(stderr, "gen_npn4_table: write to '%s' failed\n", argv[2]);
    return 1;
  }
  return 0;
}
