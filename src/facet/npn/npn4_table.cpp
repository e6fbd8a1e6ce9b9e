#include "facet/npn/npn4_table.hpp"

#include <array>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include "facet/npn/npn4_table_golden.hpp"

namespace facet {
namespace {

// The generated artifact (build tree): kNpn4NormPacked[65536],
// kNpn4ClassCanonical[222], kNpn4TableGeneratedHash.
#include "facet/npn/npn4_table_data.inc"

static_assert(sizeof(kNpn4NormPacked) / sizeof(kNpn4NormPacked[0]) == 65536);
static_assert(sizeof(kNpn4ClassCanonical) / sizeof(kNpn4ClassCanonical[0]) == kNpn4NumClasses);
// The drift guard: a regenerated table that disagrees with the checked-in
// golden hash refuses to compile (see npn4_table_golden.hpp).
static_assert(kNpn4TableGeneratedHash == kNpn4GoldenTableHash,
              "generated NPN4 table drifted from the checked-in golden hash");

/// The 24 permutations of {0,1,2,3} in std::next_permutation order — the
/// order gen_npn4_table packs perm indices in.
constexpr std::array<std::array<std::uint8_t, 4>, 24> kPerm4 = {{
    {0, 1, 2, 3}, {0, 1, 3, 2}, {0, 2, 1, 3}, {0, 2, 3, 1}, {0, 3, 1, 2}, {0, 3, 2, 1},
    {1, 0, 2, 3}, {1, 0, 3, 2}, {1, 2, 0, 3}, {1, 2, 3, 0}, {1, 3, 0, 2}, {1, 3, 2, 0},
    {2, 0, 1, 3}, {2, 0, 3, 1}, {2, 1, 0, 3}, {2, 1, 3, 0}, {2, 3, 0, 1}, {2, 3, 1, 0},
    {3, 0, 1, 2}, {3, 0, 2, 1}, {3, 1, 0, 2}, {3, 1, 2, 0}, {3, 2, 0, 1}, {3, 2, 1, 0},
}};

std::atomic<std::uint64_t> g_lookups{0};

/// Does the 16-bit table depend on variable `v`?
bool depends_on16(std::uint16_t f, int v)
{
  std::uint16_t flipped = 0;
  for (unsigned x = 0; x < 16; ++x) {
    flipped |= static_cast<std::uint16_t>(((f >> (x ^ (1u << v))) & 1u) << x);
  }
  return flipped != f;
}

/// Per-width projections of the class list: which width-4 classes arise at
/// width w (those whose canonical's support fits in w variables), and the
/// dense width-w index of each. Built once; ascending width-4 canonical
/// order restricted to a width is ascending width-w canonical order, since
/// the bit-replication stretch is strictly monotone.
struct WidthTables {
  std::array<std::vector<std::uint16_t>, kNpn4MaxVars + 1> classes;  // width -> class4 indices
  std::array<std::array<std::int16_t, kNpn4NumClasses>, kNpn4MaxVars + 1> dense{};
};

const WidthTables& width_tables()
{
  static const WidthTables tables = [] {
    WidthTables t;
    for (auto& d : t.dense) {
      d.fill(-1);
    }
    for (std::size_t ci = 0; ci < kNpn4NumClasses; ++ci) {
      int support = 0;
      for (int v = 0; v < kNpn4MaxVars; ++v) {
        support += depends_on16(kNpn4ClassCanonical[ci], v) ? 1 : 0;
      }
      for (int w = support; w <= kNpn4MaxVars; ++w) {
        t.dense[static_cast<std::size_t>(w)][ci] = static_cast<std::int16_t>(
            t.classes[static_cast<std::size_t>(w)].size());
        t.classes[static_cast<std::size_t>(w)].push_back(static_cast<std::uint16_t>(ci));
      }
    }
    return t;
  }();
  return tables;
}

void require_table_width(int num_vars, const char* who)
{
  if (num_vars < 0 || num_vars > kNpn4MaxVars) {
    std::string message{who};
    message.append(": the NPN4 table serves widths 0..4 only");
    throw std::invalid_argument(message);
  }
}

}  // namespace

Npn4Result npn4_lookup(const TruthTable& f)
{
  const int n = f.num_vars();
  require_table_width(n, "npn4_lookup");
  g_lookups.fetch_add(1, std::memory_order_relaxed);

  // Replicate to 16 bits: each doubling adds one dummy top variable, so the
  // word indexes the full-width table without changing the orbit structure.
  auto word = static_cast<std::uint16_t>(f.word(0));
  for (int w = n; w < kNpn4MaxVars; ++w) {
    word |= static_cast<std::uint16_t>(word << (1u << w));
  }

  const std::uint32_t entry = kNpn4NormPacked[word];
  const std::size_t class4 = entry & 0xFF;
  const std::uint16_t canonical16 = kNpn4ClassCanonical[class4];
  const auto& perm4 = kPerm4[(entry >> 8) & 0x1F];
  const std::uint32_t neg4 = (entry >> 16) & 0xF;

  Npn4Result result;
  result.class_index =
      static_cast<std::uint16_t>(width_tables().dense[static_cast<std::size_t>(n)][class4]);

  // Unstretch: the canonical's support sits on the TOP variables (generator
  // invariant), so the width-n form reads off every 2^(4-n)-th bit.
  const int shift = kNpn4MaxVars - n;
  std::uint16_t canonical = 0;
  for (unsigned j = 0; j < (1u << n); ++j) {
    canonical |= static_cast<std::uint16_t>(((canonical16 >> (j << shift)) & 1u) << j);
  }
  result.canonical_word = canonical;

  // Project the width-4 witness onto the live variables: inputs fed by a
  // surviving variable (>= shift) keep their wire and phase; inputs fed by
  // a dropped dummy are vacuous for f and fill the unused slots in order.
  NpnTransform t;
  t.num_vars = n;
  t.output_neg = ((entry >> 20) & 0x1) != 0;
  std::array<bool, kNpn4MaxVars> used{};
  for (int i = 0; i < n; ++i) {
    const int p = perm4[static_cast<std::size_t>(i)];
    if (p >= shift) {
      t.perm[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(p - shift);
      used[static_cast<std::size_t>(p - shift)] = true;
      t.input_neg |= ((neg4 >> i) & 1u) << i;
    } else {
      t.perm[static_cast<std::size_t>(i)] = 0xFF;
    }
  }
  for (int i = 0, next = 0; i < n; ++i) {
    if (t.perm[static_cast<std::size_t>(i)] == 0xFF) {
      while (used[static_cast<std::size_t>(next)]) {
        ++next;
      }
      t.perm[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(next);
      used[static_cast<std::size_t>(next)] = true;
    }
  }
  result.transform = t;
  return result;
}

std::size_t npn4_num_classes(int num_vars)
{
  require_table_width(num_vars, "npn4_num_classes");
  return width_tables().classes[static_cast<std::size_t>(num_vars)].size();
}

TruthTable npn4_class_canonical(int num_vars, std::size_t class_index)
{
  require_table_width(num_vars, "npn4_class_canonical");
  const auto& classes = width_tables().classes[static_cast<std::size_t>(num_vars)];
  if (class_index >= classes.size()) {
    throw std::out_of_range("npn4_class_canonical: class index out of range");
  }
  const std::uint16_t canonical16 = kNpn4ClassCanonical[classes[class_index]];
  const int shift = kNpn4MaxVars - num_vars;
  std::uint64_t bits = 0;
  for (unsigned j = 0; j < (1u << num_vars); ++j) {
    bits |= static_cast<std::uint64_t>((canonical16 >> (j << shift)) & 1u) << j;
  }
  return TruthTable::from_word(num_vars, bits);
}

// The generated kPnMin1..kPnMin4 and kPnMinTableGeneratedHash.
#include "facet/npn/pn_min_table_data.inc"

static_assert(kPnMinTableGeneratedHash == kPnMinGoldenTableHash,
              "generated PN-min tables drifted from the checked-in golden hash");

std::uint64_t npn4_table_hash() { return kNpn4TableGeneratedHash; }

std::uint64_t npn4_table_lookups() { return g_lookups.load(std::memory_order_relaxed); }

}  // namespace facet
