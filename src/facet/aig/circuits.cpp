#include "facet/aig/circuits.hpp"

#include <bit>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace facet {

namespace {

using Lit = Aig::Literal;

/// Half adder / full adder helpers shared by the arithmetic generators.
struct SumCarry {
  Lit sum;
  Lit carry;
};

[[nodiscard]] SumCarry full_adder(Aig& aig, Lit a, Lit b, Lit cin)
{
  const Lit axb = aig.add_xor(a, b);
  const Lit sum = aig.add_xor(axb, cin);
  const Lit carry = aig.add_or(aig.add_and(a, b), aig.add_and(axb, cin));
  return {sum, carry};
}

/// Popcount tree: returns the binary count of the set literals.
[[nodiscard]] std::vector<Lit> popcount_tree(Aig& aig, std::vector<Lit> bits)
{
  // Repeatedly reduce triples with full adders (carry-save 3:2 counters),
  // then combine the per-weight columns ripple-style.
  std::vector<std::vector<Lit>> columns{std::move(bits)};
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t w = 0; w < columns.size(); ++w) {
      while (columns[w].size() >= 3) {
        const Lit a = columns[w][columns[w].size() - 1];
        const Lit b = columns[w][columns[w].size() - 2];
        const Lit c = columns[w][columns[w].size() - 3];
        columns[w].resize(columns[w].size() - 3);
        const auto fa = full_adder(aig, a, b, c);
        columns[w].push_back(fa.sum);
        if (w + 1 == columns.size()) {
          columns.emplace_back();
        }
        columns[w + 1].push_back(fa.carry);
        changed = true;
      }
      if (columns[w].size() == 2) {
        const Lit a = columns[w][0];
        const Lit b = columns[w][1];
        columns[w].clear();
        columns[w].push_back(aig.add_xor(a, b));
        if (w + 1 == columns.size()) {
          columns.emplace_back();
        }
        columns[w + 1].push_back(aig.add_and(a, b));
        changed = true;
      }
    }
  }
  std::vector<Lit> result;
  result.reserve(columns.size());
  for (auto& col : columns) {
    result.push_back(col.empty() ? Aig::kFalse : col[0]);
  }
  return result;
}

/// Unsigned a >= k comparator for a constant threshold.
[[nodiscard]] Lit compare_ge_const(Aig& aig, const std::vector<Lit>& value, unsigned threshold)
{
  // ge(i): compare from MSB down; at each bit either the value bit exceeds
  // the threshold bit, or they are equal and the lower bits decide.
  Lit ge = Aig::kTrue;  // equal so far => value == threshold => ge
  for (std::size_t i = 0; i < value.size(); ++i) {
    const bool tbit = ((threshold >> i) & 1u) != 0;
    const Lit v = value[i];
    if (tbit) {
      ge = aig.add_and(v, ge);
    } else {
      ge = aig.add_or(v, ge);
    }
  }
  return ge;
}

/// "<prefix><index>", e.g. "a3". Built by appending: GCC 12 reports a
/// spurious -Wrestrict on an inlined `"lit" + std::string`.
std::string numbered(const char* prefix, std::size_t index)
{
  std::string name{prefix};
  name += std::to_string(index);
  return name;
}

}  // namespace

Aig make_adder(int width)
{
  if (width < 1) {
    throw std::invalid_argument("make_adder: width must be positive");
  }
  Aig aig;
  std::vector<Lit> a(width), b(width);
  for (int i = 0; i < width; ++i) {
    a[i] = aig.add_input(numbered("a", i));
  }
  for (int i = 0; i < width; ++i) {
    b[i] = aig.add_input(numbered("b", i));
  }
  Lit carry = Aig::kFalse;
  for (int i = 0; i < width; ++i) {
    const auto fa = full_adder(aig, a[i], b[i], carry);
    aig.add_output(fa.sum, numbered("s", i));
    carry = fa.carry;
  }
  aig.add_output(carry, "cout");
  return aig;
}

Aig make_multiplier(int width)
{
  if (width < 1) {
    throw std::invalid_argument("make_multiplier: width must be positive");
  }
  Aig aig;
  std::vector<Lit> a(width), b(width);
  for (int i = 0; i < width; ++i) {
    a[i] = aig.add_input(numbered("a", i));
  }
  for (int i = 0; i < width; ++i) {
    b[i] = aig.add_input(numbered("b", i));
  }
  // Partial-product columns, reduced with full adders.
  std::vector<std::vector<Lit>> columns(static_cast<std::size_t>(2 * width), std::vector<Lit>{});
  for (int i = 0; i < width; ++i) {
    for (int j = 0; j < width; ++j) {
      columns[static_cast<std::size_t>(i + j)].push_back(aig.add_and(a[i], b[j]));
    }
  }
  Lit carry = Aig::kFalse;
  for (std::size_t w = 0; w < columns.size(); ++w) {
    std::vector<Lit>& col = columns[w];
    col.push_back(carry);
    // Reduce the column to one sum bit, pushing carries into the next.
    while (col.size() > 1) {
      if (col.size() == 2) {
        const Lit s = aig.add_xor(col[0], col[1]);
        const Lit c = aig.add_and(col[0], col[1]);
        col = {s};
        if (w + 1 < columns.size()) {
          columns[w + 1].push_back(c);
        }
      } else {
        const auto fa = full_adder(aig, col[col.size() - 1], col[col.size() - 2], col[col.size() - 3]);
        col.resize(col.size() - 3);
        col.push_back(fa.sum);
        if (w + 1 < columns.size()) {
          columns[w + 1].push_back(fa.carry);
        }
      }
    }
    aig.add_output(col.empty() ? Aig::kFalse : col[0], numbered("p", w));
    carry = Aig::kFalse;
  }
  return aig;
}

Aig make_barrel_shifter(int width)
{
  if (width < 2 || (width & (width - 1)) != 0) {
    throw std::invalid_argument("make_barrel_shifter: width must be a power of two >= 2");
  }
  const int stages = std::bit_width(static_cast<unsigned>(width)) - 1;
  Aig aig;
  std::vector<Lit> data(width);
  for (int i = 0; i < width; ++i) {
    data[i] = aig.add_input(numbered("d", i));
  }
  std::vector<Lit> shift(stages);
  for (int s = 0; s < stages; ++s) {
    shift[s] = aig.add_input(numbered("s", s));
  }
  for (int s = 0; s < stages; ++s) {
    const int amount = 1 << s;
    std::vector<Lit> next(width);
    for (int i = 0; i < width; ++i) {
      const Lit shifted = i >= amount ? data[i - amount] : Aig::kFalse;
      next[i] = aig.add_mux(shift[s], shifted, data[i]);
    }
    data = std::move(next);
  }
  for (int i = 0; i < width; ++i) {
    aig.add_output(data[i], numbered("q", i));
  }
  return aig;
}

Aig make_max(int width)
{
  if (width < 1) {
    throw std::invalid_argument("make_max: width must be positive");
  }
  Aig aig;
  std::vector<Lit> a(width), b(width);
  for (int i = 0; i < width; ++i) {
    a[i] = aig.add_input(numbered("a", i));
  }
  for (int i = 0; i < width; ++i) {
    b[i] = aig.add_input(numbered("b", i));
  }
  // a > b from MSB down.
  Lit gt = Aig::kFalse;
  Lit eq = Aig::kTrue;
  for (int i = width - 1; i >= 0; --i) {
    const Lit ai_gt_bi = aig.add_and(a[i], Aig::literal_not(b[i]));
    gt = aig.add_or(gt, aig.add_and(eq, ai_gt_bi));
    eq = aig.add_and(eq, Aig::literal_not(aig.add_xor(a[i], b[i])));
  }
  for (int i = 0; i < width; ++i) {
    aig.add_output(aig.add_mux(gt, a[i], b[i]), numbered("m", i));
  }
  aig.add_output(gt, "a_gt_b");
  return aig;
}

Aig make_voter(int num_inputs)
{
  if (num_inputs < 1 || num_inputs % 2 == 0) {
    throw std::invalid_argument("make_voter: requires an odd number of inputs");
  }
  Aig aig;
  std::vector<Lit> in(num_inputs);
  for (int i = 0; i < num_inputs; ++i) {
    in[i] = aig.add_input();
  }
  const auto count = popcount_tree(aig, in);
  aig.add_output(compare_ge_const(aig, count, static_cast<unsigned>(num_inputs / 2 + 1)), "maj");
  return aig;
}

Aig make_decoder(int select_width)
{
  if (select_width < 1) {
    throw std::invalid_argument("make_decoder: select width must be positive");
  }
  Aig aig;
  std::vector<Lit> sel(select_width);
  for (int s = 0; s < select_width; ++s) {
    sel[s] = aig.add_input();
  }
  const int lines = 1 << select_width;
  for (int v = 0; v < lines; ++v) {
    Lit line = Aig::kTrue;
    for (int s = 0; s < select_width; ++s) {
      const Lit bit = ((v >> s) & 1) ? sel[s] : Aig::literal_not(sel[s]);
      line = aig.add_and(line, bit);
    }
    aig.add_output(line, numbered("y", v));
  }
  return aig;
}

Aig make_priority(int width)
{
  if (width < 2) {
    throw std::invalid_argument("make_priority: width must be >= 2");
  }
  Aig aig;
  std::vector<Lit> req(width);
  for (int i = 0; i < width; ++i) {
    req[i] = aig.add_input();
  }
  const int index_bits = std::bit_width(static_cast<unsigned>(width - 1));
  // grant[i] = req[i] AND none of the higher-priority (lower-index) requests.
  Lit none_before = Aig::kTrue;
  std::vector<Lit> index(index_bits, Aig::kFalse);
  Lit valid = Aig::kFalse;
  for (int i = 0; i < width; ++i) {
    const Lit grant = aig.add_and(req[i], none_before);
    for (int b = 0; b < index_bits; ++b) {
      if ((i >> b) & 1) {
        index[b] = aig.add_or(index[b], grant);
      }
    }
    valid = aig.add_or(valid, grant);
    none_before = aig.add_and(none_before, Aig::literal_not(req[i]));
  }
  for (int b = 0; b < index_bits; ++b) {
    aig.add_output(index[b], numbered("idx", b));
  }
  aig.add_output(valid, "valid");
  return aig;
}

Aig make_parity(int width)
{
  if (width < 1) {
    throw std::invalid_argument("make_parity: width must be positive");
  }
  Aig aig;
  Lit acc = Aig::kFalse;
  std::vector<Lit> in(width);
  for (int i = 0; i < width; ++i) {
    in[i] = aig.add_input();
  }
  for (int i = 0; i < width; ++i) {
    acc = aig.add_xor(acc, in[i]);
  }
  aig.add_output(acc, "parity");
  return aig;
}

Aig make_mux_tree(int select_width)
{
  if (select_width < 1) {
    throw std::invalid_argument("make_mux_tree: select width must be positive");
  }
  Aig aig;
  std::vector<Lit> sel(select_width);
  for (int s = 0; s < select_width; ++s) {
    sel[s] = aig.add_input(numbered("s", s));
  }
  const int leaves = 1 << select_width;
  std::vector<Lit> data(leaves);
  for (int i = 0; i < leaves; ++i) {
    data[i] = aig.add_input(numbered("d", i));
  }
  for (int s = 0; s < select_width; ++s) {
    const std::size_t half = data.size() / 2;
    std::vector<Lit> next(half);
    for (std::size_t i = 0; i < half; ++i) {
      next[i] = aig.add_mux(sel[s], data[2 * i + 1], data[2 * i]);
    }
    data = std::move(next);
  }
  aig.add_output(data[0], "y");
  return aig;
}

Aig make_alu(int width)
{
  if (width < 1) {
    throw std::invalid_argument("make_alu: width must be positive");
  }
  Aig aig;
  std::vector<Lit> a(width), b(width);
  for (int i = 0; i < width; ++i) {
    a[i] = aig.add_input(numbered("a", i));
  }
  for (int i = 0; i < width; ++i) {
    b[i] = aig.add_input(numbered("b", i));
  }
  const Lit op0 = aig.add_input("op0");
  const Lit op1 = aig.add_input("op1");

  Lit carry = Aig::kFalse;
  for (int i = 0; i < width; ++i) {
    const Lit and_i = aig.add_and(a[i], b[i]);
    const Lit or_i = aig.add_or(a[i], b[i]);
    const Lit xor_i = aig.add_xor(a[i], b[i]);
    const auto fa = full_adder(aig, a[i], b[i], carry);
    carry = fa.carry;
    // op: 00 -> AND, 01 -> OR, 10 -> XOR, 11 -> ADD
    const Lit low = aig.add_mux(op0, or_i, and_i);
    const Lit high = aig.add_mux(op0, fa.sum, xor_i);
    aig.add_output(aig.add_mux(op1, high, low), numbered("y", i));
  }
  return aig;
}

Aig make_popcount(int width)
{
  if (width < 1) {
    throw std::invalid_argument("make_popcount: width must be positive");
  }
  Aig aig;
  std::vector<Lit> in(width);
  for (int i = 0; i < width; ++i) {
    in[i] = aig.add_input();
  }
  const auto count = popcount_tree(aig, in);
  for (std::size_t b = 0; b < count.size(); ++b) {
    aig.add_output(count[b], numbered("c", b));
  }
  return aig;
}

Aig make_random_control(int num_inputs, int num_gates, std::uint64_t seed)
{
  if (num_inputs < 2 || num_gates < 1) {
    throw std::invalid_argument("make_random_control: need >= 2 inputs and >= 1 gate");
  }
  Aig aig;
  std::mt19937_64 rng{seed};
  std::vector<Lit> pool;
  for (int i = 0; i < num_inputs; ++i) {
    pool.push_back(aig.add_input());
  }
  for (int g = 0; g < num_gates; ++g) {
    std::uniform_int_distribution<std::size_t> pick(0, pool.size() - 1);
    const std::size_t ia = pick(rng);
    std::size_t ib = pick(rng);
    while (ib == ia) {
      ib = pick(rng);
    }
    const bool ca = (rng() & 1ULL) != 0;
    const bool cb = (rng() & 1ULL) != 0;
    const Lit la = ca ? Aig::literal_not(pool[ia]) : pool[ia];
    const Lit lb = cb ? Aig::literal_not(pool[ib]) : pool[ib];
    pool.push_back(aig.add_and(la, lb));
  }
  // Expose the most recently created gates as outputs so deep cones exist.
  const int outputs = std::min<int>(8, num_gates);
  for (int i = 0; i < outputs; ++i) {
    aig.add_output(pool[pool.size() - 1 - static_cast<std::size_t>(i)]);
  }
  return aig;
}

}  // namespace facet
