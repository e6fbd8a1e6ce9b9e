#include "facet/aig/aiger_io.hpp"

#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace facet {

void write_aiger(const Aig& aig, std::ostream& os)
{
  const std::size_t m = aig.num_nodes() - 1;  // maximum variable index
  const std::size_t i = aig.num_inputs();
  const std::size_t o = aig.num_outputs();
  const std::size_t a = aig.num_ands();
  os << "aag " << m << ' ' << i << " 0 " << o << ' ' << a << '\n';
  for (std::size_t k = 0; k < i; ++k) {
    os << Aig::make_literal(aig.input_node(k)) << '\n';
  }
  for (const auto lit : aig.outputs()) {
    os << lit << '\n';
  }
  for (Aig::Node node = static_cast<Aig::Node>(i) + 1; node < aig.num_nodes(); ++node) {
    os << Aig::make_literal(node) << ' ' << aig.fanin0(node) << ' ' << aig.fanin1(node) << '\n';
  }
  for (std::size_t k = 0; k < i; ++k) {
    os << 'i' << k << ' ' << aig.input_name(k) << '\n';
  }
  for (std::size_t k = 0; k < o; ++k) {
    os << 'o' << k << ' ' << aig.output_name(k) << '\n';
  }
}

std::string write_aiger_string(const Aig& aig)
{
  std::ostringstream oss;
  write_aiger(aig, oss);
  return oss.str();
}

namespace {

/// The largest maximum variable index M a header may declare: the literal
/// 2 * M + 1 must fit Aig::Literal's 32 bits.
constexpr std::size_t kMaxAigerVariable = (std::size_t{1} << 31) - 1;

struct AigerHeader {
  std::size_t m = 0;  ///< maximum variable index
  std::size_t i = 0;  ///< inputs
  std::size_t o = 0;  ///< outputs
  std::size_t a = 0;  ///< AND gates
};

/// Parses "<magic> M I L O A" and rejects what neither reader supports:
/// latches, M >= 2^31, and M != I + A (write_aiger and write_aiger_binary
/// always emit M = I + A). The counts are checked, never trusted: nothing
/// is sized from them until the bytes behind them have been read.
AigerHeader read_header(std::istream& is, const std::string& who, const std::string& magic,
                        const std::string& format)
{
  std::string found;
  std::size_t l = 0;
  AigerHeader h;
  if (!(is >> found >> h.m >> h.i >> l >> h.o >> h.a)) {
    throw std::runtime_error(who + ": malformed header");
  }
  if (found != magic) {
    throw std::runtime_error(who + ": expected " + format + " AIGER ('" + magic + "')");
  }
  if (l != 0) {
    throw std::runtime_error(who + ": latches are not supported (combinational only)");
  }
  if (h.m > kMaxAigerVariable) {
    throw std::runtime_error(who + ": maximum variable index exceeds 2^31 - 1");
  }
  if (h.i > h.m || h.a != h.m - h.i) {
    throw std::runtime_error(who + ": header counts are inconsistent");
  }
  return h;
}

/// 7-bit varint encoding of the binary AIGER delta stream.
void write_varint(std::ostream& os, std::uint64_t value)
{
  while (value >= 0x80) {
    os.put(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  os.put(static_cast<char>(value));
}

[[nodiscard]] std::uint64_t read_varint(std::istream& is)
{
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    const int c = is.get();
    if (c == std::char_traits<char>::eof()) {
      throw std::runtime_error("read_aiger_binary: truncated delta stream");
    }
    value |= static_cast<std::uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) {
      return value;
    }
    shift += 7;
    if (shift > 63) {
      throw std::runtime_error("read_aiger_binary: varint overflow");
    }
  }
}

}  // namespace

Aig read_aiger(std::istream& is)
{
  const AigerHeader h = read_header(is, "read_aiger", "aag", "ASCII");

  // Every count grows with the literals actually read, so a header that
  // promises more than the file holds fails on the missing bytes instead of
  // allocating for them.
  std::vector<std::size_t> input_literals;
  for (std::size_t k = 0; k < h.i; ++k) {
    std::size_t lit = 0;
    if (!(is >> lit)) {
      throw std::runtime_error("read_aiger: missing input literal");
    }
    if (lit < 2 || lit % 2 != 0 || lit > 2 * h.m) {
      throw std::runtime_error("read_aiger: invalid input literal");
    }
    input_literals.push_back(lit);
  }
  std::vector<std::size_t> output_literals;
  for (std::size_t k = 0; k < h.o; ++k) {
    std::size_t lit = 0;
    if (!(is >> lit)) {
      throw std::runtime_error("read_aiger: missing output literal");
    }
    if (lit > 2 * h.m + 1) {
      throw std::runtime_error("read_aiger: invalid output literal");
    }
    output_literals.push_back(lit);
  }
  struct AndLine {
    std::size_t lhs, rhs0, rhs1;
  };
  std::vector<AndLine> ands;
  for (std::size_t k = 0; k < h.a; ++k) {
    AndLine line{};
    if (!(is >> line.lhs >> line.rhs0 >> line.rhs1)) {
      throw std::runtime_error("read_aiger: missing AND definition");
    }
    if (line.lhs < 2 || line.lhs % 2 != 0 || line.lhs > 2 * h.m || line.rhs0 > 2 * h.m + 1 ||
        line.rhs1 > 2 * h.m + 1) {
      throw std::runtime_error("read_aiger: invalid AND literals");
    }
    ands.push_back(line);
  }

  Aig aig;
  // Input literal in the file -> literal in the reconstructed AIG. The
  // reconstruction re-runs structural hashing, so file node ids and rebuilt
  // node ids can differ; literals are remapped through this table. M = I + A
  // definitions have been read, so its size is bounded by the input's.
  std::vector<Aig::Literal> remap(2 * (h.m + 1), Aig::kFalse);
  remap[0] = Aig::kFalse;
  remap[1] = Aig::kTrue;
  for (const std::size_t input : input_literals) {
    const Aig::Literal lit = aig.add_input();
    remap[input] = lit;
    remap[input + 1] = Aig::literal_not(lit);
  }
  for (const AndLine& line : ands) {
    const Aig::Literal lit = aig.add_and(remap[line.rhs0], remap[line.rhs1]);
    remap[line.lhs] = lit;
    remap[line.lhs + 1] = Aig::literal_not(lit);
  }
  for (const std::size_t output : output_literals) {
    aig.add_output(remap[output]);
  }
  // Symbol table and comments are ignored on read.
  return aig;
}

Aig read_aiger_string(const std::string& text)
{
  std::istringstream iss{text};
  return read_aiger(iss);
}

void write_aiger_binary(const Aig& aig, std::ostream& os)
{
  const std::size_t m = aig.num_nodes() - 1;
  const std::size_t i = aig.num_inputs();
  const std::size_t o = aig.num_outputs();
  const std::size_t a = aig.num_ands();
  // In the binary format node ids must be consecutive with inputs first —
  // which is exactly this library's construction invariant.
  os << "aig " << m << ' ' << i << " 0 " << o << ' ' << a << '\n';
  for (const auto lit : aig.outputs()) {
    os << lit << '\n';
  }
  for (Aig::Node node = static_cast<Aig::Node>(i) + 1; node < aig.num_nodes(); ++node) {
    const Aig::Literal lhs = Aig::make_literal(node);
    Aig::Literal rhs0 = aig.fanin0(node);
    Aig::Literal rhs1 = aig.fanin1(node);
    if (rhs0 < rhs1) {
      std::swap(rhs0, rhs1);  // spec: lhs > rhs0 >= rhs1
    }
    write_varint(os, lhs - rhs0);
    write_varint(os, rhs0 - rhs1);
  }
}

std::string write_aiger_binary_string(const Aig& aig)
{
  std::ostringstream oss;
  write_aiger_binary(aig, oss);
  return oss.str();
}

Aig read_aiger_binary(std::istream& is)
{
  const AigerHeader h = read_header(is, "read_aiger_binary", "aig", "binary");

  std::vector<std::size_t> output_literals;
  for (std::size_t k = 0; k < h.o; ++k) {
    std::size_t lit = 0;
    if (!(is >> lit) || lit > 2 * h.m + 1) {
      throw std::runtime_error("read_aiger_binary: invalid output literal");
    }
    output_literals.push_back(lit);
  }
  // Consume the newline terminating the last ASCII line before the deltas.
  is.get();

  // Literal in the file -> literal in the reconstructed AIG, grown one node
  // at a time: the inputs, then each AND once its deltas have been read.
  Aig aig;
  std::vector<Aig::Literal> remap{Aig::kFalse, Aig::kTrue};
  for (std::size_t k = 0; k < h.i; ++k) {
    const Aig::Literal lit = aig.add_input();
    remap.push_back(lit);
    remap.push_back(Aig::literal_not(lit));
  }

  for (std::size_t k = 0; k < h.a; ++k) {
    const std::size_t lhs = 2 * (h.i + 1 + k);
    const std::uint64_t delta0 = read_varint(is);
    const std::uint64_t delta1 = read_varint(is);
    if (delta0 == 0 || delta0 > lhs || delta1 > lhs - delta0) {
      throw std::runtime_error("read_aiger_binary: invalid fanin deltas");
    }
    const std::size_t rhs0 = lhs - delta0;
    const std::size_t rhs1 = rhs0 - delta1;
    const Aig::Literal lit = aig.add_and(remap[rhs0], remap[rhs1]);
    remap.push_back(lit);
    remap.push_back(Aig::literal_not(lit));
  }

  for (const std::size_t output : output_literals) {
    aig.add_output(remap[output]);
  }
  return aig;
}

Aig read_aiger_binary_string(const std::string& text)
{
  std::istringstream iss{text};
  return read_aiger_binary(iss);
}

}  // namespace facet
