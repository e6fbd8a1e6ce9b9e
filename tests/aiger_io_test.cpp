#include "facet/aig/aiger_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "facet/aig/circuits.hpp"
#include "facet/aig/simulate.hpp"

namespace facet {
namespace {

TEST(AigerIo, HeaderCountsAreCorrect)
{
  Aig aig;
  const auto a = aig.add_input();
  const auto b = aig.add_input();
  aig.add_output(aig.add_and(a, b));
  const std::string text = write_aiger_string(aig);
  EXPECT_EQ(text.substr(0, text.find('\n')), "aag 3 2 0 1 1");
}

TEST(AigerIo, RoundTripPreservesBehaviour)
{
  for (const Aig& original : {make_adder(4), make_parity(6), make_max(3), make_mux_tree(2)}) {
    const Aig reread = read_aiger_string(write_aiger_string(original));
    ASSERT_EQ(reread.num_inputs(), original.num_inputs());
    ASSERT_EQ(reread.num_outputs(), original.num_outputs());
    EXPECT_EQ(simulate_outputs(reread), simulate_outputs(original));
  }
}

TEST(AigerIo, RoundTripOfConstantsAndComplements)
{
  Aig aig;
  const auto a = aig.add_input();
  aig.add_output(Aig::kTrue);
  aig.add_output(Aig::literal_not(a));
  const Aig reread = read_aiger_string(write_aiger_string(aig));
  const auto outs = simulate_outputs(reread);
  EXPECT_TRUE(outs[0].is_const1());
  EXPECT_EQ(outs[1], simulate_outputs(aig)[1]);
}

TEST(AigerIo, ParsesHandWrittenFile)
{
  // Full adder sum bit: s = a XOR b (two inputs for brevity).
  const std::string text =
      "aag 5 2 0 1 3\n"
      "2\n"
      "4\n"
      "11\n"
      "6 2 5\n"
      "8 3 4\n"
      "10 7 9\n";
  const Aig aig = read_aiger_string(text);
  EXPECT_EQ(aig.num_inputs(), 2u);
  const auto outs = simulate_outputs(aig);
  // 6 = a AND NOT b, 8 = NOT a AND b, 10 = NOT6 AND NOT8, output 11 = NOT 10 = XOR.
  EXPECT_EQ(outs[0].word(0), 0b0110u);
}

TEST(AigerIo, BinaryRoundTripPreservesBehaviour)
{
  for (const Aig& original : {make_adder(5), make_parity(7), make_max(4), make_voter(5), make_alu(3)}) {
    const Aig reread = read_aiger_binary_string(write_aiger_binary_string(original));
    ASSERT_EQ(reread.num_inputs(), original.num_inputs());
    ASSERT_EQ(reread.num_outputs(), original.num_outputs());
    ASSERT_EQ(reread.num_ands(), original.num_ands());
    EXPECT_EQ(simulate_outputs(reread), simulate_outputs(original));
  }
}

TEST(AigerIo, BinaryIsSmallerThanAscii)
{
  const Aig aig = make_multiplier(6);
  EXPECT_LT(write_aiger_binary_string(aig).size(), write_aiger_string(aig).size());
}

TEST(AigerIo, BinaryAndAsciiAgree)
{
  const Aig aig = make_priority(8);
  const Aig from_ascii = read_aiger_string(write_aiger_string(aig));
  const Aig from_binary = read_aiger_binary_string(write_aiger_binary_string(aig));
  EXPECT_EQ(simulate_outputs(from_ascii), simulate_outputs(from_binary));
}

TEST(AigerIo, BinaryRejectsMalformedInput)
{
  EXPECT_THROW(read_aiger_binary_string(""), std::runtime_error);
  EXPECT_THROW(read_aiger_binary_string("aag 1 1 0 0 0\n"), std::runtime_error);   // ascii magic
  EXPECT_THROW(read_aiger_binary_string("aig 2 1 1 0 0\n"), std::runtime_error);   // latches
  EXPECT_THROW(read_aiger_binary_string("aig 3 1 0 0 1\n"), std::runtime_error);   // bad counts
  EXPECT_THROW(read_aiger_binary_string("aig 2 1 0 0 1\n"), std::runtime_error);   // missing deltas
  // M = I + A = 2^64 - 1: the remap table's size 2 * (M + 1) wraps to 0.
  EXPECT_THROW(read_aiger_binary_string("aig 18446744073709551615 18446744073709551615 0 0 0\n"),
               std::runtime_error);
}

TEST(AigerIo, RejectsMalformedInput)
{
  EXPECT_THROW(read_aiger_string(""), std::runtime_error);
  EXPECT_THROW(read_aiger_string("aig 1 1 0 0 0\n2\n"), std::runtime_error);       // binary magic
  EXPECT_THROW(read_aiger_string("aag 1 1 1 0 0\n2\n2 0\n"), std::runtime_error);  // latches
  EXPECT_THROW(read_aiger_string("aag 1 1 0 0 0\n3\n"), std::runtime_error);       // odd input literal
  EXPECT_THROW(read_aiger_string("aag 2 1 0 0 1\n2\n"), std::runtime_error);       // missing AND body
  // M = 2^64 - 1: the remap table's size 2 * (M + 1) wraps to 0.
  EXPECT_THROW(read_aiger_string("aag 18446744073709551615 0 0 0 0\n"), std::runtime_error);
  // M = 2 * 10^9 with no definitions: M != I + A, never a 16 GB remap table.
  EXPECT_THROW(read_aiger_string("aag 2000000000 0 0 0 0\n"), std::runtime_error);
  // M = I + A = 2 * 10^9 with no input lines: fails on the missing bytes.
  EXPECT_THROW(read_aiger_string("aag 2000000000 2000000000 0 0 0\n"), std::runtime_error);
}

}  // namespace
}  // namespace facet
