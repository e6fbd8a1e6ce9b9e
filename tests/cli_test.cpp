/// Tests of the shared command-line flag parser: value binding, the
/// unsigned getter that count and size flags (`--jobs`, `--cache`,
/// `--max-funcs`, ...) are read through, whole-string parsing by every
/// numeric getter, and the port bounds of `facet_cli fleet`.

#include "facet/util/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace facet {
namespace {

/// CliArgs over `tokens`, with a program name in front.
CliArgs parse(std::vector<std::string> tokens)
{
  tokens.insert(tokens.begin(), "facet_cli");
  std::vector<char*> argv;
  for (auto& token : tokens) {
    argv.push_back(token.data());
  }
  return CliArgs{static_cast<int>(argv.size()), argv.data()};
}

TEST(CliArgs, GetUint64RejectsANegativeValue)
{
  // Spaced and `=` forms alike: a negative count must never wrap into a
  // huge one (a thread count of 2^64 - 1).
  const CliArgs spaced = parse({"build-index", "--jobs", "-1"});
  EXPECT_THROW((void)spaced.get_uint64("jobs", 0), std::invalid_argument);
  const CliArgs joined = parse({"classify", "--cache=-1"});
  EXPECT_THROW((void)joined.get_uint64("cache", 0), std::invalid_argument);
  try {
    (void)spaced.get_uint64("jobs", 0);
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("expected a non-negative integer"), std::string::npos)
        << e.what();
  }
}

TEST(CliArgs, GetUint64ParsesZeroAndTheFullRange)
{
  const CliArgs args = parse({"dataset", "--jobs", "0", "--max-funcs=18446744073709551615"});
  EXPECT_EQ(args.get_uint64("jobs", 7), 0u);
  EXPECT_EQ(args.get_uint64("max-funcs", 0), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(args.get_uint64("cache", 42), 42u) << "an absent flag takes the fallback";
  EXPECT_EQ(args.positional(), std::vector<std::string>{"dataset"});
}

TEST(CliArgs, NumericGettersRejectTrailingCharacters)
{
  // A mistyped count must fail, not be read as its numeric prefix.
  const CliArgs args =
      parse({"dataset", "--max-funcs", "5x", "--jobs=1e3", "--cache=", "--n", "4 ", "--rate=0.5s"});
  for (const char* flag : {"max-funcs", "jobs", "cache"}) {
    SCOPED_TRACE(flag);
    try {
      (void)args.get_uint64(flag, 0);
      ADD_FAILURE() << "get_uint64 accepted a partial number";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string{e.what()}.find("expected a non-negative integer"), std::string::npos)
          << e.what();
    }
    EXPECT_THROW((void)args.get_int(flag, 0), std::invalid_argument);
  }
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("rate", 0), std::invalid_argument);
  EXPECT_THROW((void)args.get_double("cache", 0), std::invalid_argument);
}

TEST(CliArgs, NumericGettersParseWholeValues)
{
  const CliArgs args = parse({"bench", "--n", "-3", "--funcs=120000", "--rate", "1e3",
                              "--big=18446744073709551616"});
  EXPECT_EQ(args.get_int("n", 0), -3);
  EXPECT_EQ(args.get_int("funcs", 0), 120000);
  EXPECT_EQ(args.get_uint64("funcs", 0), 120000u);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0), 1000.0);
  EXPECT_DOUBLE_EQ(args.get_double("funcs", 0), 120000.0);
  // One past the uint64 range is out of range, not wrapped.
  EXPECT_THROW((void)args.get_uint64("big", 0), std::invalid_argument);
}

TEST(CliArgs, RunMainRejectsANegativeCountBeforeTheBodyRuns)
{
  // A bench main reads its flags first: `--jobs -1` exits 1 with the
  // getter's message instead of wrapping into 2^64 - 1 worker threads.
  std::vector<std::string> tokens{"table3_classifier_comparison", "--jobs", "-1"};
  std::vector<char*> argv;
  for (auto& token : tokens) {
    argv.push_back(token.data());
  }
  static bool worked = false;
  const auto body = [](const CliArgs& args) {
    const std::uint64_t jobs = args.get_uint64("jobs", 0);
    worked = true;
    return jobs == 0 ? 0 : 2;
  };
  testing::internal::CaptureStderr();
  const int rc = run_main(static_cast<int>(argv.size()), argv.data(), body);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(rc, 1);
  EXPECT_FALSE(worked);
  EXPECT_NE(err.find("error: --jobs: expected a non-negative integer, got '-1'"), std::string::npos) << err;

  tokens[2] = "0";
  argv = {tokens[0].data(), tokens[1].data(), tokens[2].data()};
  EXPECT_EQ(run_main(static_cast<int>(argv.size()), argv.data(), body), 0);
  EXPECT_TRUE(worked);
}

TEST(CliArgs, FleetBasePortBoundsEveryReplicaPort)
{
  EXPECT_EQ(fleet_base_port("7600", 2), 7600);
  EXPECT_EQ(fleet_base_port("1", 0), 1);
  EXPECT_EQ(fleet_base_port("65535", 0), 65535);
  EXPECT_EQ(fleet_base_port("64511", kMaxThreads), 64511);  // last replica on 65535
  // The base port itself: 1-65535, whole.
  for (const char* port : {"0", "-1", "65536", "99999999999999999999", "76x", ""}) {
    EXPECT_THROW((void)fleet_base_port(port, 2), std::invalid_argument) << port;
  }
  // The replica count: at most kMaxThreads, and no replica port past 65535.
  EXPECT_THROW((void)fleet_base_port("1", kMaxThreads + 1), std::invalid_argument);
  EXPECT_THROW((void)fleet_base_port("64512", kMaxThreads), std::invalid_argument);
  EXPECT_THROW((void)fleet_base_port("65535", 1), std::invalid_argument);
  EXPECT_THROW((void)fleet_base_port("7600", std::numeric_limits<std::uint64_t>::max()),
               std::invalid_argument);
}

}  // namespace
}  // namespace facet
