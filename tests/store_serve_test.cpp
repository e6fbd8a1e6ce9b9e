/// Tests of the line-protocol serve loop: known/unknown lookups, the info
/// and stats introspection commands, error resilience, and append mode.

#include "facet/store/serve.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "facet/npn/transform.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"
#include "serve_session.hpp"

namespace facet {
namespace {

using serve_test::run_serve;

ClassStore make_store(int n, std::uint64_t seed, std::size_t count = 40)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return build_class_store(funcs, {});
}

TEST(StoreServe, LookupInfoStatsQuit)
{
  ClassStore store = make_store(4, 0x5e12ULL);
  const std::string hex = to_hex(store.persisted_records().front().representative);

  ServeStats stats;
  const auto lines = run_serve(
      store, "lookup " + hex + "\nlookup " + hex + "\ninfo\nstats\nquit\n", &stats);
  ASSERT_EQ(lines.size(), 5u);
  // Width 4: both lookups resolve in the O(1) NPN4 table tier — no
  // canonicalization, no cache or index involvement.
  EXPECT_EQ(lines[0].rfind("ok id=", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("src=table"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("known=1"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("src=table"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2].rfind("ok n=4 ", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("ok requests=", 0), 0u) << lines[3];
  EXPECT_EQ(lines[4], "ok bye");

  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.table_hits, 2u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.index_hits, 0u);
  EXPECT_EQ(stats.live, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(StoreServe, BlankLinesAndCommentsAreIgnored)
{
  ClassStore store = make_store(3, 0x5e13ULL);
  ServeStats stats;
  const auto lines = run_serve(store, "\n   \n# a comment\ninfo\n", &stats);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].rfind("ok n=3 ", 0), 0u);
  EXPECT_EQ(stats.requests, 1u);
}

TEST(StoreServe, MalformedRequestsAnswerErrAndKeepServing)
{
  ClassStore store = make_store(3, 0x5e14ULL);
  ServeStats stats;
  const auto lines = run_serve(store,
                               "frobnicate\n"
                               "lookup\n"
                               "lookup zz\n"
                               "lookup e8 extra\n"
                               "lookup e8\n"
                               "quit\n",
                               &stats);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0].rfind("err unknown command", 0), 0u);
  EXPECT_EQ(lines[1].rfind("err ", 0), 0u);
  EXPECT_EQ(lines[2].rfind("err ", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("err ", 0), 0u);
  EXPECT_EQ(lines[4].rfind("ok id=", 0), 0u) << "the loop must survive errors";
  EXPECT_EQ(lines[5], "ok bye");
  EXPECT_EQ(stats.errors, 4u);
  EXPECT_EQ(stats.lookups, 1u);
}

TEST(StoreServe, EndOfInputEndsTheLoopWithoutQuit)
{
  ClassStore store = make_store(3, 0x5e15ULL);
  ServeStats stats;
  const auto lines = run_serve(store, "info\n", &stats);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(stats.requests, 1u);
}

TEST(StoreServe, UnknownFunctionsFallBackToLiveAndCanAppend)
{
  const int n = 4;
  ClassStore store = make_store(n, 0x5e16ULL, 10);
  std::mt19937_64 rng{0x5e17ULL};
  TruthTable novel{n};
  for (;;) {
    novel = tt_random(n, rng);
    if (!store.lookup(novel).has_value()) {
      break;
    }
  }
  store.clear_hot_cache();
  const std::string hex = to_hex(novel);
  const std::string equivalent = to_hex(apply_transform(novel, NpnTransform::random(n, rng)));

  // Without append: both queries classify live, with a consistent id.
  {
    ClassStore fresh = make_store(n, 0x5e16ULL, 10);
    ServeStats stats;
    const auto lines =
        run_serve(fresh, "lookup " + hex + "\nlookup " + equivalent + "\nquit\n", &stats);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("src=live"), std::string::npos) << lines[0];
    EXPECT_NE(lines[0].find("known=0"), std::string::npos);
    EXPECT_NE(lines[1].find("src=live"), std::string::npos) << lines[1];
    const auto id_of = [](const std::string& line) {
      return line.substr(0, line.find(" rep="));
    };
    EXPECT_EQ(id_of(lines[0]), id_of(lines[1]));
    EXPECT_EQ(stats.live, 2u);
    EXPECT_EQ(fresh.num_appended(), 0u);
  }

  // With append: the first miss persists, the equivalent query hits the
  // index (or cache), and the store grows by one record.
  {
    ServeStats stats;
    ServeOptions options;
    options.append_on_miss = true;
    const auto lines =
        run_serve(store, "lookup " + hex + "\nlookup " + equivalent + "\nquit\n", &stats, options);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines[0].find("src=live"), std::string::npos);
    EXPECT_NE(lines[1].find("known=1"), std::string::npos) << lines[1];
    EXPECT_EQ(stats.live, 1u);
    EXPECT_EQ(store.num_appended(), 1u);
  }
}

/// The cases above through a store served alone and through a one-width
/// router over an identical twin: both answer byte for byte alike.
TEST(StoreServe, OneWidthRouterAnswersLikeTheStoreAlone)
{
  const auto known = [](const ClassStore& store) {
    return to_hex(store.persisted_records().front().representative);
  };
  const auto novel = [](const ClassStore& store) {
    std::mt19937_64 rng{0x5e18ULL};
    TruthTable f{store.num_vars()};
    do {
      f = tt_random(store.num_vars(), rng);
    } while (store.lookup(f).has_value());
    return to_hex(apply_transform(f, NpnTransform::random(store.num_vars(), rng))) + "\nlookup " +
           to_hex(f);
  };
  ServeOptions append;
  append.append_on_miss = true;
  for (const int n : {3, 4, 5}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto make = [n] { return make_store(n, 0x5e19ULL + static_cast<unsigned>(n), 10); };
    const auto lines = serve_test::expect_one_width_router_answers_alike(
        make, [&](const ClassStore& s) {
          return "lookup " + known(s) + "\nlookup " + known(s) + "\nlookup " + novel(s) +
                 "\n\n# c\ninfo\nstats\nfrobnicate\nlookup\nlookup zz\nlookup e8 extra\nquit\n";
        });
    ASSERT_EQ(lines.size(), 11u);
    EXPECT_EQ(lines[4].rfind("ok n=" + std::to_string(n) + " ", 0), 0u) << lines[4];
    (void)serve_test::expect_one_width_router_answers_alike(
        make, [&](const ClassStore& s) { return "lookup " + novel(s) + "\ninfo\nstats\nquit\n"; },
        append);
  }
}

}  // namespace
}  // namespace facet
