/// Protocol edge cases of the hardened serve loops: CRLF input, comment-only
/// sessions, malformed operands (bare "0x", invalid digits, wrong digit
/// counts) answering one canonical err shape in both loops, oversized
/// request lines, line framing that does not depend on how the bytes
/// arrive, per-operand mlookup error isolation, flush-on-exit with
/// `ok bye flushed=<k>` reporting, readonly sessions, and `stats all`.

#include "facet/store/serve.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "facet/npn/semiclass.hpp"
#include "facet/npn/transform.hpp"
#include "facet/obs/registry.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"
#include "facet/tt/tt_transform.hpp"
#include "serve_session.hpp"

namespace facet {
namespace {

using serve_test::run_serve;
using serve_test::run_router_serve;

ClassStore make_store(int n, std::uint64_t seed, std::size_t count = 30)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return build_class_store(funcs, {});
}

StoreRouter make_router(std::uint64_t seed)
{
  StoreRouter router;
  router.attach(std::make_unique<ClassStore>(make_store(3, seed)));
  router.attach(std::make_unique<ClassStore>(make_store(4, seed + 1)));
  return router;
}

TEST(ServeProtocolEdge, CrlfLineEndingsAreAccepted)
{
  ClassStore store = make_store(4, 0xed01ULL);
  const std::string hex = to_hex(store.persisted_records().front().representative);
  ServeStats stats;
  const auto lines =
      run_serve(store, "lookup " + hex + "\r\ninfo\r\n  stats  \r\nquit\r\n", &stats);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("ok id=", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok n=4 ", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("ok requests=", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3], "ok bye");
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServeProtocolEdge, BlankAndCommentOnlySessionAnswersNothing)
{
  ClassStore store = make_store(3, 0xed02ULL);
  ServeStats stats;
  const auto lines = run_serve(store, "\n\r\n   \t \n# comment\n  # another\n", &stats);
  EXPECT_TRUE(lines.empty());
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServeProtocolEdge, MalformedOperandsAnswerOneCanonicalShapeInBothLoops)
{
  // Single-store loop: bare 0x, invalid digit (valid count), wrong count.
  ClassStore store = make_store(4, 0xed03ULL);
  ServeStats stats;
  auto lines = run_serve(store,
                         "lookup 0x\n"
                         "lookup zzzz\n"
                         "lookup ffff00\n"
                         "quit\n",
                         &stats);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "err operand '0x': empty hex payload");
  EXPECT_EQ(lines[1], "err operand 'zzzz': invalid hex digit 'z'");
  EXPECT_EQ(lines[2], "err operand 'ffff00': expected 4 hex digits for 4 variables, got 6");
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_EQ(stats.lookups, 0u);

  // Router loop: identical shape for the digit-level failures; a bad digit
  // count reports the width-inference failure.
  StoreRouter router = make_router(0xed04ULL);
  ServeStats router_stats;
  lines = run_router_serve(router,
                           "lookup 0X\n"
                           "lookup zzzz\n"
                           "lookup abc\n"
                           "quit\n",
                           &router_stats);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], "err operand '0X': empty hex payload");
  EXPECT_EQ(lines[1], "err operand 'zzzz': invalid hex digit 'z'");
  EXPECT_EQ(lines[2].rfind("err operand 'abc': digit count 3 maps to no function width", 0), 0u)
      << lines[2];
  EXPECT_EQ(router_stats.errors, 3u);
}

TEST(ServeProtocolEdge, HexOperandWidthRejectsInvalidDigitsAtInference)
{
  EXPECT_EQ(hex_operand_width("zzzz"), -1) << "valid count, invalid digits";
  EXPECT_EQ(hex_operand_width("e8g8"), -1);
  EXPECT_EQ(hex_operand_width("0xzz"), -1);
  EXPECT_EQ(hex_operand_width("0x"), -1);
  EXPECT_EQ(hex_operand_width("0xe8"), 3) << "the prefix itself stays legal";
}

TEST(ServeProtocolEdge, OversizedRequestLineAnswersErrAndKeepsServing)
{
  ClassStore store = make_store(3, 0xed05ULL);
  const std::string hex = to_hex(store.persisted_records().front().representative);
  std::string script;
  script += "lookup " + hex + "\n";
  script += std::string(kMaxRequestLineBytes + 100, 'a') + "\n";
  script += "lookup " + hex + "\nquit\n";
  ServeStats stats;
  const auto lines = run_serve(store, script, &stats);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].rfind("ok id=", 0), 0u);
  EXPECT_EQ(lines[1].rfind("err request line exceeds", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("ok id=", 0), 0u) << "the loop must survive the flood";
  EXPECT_EQ(lines[3], "ok bye");
  EXPECT_EQ(stats.errors, 1u);
}

/// The one v1 session frames lines the same however the bytes arrive: a
/// script fed to ServeDispatcher::consume whole, byte by byte and in 7-byte
/// pieces answers byte for byte what run() answers over an istringstream.
TEST(ServeProtocolEdge, FramingDoesNotDependOnHowBytesArrive)
{
  // Width 5: above the NPN4 table tier, so a repeated lookup answers from
  // the hot cache. Every feed gets a fresh twin store.
  const auto fresh_store = [] { return make_store(5, 0xed30ULL); };
  const ClassStore probe = fresh_store();
  const std::string a = to_hex(probe.persisted_records().front().representative);
  const std::string b = to_hex(probe.persisted_records().back().representative);
  const std::string oversized(kMaxRequestLineBytes + 5, 'x');
  const std::string script = "lookup " + a + "\r\n\n# comment\n   \nlookup@5 " + b +
                             "\nmlookup " + a + " " + b + " zz\n" + oversized + "\nlookup " + a +
                             "\nstats\nquit\nlookup " + a + "\n";
  const std::string unterminated = "lookup " + a + "\ninfo\nlookup " + b;

  const auto via_run = [&](const std::string& bytes) {
    ClassStore store = fresh_store();
    ServeDispatcher dispatcher{&store, nullptr, {}};
    std::istringstream in{bytes};
    std::ostringstream out;
    dispatcher.run(in, out);
    return out.str();
  };
  const auto via_consume = [&](const std::string& bytes, std::size_t piece) {
    ClassStore store = fresh_store();
    ServeDispatcher dispatcher{&store, nullptr, {}};
    std::string out;
    bool keep = true;
    for (std::size_t at = 0; keep && at < bytes.size(); at += piece) {
      keep = dispatcher.consume(std::string_view{bytes}.substr(at, piece), out);
    }
    if (keep) {
      dispatcher.consume({}, out, /*at_eof=*/true);
    }
    return out;
  };
  const auto lines_of = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream reader{text};
    for (std::string line; std::getline(reader, line);) {
      lines.push_back(line);
    }
    return lines;
  };

  const std::string expected = via_run(script);
  const auto lines = lines_of(expected);
  ASSERT_EQ(lines.size(), 9u) << expected.substr(0, 2000);
  EXPECT_NE(lines[0].find(" src=index "), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok id=", 0), 0u) << lines[1];
  EXPECT_EQ(lines[4].rfind("err operand 'zz'", 0), 0u) << lines[4];
  EXPECT_EQ(lines[5], "err request line exceeds " + std::to_string(kMaxRequestLineBytes) +
                          " bytes");
  EXPECT_NE(lines[6].find(" src=cache "), std::string::npos) << lines[6];
  EXPECT_EQ(lines[7].rfind("ok requests=6 lookups=5 ", 0), 0u) << lines[7];
  EXPECT_EQ(lines[8], "ok bye") << "nothing after quit is answered";

  const std::string expected_tail = via_run(unterminated);
  const auto tail_lines = lines_of(expected_tail);
  ASSERT_EQ(tail_lines.size(), 3u) << expected_tail;
  EXPECT_EQ(tail_lines[2].rfind("ok id=", 0), 0u) << "the unterminated request is answered";

  for (const std::size_t piece : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
    SCOPED_TRACE(piece == 0 ? "whole" : std::to_string(piece) + "-byte pieces");
    EXPECT_TRUE(via_consume(script, piece == 0 ? script.size() : piece) == expected);
    EXPECT_EQ(via_consume(unterminated, piece == 0 ? unterminated.size() : piece),
              expected_tail);
  }
}

TEST(ServeProtocolEdge, ZeroOperandMlookupAnswersErr)
{
  ClassStore store = make_store(3, 0xed06ULL);
  ServeStats stats;
  const auto lines = run_serve(store, "mlookup\nmlookup   \nquit\n", &stats);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("err mlookup takes", 0), 0u);
  EXPECT_EQ(lines[1].rfind("err mlookup takes", 0), 0u);
  EXPECT_EQ(stats.errors, 2u);
}

TEST(ServeProtocolEdge, MlookupBatchSurvivesErrOperandsAndCountsThem)
{
  // Width 5: above the NPN4 table tier, so the repeated operand exercises
  // the hot cache (at width <= 4 every hit would resolve src=table).
  ClassStore store = make_store(5, 0xed07ULL);
  const std::string a = to_hex(store.persisted_records().front().representative);
  const std::string b = to_hex(store.persisted_records().back().representative);
  ServeStats stats;
  const auto lines =
      run_serve(store, "mlookup " + a + " zzzz 0x " + b + " fff " + a + "\nquit\n", &stats);
  // One response line per operand — errors answer in place, the batch never
  // aborts, and every failed operand lands in ServeStats::errors.
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0].rfind("ok id=", 0), 0u);
  EXPECT_EQ(lines[1].rfind("err operand 'zzzz'", 0), 0u);
  EXPECT_EQ(lines[2].rfind("err operand '0x'", 0), 0u);
  EXPECT_EQ(lines[3].rfind("ok id=", 0), 0u);
  EXPECT_EQ(lines[4].rfind("err operand 'fff'", 0), 0u);
  EXPECT_EQ(lines[5].rfind("ok id=", 0), 0u);
  EXPECT_EQ(lines[6], "ok bye");
  EXPECT_EQ(stats.errors, 3u);
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.cache_hits, 1u) << "the repeated operand hits the hot cache";
}

/// The append-loss bugfix: a session that appends classes flushes them to
/// the delta log when it ends — via quit (reported in the response) and via
/// bare EOF — so an unflushed memtable never dies with the process.
TEST(ServeProtocolEdge, QuitFlushesAppendsAndReportsCount)
{
  const int n = 4;
  const std::string path = ::testing::TempDir() + "serve_edge_quit.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  make_store(n, 0xed08ULL, 8).save(path);
  std::remove(dlog.c_str());

  ClassStore store = ClassStore::open(path);
  std::mt19937_64 rng{0xed09ULL};
  TruthTable novel{n};
  do {
    novel = tt_random(n, rng);
  } while (store.lookup(novel).has_value());

  ServeOptions options;
  options.append_on_miss = true;
  options.dlog_paths = {{n, dlog}};
  ServeStats stats;
  const auto lines = run_serve(store, "lookup " + to_hex(novel) + "\nquit\n", &stats, options);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("src=live"), std::string::npos);
  EXPECT_EQ(lines[1], "ok bye flushed=1");
  EXPECT_EQ(stats.flushed, 1u);
  EXPECT_EQ(store.num_appended(), 0u) << "the memtable was sealed";

  // The append is durable: a fresh open replays the delta log.
  ClassStore reopened = ClassStore::open(path);
  const auto replayed = reopened.lookup(novel);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(replayed->known);
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(ServeProtocolEdge, EofFlushesAppendsWithoutQuit)
{
  const int n = 4;
  const std::string path = ::testing::TempDir() + "serve_edge_eof.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  make_store(n, 0xed10ULL, 8).save(path);
  std::remove(dlog.c_str());

  ClassStore store = ClassStore::open(path);
  std::mt19937_64 rng{0xed11ULL};
  TruthTable novel{n};
  do {
    novel = tt_random(n, rng);
  } while (store.lookup(novel).has_value());

  ServeOptions options;
  options.append_on_miss = true;
  options.dlog_paths = {{n, dlog}};
  ServeStats stats;
  // No quit: the pipe just ends — the EOF path must flush identically.
  (void)run_serve(store, "lookup " + to_hex(novel) + "\n", &stats, options);
  EXPECT_EQ(stats.flushed, 1u);

  ClassStore reopened = ClassStore::open(path);
  const auto replayed = reopened.lookup(novel);
  ASSERT_TRUE(replayed.has_value());
  EXPECT_TRUE(replayed->known);
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(ServeProtocolEdge, RouterQuitFlushesEveryWidth)
{
  const std::string path3 = ::testing::TempDir() + "serve_edge_r3.fcs";
  const std::string path4 = ::testing::TempDir() + "serve_edge_r4.fcs";
  make_store(3, 0xed12ULL, 6).save(path3);
  make_store(4, 0xed13ULL, 6).save(path4);
  std::remove(ClassStore::delta_log_path(path3).c_str());
  std::remove(ClassStore::delta_log_path(path4).c_str());

  StoreRouter router = StoreRouter::open({path3, path4});
  std::mt19937_64 rng{0xed14ULL};
  TruthTable novel3{3};
  do {
    novel3 = tt_random(3, rng);
  } while (router.store_for(3)->lookup(novel3).has_value());
  TruthTable novel4{4};
  do {
    novel4 = tt_random(4, rng);
  } while (router.store_for(4)->lookup(novel4).has_value());

  ServeOptions options;
  options.append_on_miss = true;
  options.dlog_paths = {{3, ClassStore::delta_log_path(path3)},
                        {4, ClassStore::delta_log_path(path4)}};
  ServeStats stats;
  const auto lines = run_router_serve(
      router, "mlookup " + to_hex(novel3) + " " + to_hex(novel4) + "\nquit\n", &stats, options);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[2], "ok bye flushed=2");
  EXPECT_EQ(stats.flushed, 2u);

  StoreRouter reopened = StoreRouter::open({path3, path4});
  EXPECT_TRUE(reopened.store_for(3)->lookup(novel3).has_value());
  EXPECT_TRUE(reopened.store_for(4)->lookup(novel4).has_value());
  for (const auto& path : {path3, path4}) {
    std::remove(path.c_str());
    std::remove(ClassStore::delta_log_path(path).c_str());
  }
}

TEST(ServeProtocolEdge, ReadonlySessionRejectsMissesButServesHits)
{
  ClassStore store = make_store(4, 0xed15ULL, 8);
  std::mt19937_64 rng{0xed16ULL};
  TruthTable novel{4};
  do {
    novel = tt_random(4, rng);
  } while (store.lookup(novel).has_value());
  store.clear_hot_cache();
  const std::string known = to_hex(store.persisted_records().front().representative);

  ServeOptions options;
  options.readonly = true;
  ServeStats stats;
  const auto lines = run_serve(
      store, "lookup " + known + "\nlookup " + to_hex(novel) + "\nquit\n", &stats, options);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("ok id=", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1], "err unknown function (readonly session)");
  EXPECT_EQ(lines[2], "ok bye");
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(store.num_appended(), 0u);
  EXPECT_EQ(store.num_classes(), store.num_records()) << "no live ids were allocated";
}

TEST(ServeProtocolEdge, StatsAllAnswersAggregateInStdinSessions)
{
  ClassStore store = make_store(3, 0xed17ULL);
  const std::string hex = to_hex(store.persisted_records().front().representative);
  ServeStats stats;
  const auto lines =
      run_serve(store, "lookup " + hex + "\nstats all\nstats bogus\nquit\n", &stats);
  // `stats all` = one aggregate line (ending in widths=<count>) plus one
  // per-width row for each served store — one row for a single-store loop.
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[1].rfind("ok connections=1 sessions=1 requests=2 lookups=1", 0), 0u)
      << lines[1];
  EXPECT_NE(lines[1].find(" widths=1"), std::string::npos) << lines[1];
  EXPECT_EQ(lines[2].rfind("ok width=3 lookups=1 ", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3], "err stats takes no argument or 'all'");
  EXPECT_EQ(lines[4], "ok bye");
}

TEST(ServeProtocolEdge, StatsAllReportsPerWidthRows)
{
  StoreRouter router = make_router(0xed20ULL);
  const std::string hex3 = to_hex(router.store_for(3)->persisted_records().front().representative);
  const std::string hex4 = to_hex(router.store_for(4)->persisted_records().front().representative);

  // Two width-3 lookups and one width-4 lookup: the rows must attribute
  // traffic to the store that served it — at these widths every hit
  // resolves in the O(1) NPN4 table tier, never the cache or index.
  const auto lines = run_router_serve(
      router, "lookup " + hex3 + "\nlookup " + hex3 + "\nlookup " + hex4 + "\nstats all\nquit\n");
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_NE(lines[3].find(" lookups=3 "), std::string::npos) << lines[3];
  EXPECT_NE(lines[3].find(" table_hits=3 "), std::string::npos) << lines[3];
  EXPECT_NE(lines[3].find(" widths=2"), std::string::npos) << lines[3];
  EXPECT_EQ(lines[4],
            "ok width=3 lookups=2 cache_hits=0 memo_hits=0 table_hits=2 index_hits=0 live=0 "
            "appended=0")
      << lines[4];
  EXPECT_EQ(lines[5],
            "ok width=4 lookups=1 cache_hits=0 memo_hits=0 table_hits=1 index_hits=0 live=0 "
            "appended=0")
      << lines[5];
  EXPECT_EQ(lines[6], "ok bye");
}

TEST(ServeProtocolEdge, StatsAllCountsAppendsPerWidth)
{
  StoreRouter router = make_router(0xed21ULL);
  std::mt19937_64 rng{0xed22ULL};
  TruthTable novel{4};
  do {
    novel = tt_random(4, rng);
  } while (router.store_for(4)->lookup(novel).has_value());

  ServeOptions options;
  options.append_on_miss = true;
  const auto lines =
      run_router_serve(router, "lookup " + to_hex(novel) + "\nstats all\nquit\n", nullptr, options);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[2],
            "ok width=3 lookups=0 cache_hits=0 memo_hits=0 table_hits=0 index_hits=0 live=0 "
            "appended=0")
      << lines[2];
  EXPECT_EQ(lines[3],
            "ok width=4 lookups=1 cache_hits=0 memo_hits=0 table_hits=0 index_hits=0 live=1 "
            "appended=1")
      << lines[3];
}

TEST(ServeProtocolEdge, StatsLineReportsErrors)
{
  ClassStore store = make_store(3, 0xed18ULL);
  ServeStats stats;
  const auto lines = run_serve(store, "frobnicate\nstats\nquit\n", &stats);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[1].find(" errors=1"), std::string::npos) << lines[1];
}

TEST(ServeProtocolEdge, LookupAtPinsOperandWidthThroughTheRouter)
{
  StoreRouter router = make_router(0xed30ULL);
  const std::string hex3 = to_hex(router.store_for(3)->persisted_records().front().representative);
  const std::string hex4 = to_hex(router.store_for(4)->persisted_records().front().representative);
  ServeStats stats;
  const auto lines = run_router_serve(router,
                                      "lookup@3 " + hex3 +        // pinned, digits match
                                          "\nlookup@4 " + hex3 +  // pinned, wrong digit count
                                          "\nlookup@5 " + hex4 + hex4 +  // no width-5 store
                                          "\nlookup@xy " + hex3 +        // malformed override
                                          "\nmlookup@4 " + hex4 + " " + hex4 + "\nquit\n",
                                      &stats);
  ASSERT_EQ(lines.size(), 7u);
  EXPECT_EQ(lines[0].rfind("ok id=", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1], "err operand '" + hex3 + "': expected 4 hex digits for 4 variables, got 2");
  EXPECT_EQ(lines[2], "err no store routes width 5");
  EXPECT_EQ(lines[3].rfind("err bad width in 'lookup@xy'", 0), 0u) << lines[3];
  EXPECT_EQ(lines[4].rfind("ok id=", 0), 0u) << lines[4];
  EXPECT_EQ(lines[5].rfind("ok id=", 0), 0u) << lines[5];
  EXPECT_EQ(lines[6], "ok bye");
  EXPECT_EQ(stats.errors, 3u);
}

TEST(ServeProtocolEdge, LookupAtChecksTheSingleStoreWidth)
{
  ClassStore store = make_store(3, 0xed31ULL);
  const std::string hex = to_hex(store.persisted_records().front().representative);
  const auto lines = run_serve(
      store, "lookup@3 " + hex + "\nlookup@4 " + hex + hex + "\nquit\n");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0].rfind("ok id=", 0), 0u) << lines[0];
  // A single store is a one-width route: an unserved width answers the
  // router's line.
  EXPECT_EQ(lines[1], "err no store routes width 4");
}

/// The single-store edge cases above, replayed through a store served alone
/// and through a one-width router over an identical twin: a single store is
/// a one-width route, so both answer byte for byte alike.
TEST(ServeProtocolEdge, SingleStoreEdgeCasesAnswerAlikeThroughAOneWidthRouter)
{
  const auto known = [](const ClassStore& store) {
    return to_hex(store.persisted_records().front().representative);
  };
  const auto novel = [](const ClassStore& store) {
    std::mt19937_64 rng{0xed50ULL};
    TruthTable f{store.num_vars()};
    do {
      f = tt_random(store.num_vars(), rng);
    } while (store.lookup(f).has_value());
    return to_hex(f);
  };
  struct Case {
    int n;
    std::function<std::string(const ClassStore&)> script;
    ServeOptions options;
  };
  ServeOptions readonly;
  readonly.readonly = true;
  ServeOptions append;
  append.append_on_miss = true;
  const std::vector<Case> cases{
      {4,
       [&](const ClassStore& s) {
         return "lookup " + known(s) + "\r\ninfo\r\n  stats  \r\nquit\r\n";
       },
       {}},
      {3, [](const ClassStore&) { return std::string{"\n\r\n   \t \n# comment\n  # c\n"}; }, {}},
      {4,
       [](const ClassStore&) {
         return std::string{"lookup 0x\nlookup zzzz\nlookup ffff00\nlookup abc\nlookup f\n"
                            "lookup\nlookup e8 extra\nfrobnicate\nstats\nquit\n"};
       },
       {}},
      {3,
       [&](const ClassStore& s) {
         return "lookup " + known(s) + "\n" + std::string(kMaxRequestLineBytes + 100, 'a') +
                "\nlookup " + known(s) + "\nquit\n";
       },
       {}},
      {5,
       [&](const ClassStore& s) {
         return "mlookup\nmlookup " + known(s) + " zzzz 0x fff " + known(s) + "\nstats\nquit\n";
       },
       {}},
      {3,
       [&](const ClassStore& s) {
         return "lookup " + known(s) + "\nstats all\nstats bogus\nmetrics now\nquit\n";
       },
       {}},
      {3,
       [&](const ClassStore& s) {
         return "lookup@3 " + known(s) + "\nlookup@4 " + known(s) + known(s) + "\nlookup@4 " +
                known(s) + "\nlookup@xy " + known(s) + "\nmlookup@3 " + known(s) + " " +
                known(s) + "\nquit\n";
       },
       {}},
      {4,
       [&](const ClassStore& s) {
         return "lookup " + known(s) + "\nlookup " + novel(s) + "\nstats\nquit\n";
       },
       readonly},
      {5,
       [&](const ClassStore& s) {
         return "lookup " + novel(s) + "\nlookup " + novel(s) + "\ninfo\nstats\nstats all\nquit\n";
       },
       append},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    const Case& c = cases[i];
    (void)serve_test::expect_one_width_router_answers_alike(
        [&] { return make_store(c.n, 0xed51ULL + i); }, c.script, c.options);
  }
}

/// `stats all` has no lookup or tier counters of its own: its totals are
/// the sums of the per-width rows, across widths and tiers — and every
/// field is the registry series it is rendered from.
TEST(ServeProtocolEdge, StatsAllTotalsEqualTheSumOfWidthRows)
{
  StoreRouter router;
  router.attach(std::make_unique<ClassStore>(make_store(3, 0xed60ULL)));
  router.attach(std::make_unique<ClassStore>(make_store(5, 0xed61ULL)));
  router.attach(std::make_unique<ClassStore>(make_store(6, 0xed62ULL)));
  const std::string hex3 = to_hex(router.store_for(3)->persisted_records().front().representative);
  const std::string hex5 = to_hex(router.store_for(5)->persisted_records().front().representative);
  const std::string hex6 = to_hex(router.store_for(6)->persisted_records().back().representative);
  std::mt19937_64 rng{0xed63ULL};
  TruthTable novel6{6};
  do {
    novel6 = tt_random(6, rng);
  } while (router.store_for(6)->lookup(novel6).has_value());

  ServeOptions options;
  options.append_on_miss = true;
  ServeStats session;
  const auto lines = run_router_serve(router,
                                      "lookup " + hex3 + "\nmlookup " + hex5 + " " + hex5 + " " +
                                          hex6 + " zzzz\nlookup " + to_hex(novel6) +
                                          "\nlookup " + to_hex(novel6) + "\nstats all\nquit\n",
                                      &session, options);
  ASSERT_EQ(lines.size(), 12u);
  const auto field = [](const std::string& line, const std::string& key) {
    const std::size_t at = line.find(" " + key + "=");
    EXPECT_NE(at, std::string::npos) << key << " in " << line;
    return at == std::string::npos ? 0 : std::stoull(line.substr(at + key.size() + 2));
  };
  const std::string& aggregate = lines[7];
  ASSERT_EQ(aggregate.rfind("ok connections=", 0), 0u) << aggregate;
  EXPECT_EQ(field(aggregate, "widths"), 3u);
  for (const std::string key :
       {"lookups", "cache_hits", "memo_hits", "table_hits", "index_hits", "live"}) {
    std::uint64_t rows = 0;
    for (std::size_t r = 8; r < 11; ++r) {
      ASSERT_EQ(lines[r].rfind("ok width=", 0), 0u) << lines[r];
      rows += field(lines[r], key);
    }
    EXPECT_EQ(field(aggregate, key), rows) << key << ": " << aggregate;
  }
  // The mix really spread over widths and tiers.
  EXPECT_EQ(field(aggregate, "lookups"), 6u) << aggregate;
  EXPECT_GE(field(aggregate, "table_hits"), 1u) << aggregate;
  EXPECT_GE(field(aggregate, "cache_hits"), 1u) << aggregate;
  EXPECT_EQ(field(aggregate, "live"), 1u) << aggregate;
  EXPECT_EQ(field(aggregate, "errors"), 1u) << aggregate;
  EXPECT_EQ(session.lookups, 6u);

  // The registry is the source of truth: a fresh render of `stats all`
  // equals the Prometheus scrape, summed over labels on the aggregate line
  // and per `width` label on each row.
  const std::string text = ServeDispatcher{nullptr, &router, {}}.stats_all_text();
  std::ostringstream exposition;
  auto& registry = obs::MetricRegistry::global();
  registry.render_prometheus(exposition);
  const auto scraped = [&](const std::string& name, const std::vector<std::string>& labels) {
    std::uint64_t sum = 0;
    std::istringstream scrape{exposition.str()};
    for (std::string line; std::getline(scrape, line);) {
      const std::string series = line.substr(0, line.rfind(' '));
      bool match = series == name || series.rfind(name + "{", 0) == 0;
      for (const std::string& label : labels) {
        match = match && series.find(label) != std::string::npos;
      }
      if (match) {
        sum += std::stoull(line.substr(line.rfind(' ') + 1));
      }
    }
    return sum;
  };
  const auto tier = [](const char* name) { return std::string{"tier=\""} + name + "\""; };
  const std::vector<std::pair<std::string, std::string>> tiers{
      {"cache_hits", tier("cache")}, {"memo_hits", tier("memo")},   {"table_hits", tier("table")},
      {"index_hits", tier("index")}, {"live", tier("live")}};
  std::istringstream rendered{text};
  std::string agg;
  ASSERT_TRUE(static_cast<bool>(std::getline(rendered, agg)));
  EXPECT_EQ(field(agg, "connections"), scraped("facet_serve_active_connections", {})) << agg;
  EXPECT_EQ(field(agg, "sessions"), scraped("facet_serve_connections_total", {})) << agg;
  EXPECT_EQ(field(agg, "requests"), scraped("facet_serve_requests_total", {})) << agg;
  EXPECT_EQ(field(agg, "lookups"), scraped("facet_serve_lookups_total", {})) << agg;
  for (const auto& [key, label] : tiers) {
    EXPECT_EQ(field(agg, key), scraped("facet_serve_lookups_total", {label})) << key;
  }
  EXPECT_EQ(field(agg, "errors"), scraped("facet_serve_errors_total", {})) << agg;
  EXPECT_EQ(field(agg, "flushed"), scraped("facet_store_flushed_records_total", {})) << agg;
  EXPECT_EQ(field(agg, "compactions"),
            scraped("facet_compaction_duration_count", {"phase=\"total\""}))
      << agg;
  EXPECT_EQ(field(agg, "compacted_runs"), scraped("facet_compaction_runs_total", {})) << agg;
  EXPECT_EQ(field(agg, "compacted_records"), scraped("facet_compaction_records_total", {}));
  EXPECT_EQ(field(agg, "compact_bytes"), scraped("facet_compaction_bytes_total", {})) << agg;
  EXPECT_EQ(field(agg, "last_compact_ms"), scraped("facet_compaction_last_ms", {})) << agg;
  obs::HistogramSnapshot latency =
      registry.histogram("facet_serve_request_latency", obs::label("verb", "lookup")).snapshot();
  latency.merge(
      registry.histogram("facet_serve_request_latency", obs::label("verb", "mlookup")).snapshot());
  for (const auto& [key, q] : {std::pair{"p50_us", 0.5}, std::pair{"p99_us", 0.99}}) {
    std::ostringstream us;
    us.setf(std::ios::fixed);
    us.precision(1);
    us << latency.quantile_ns(q) / 1000.0;
    EXPECT_NE(agg.find(std::string{" "} + key + "=" + us.str() + " "), std::string::npos)
        << key << "=" << us.str() << " in " << agg;
  }
  for (const int width : {3, 5, 6}) {
    std::string row;
    ASSERT_TRUE(static_cast<bool>(std::getline(rendered, row)));
    ASSERT_EQ(row.rfind("ok width=" + std::to_string(width) + " ", 0), 0u) << row;
    const std::string w = obs::label("width", width);
    EXPECT_EQ(field(row, "lookups"), scraped("facet_serve_lookups_total", {w})) << row;
    for (const auto& [key, label] : tiers) {
      EXPECT_EQ(field(row, key), scraped("facet_serve_lookups_total", {label, w})) << row;
    }
    EXPECT_EQ(field(row, "appended"), scraped("facet_serve_appended_total", {w})) << row;
  }
}

TEST(ServeProtocolEdge, SingleNibbleWithoutWidth2StoreSuggestsLookupAt)
{
  // The router serves widths 3 and 4 only; a single-nibble operand infers
  // n = 2 (genuinely ambiguous: n = 0, 1, 2 all encode as one digit), so
  // the err must point at the lookup@<n> escape hatch.
  StoreRouter router = make_router(0xed32ULL);
  const auto lines = run_router_serve(router, "lookup a\nquit\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("err no store routes width 2", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find("lookup@<n>"), std::string::npos) << lines[0];
}

TEST(ServeProtocolEdge, SingleNibbleWithOneCandidateWidthAnswersDirectly)
{
  // Only width 2 of the one-digit widths is routed, so a single nibble is
  // not ambiguous in this session: it resolves through the normal tier
  // stack — which, at width 2, is the O(1) NPN4 table.
  std::vector<TruthTable> all2;
  for (std::uint64_t bits = 0; bits < 16; ++bits) {
    all2.push_back(TruthTable::from_word(2, bits));
  }
  StoreRouter router;
  router.attach(std::make_unique<ClassStore>(build_class_store(all2, {})));
  router.attach(std::make_unique<ClassStore>(make_store(4, 0xed34ULL)));

  ServeStats stats;
  const auto lines = run_router_serve(router, "lookup c\nlookup 6\nstats all\nquit\n", &stats);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0].rfind("ok id=", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find(" src=table "), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find(" known=1"), std::string::npos) << lines[0];
  EXPECT_EQ(lines[1].rfind("ok id=", 0), 0u) << lines[1];
  // Both lookups land on the width-2 row.
  EXPECT_EQ(lines[3].rfind("ok width=2 lookups=2 ", 0), 0u) << lines[3];
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.table_hits, 2u);
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServeProtocolEdge, SingleNibbleWithAgreeingCandidateWidthsAnswersOnce)
{
  // Widths 1 and 2 are both routed and both hold exactly the constant-0
  // class as class 0: every read-only probe of operand '0' names the same
  // answer (id 0, rep 0, known), so the session answers it — once, at the
  // smallest candidate width — instead of erring.
  StoreRouter router;
  router.attach(std::make_unique<ClassStore>(
      build_class_store(std::vector<TruthTable>{TruthTable::from_word(1, 0)}, {})));
  router.attach(std::make_unique<ClassStore>(
      build_class_store(std::vector<TruthTable>{TruthTable::from_word(2, 0)}, {})));

  ServeStats stats;
  const auto lines = run_router_serve(router, "lookup 0\nstats all\nquit\n", &stats);
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(lines[0].rfind("ok id=0 rep=0 ", 0), 0u) << lines[0];
  EXPECT_NE(lines[0].find(" known=1"), std::string::npos) << lines[0];
  // Counted exactly once, attributed to the smallest candidate width.
  EXPECT_EQ(stats.lookups, 1u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(lines[2].rfind("ok width=1 lookups=1 ", 0), 0u) << lines[2];
  EXPECT_EQ(lines[3].rfind("ok width=2 lookups=0 ", 0), 0u) << lines[3];
}

TEST(ServeProtocolEdge, SingleNibbleWithDisagreeingCandidateWidthsErrs)
{
  // Width 1 holds constant-0; width 2 does not (it holds only the XOR
  // class). The probes disagree — one width answers, the other does not —
  // so the nibble stays an error, with the lookup@<n> escape hatch named.
  StoreRouter router;
  router.attach(std::make_unique<ClassStore>(
      build_class_store(std::vector<TruthTable>{TruthTable::from_word(1, 0)}, {})));
  router.attach(std::make_unique<ClassStore>(
      build_class_store(std::vector<TruthTable>{TruthTable::from_word(2, 0x6)}, {})));

  ServeStats stats;
  const auto lines = run_router_serve(router, "lookup 0\nlookup@1 0\nquit\n", &stats);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0],
            "err operand '0': ambiguous single nibble (widths 1,2 are routed and answer "
            "differently — pin the width with lookup@<n>)")
      << lines[0];
  // The hint works: pinning the width answers through that store.
  EXPECT_EQ(lines[1].rfind("ok id=0 rep=0 ", 0), 0u) << lines[1];
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(stats.lookups, 1u);
}

TEST(ServeProtocolEdge, StatsAllCarriesCompactionAndLatencyFields)
{
  ClassStore store = make_store(3, 0xed40ULL);
  const std::string hex = to_hex(store.persisted_records().front().representative);
  const auto lines = run_serve(store, "lookup " + hex + "\nstats all\nquit\n");
  ASSERT_EQ(lines.size(), 4u);
  const std::string& agg = lines[1];
  // The compactor surface and the request-latency quantiles ride on the
  // aggregate line; `widths=` must stay the LAST field (clients key their
  // row-count parsing off it).
  EXPECT_NE(agg.find(" compactions="), std::string::npos) << agg;
  EXPECT_NE(agg.find(" compact_bytes="), std::string::npos) << agg;
  EXPECT_NE(agg.find(" last_compact_ms="), std::string::npos) << agg;
  EXPECT_NE(agg.find(" p50_us="), std::string::npos) << agg;
  EXPECT_NE(agg.find(" p99_us="), std::string::npos) << agg;
  const std::size_t widths_at = agg.find(" widths=");
  ASSERT_NE(widths_at, std::string::npos) << agg;
  EXPECT_EQ(agg.find(' ', widths_at + 1), std::string::npos) << "widths= must be last: " << agg;
  EXPECT_GT(widths_at, agg.find(" p99_us=")) << agg;
}

TEST(ServeProtocolEdge, MetricsVerbFramesThePrometheusDump)
{
  ClassStore store = make_store(4, 0xed41ULL);
  const std::string hex = to_hex(store.persisted_records().front().representative);
  const auto lines = run_serve(store, "lookup " + hex + "\nmetrics\nquit\n");
  // Framing: `ok metrics lines=<k>`, then exactly k payload lines, then the
  // quit response — a protocol client reads precisely k lines and is back
  // in sync.
  ASSERT_GE(lines.size(), 3u);
  ASSERT_EQ(lines[1].rfind("ok metrics lines=", 0), 0u) << lines[1];
  const std::size_t payload = std::stoul(lines[1].substr(std::string{"ok metrics lines="}.size()));
  ASSERT_EQ(lines.size(), 2u + payload + 1u);
  EXPECT_EQ(lines.back(), "ok bye");

  std::string body;
  for (std::size_t i = 2; i < 2 + payload; ++i) {
    // Payload lines are Prometheus series, never protocol responses.
    EXPECT_NE(lines[i].rfind("ok ", 0), 0u) << lines[i];
    EXPECT_NE(lines[i].rfind("err ", 0), 0u) << lines[i];
    body += lines[i] + "\n";
  }
  // The serve and store instrumentation must be present: the session's own
  // request latency and the store's per-tier lookup series (resolved at
  // store construction, so they exist even before traffic).
  EXPECT_NE(body.find("facet_serve_request_latency{verb=\"lookup\""), std::string::npos);
  EXPECT_NE(body.find("facet_serve_request_latency_count{verb=\"lookup\"}"), std::string::npos);
  EXPECT_NE(body.find("facet_store_lookup_latency{tier=\"cache\""), std::string::npos);
  EXPECT_NE(body.find("facet_store_lookup_latency{tier=\"table\""), std::string::npos);
  EXPECT_NE(body.find("facet_store_hot_cache_entries"), std::string::npos);

  // The lookup preceding the scrape must have landed in its series with a
  // nonzero count: find the verb="lookup" _count line and check its value.
  const std::string count_key = "facet_serve_request_latency_count{verb=\"lookup\"} ";
  const std::size_t at = body.find(count_key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GE(std::stoull(body.substr(at + count_key.size())), 1u);

  // `metrics` takes no argument.
  const auto err_lines = run_serve(store, "metrics now\nquit\n");
  ASSERT_EQ(err_lines.size(), 2u);
  EXPECT_EQ(err_lines[0], "err metrics takes no argument");
}

TEST(ServeProtocolEdge, SlowRequestThresholdLogsStructuredLines)
{
  // Width 5: a width <= 4 lookup is one NPN4 table load (~100ns) and may
  // legitimately stay under any microsecond threshold.
  ClassStore store = make_store(5, 0xed42ULL);
  store.clear_hot_cache();
  const std::string hex = to_hex(store.persisted_records().front().representative);

  // Threshold of 1us: a cold lookup (semiclass + canonicalization) is
  // microseconds-scale, so it must cross it; the line carries verb, width,
  // resolving tier and the measured microseconds.
  ServeOptions options;
  options.slow_request_us = 1;
  std::ostringstream slow;
  options.slow_log = &slow;
  (void)run_serve(store, "lookup " + hex + "\nquit\n", nullptr, options);
  const std::string logged = slow.str();
  ASSERT_NE(logged.find("facet-serve: slow verb=lookup width=5 src="), std::string::npos)
      << logged;
  EXPECT_NE(logged.find(" us="), std::string::npos) << logged;

  // Threshold 0 disables the log entirely.
  ServeOptions quiet_options;
  quiet_options.slow_request_us = 0;
  std::ostringstream quiet;
  quiet_options.slow_log = &quiet;
  (void)run_serve(store, "lookup " + hex + "\nquit\n", nullptr, quiet_options);
  EXPECT_TRUE(quiet.str().empty()) << quiet.str();
}

TEST(ServeProtocolEdge, MemoHitsAppearInSrcAndStats)
{
  // Hot cache off, so an equivalent repeat falls through to the semiclass
  // memo instead of the exact-table cache; width 5, because a width <= 4
  // store answers from the NPN4 table and never reaches the memo and index
  // tiers.
  const int n = 5;
  std::mt19937_64 rng{0xed33ULL};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < 20; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  StoreBuildOptions build_options;
  build_options.store.hot_cache_capacity = 0;
  ClassStore store = build_class_store(funcs, build_options);

  // An NPN image of the representative with other words but the same
  // semiclass image: the memo answers it once the first lookup filled it.
  const TruthTable rep = store.persisted_records().front().representative;
  const TruthTable image = semiclass_form(rep).image;
  TruthTable variant = rep;
  for (int attempt = 0; attempt < 4096; ++attempt) {
    variant = apply_transform(rep, NpnTransform::random(n, rng));
    if (variant != rep && semiclass_form(variant).image == image) {
      break;
    }
  }
  ASSERT_NE(variant, rep);
  ASSERT_EQ(semiclass_form(variant).image, image);

  ServeStats stats;
  const auto lines = run_serve(
      store, "lookup " + to_hex(rep) + "\nlookup " + to_hex(variant) + "\nstats\nquit\n", &stats);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find(" src=index "), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find(" src=memo "), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find(" known=1"), std::string::npos) << lines[1];
  EXPECT_NE(lines[2].find(" memo_hits=1 "), std::string::npos) << lines[2];
  EXPECT_EQ(stats.memo_hits, 1u);
  // Both answers name the same class.
  EXPECT_EQ(lines[0].substr(0, lines[0].find(" rep=")),
            lines[1].substr(0, lines[1].find(" rep=")));
  EXPECT_EQ(store.num_canonicalizations(), 1u) << "the memo hit must not re-canonicalize";
}

}  // namespace
}  // namespace facet
