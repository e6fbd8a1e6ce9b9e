/// End-to-end tests of the socket serving subsystem: >= 8 concurrent
/// clients over TCP and Unix-domain sockets sharing one router, with class
/// ids bit-identical to classify_batch; background compaction collapsing
/// delta runs under live traffic; capacity rejection; readonly fan-out; and
/// graceful shutdown losing zero appends.

#include "facet/net/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "facet/engine/batch_engine.hpp"
#include "facet/net/socket.hpp"
#include "facet/npn/transform.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"
#include "facet/tt/tt_transform.hpp"
#include "serve_session.hpp"

namespace facet {
namespace {

using serve_test::exchange;
using serve_test::send_all;
using serve_test::serve_counter;
using serve_test::SocketLines;

std::vector<TruthTable> random_funcs(int n, std::size_t count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return funcs;
}

/// Parses "ok id=<id> ..."; -1 for anything else.
long parse_id(const std::string& line)
{
  if (line.rfind("ok id=", 0) != 0) {
    return -1;
  }
  return std::stol(line.substr(6));
}

TEST(NetServer, EightConcurrentClientsMatchBatchEngineBitIdentically)
{
  // One store per width, built from the same datasets classify_batch
  // classifies — store lookups must answer the engine's exact class ids.
  const auto funcs4 = random_funcs(4, 60, 0x4e01ULL);
  const auto funcs5 = random_funcs(5, 80, 0x4e02ULL);
  const ClassificationResult expected4 = classify_batch(funcs4, ClassifierKind::kExhaustive, {});
  const ClassificationResult expected5 = classify_batch(funcs5, ClassifierKind::kExhaustive, {});

  const std::string path4 = ::testing::TempDir() + "net_server_4.fcs";
  const std::string path5 = ::testing::TempDir() + "net_server_5.fcs";
  build_class_store(funcs4, {}).save(path4);
  build_class_store(funcs5, {}).save(path5);
  std::remove(ClassStore::delta_log_path(path4).c_str());
  std::remove(ClassStore::delta_log_path(path5).c_str());

  StoreRouter router = StoreRouter::open({path4, path5});
  const std::string unix_path = ::testing::TempDir() + "net_server_test.sock";
  const std::uint64_t errors_before = serve_counter("facet_serve_errors_total");
  const std::uint64_t sessions_before = serve_counter("facet_serve_connections_total");
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.unix_path = unix_path;
  ServeServer server{router, {{4, path4}, {5, path5}}, options};
  server.start();
  ASSERT_NE(server.tcp_port(), 0);

  // Every client queries the full mixed-width set — originals and one NPN
  // image of each (the image must land in the same class) — in mlookup
  // batches, half the fleet over TCP, half over the Unix socket.
  struct Query {
    std::string hex;
    std::uint32_t expected_id;
    int width;
  };
  std::vector<Query> queries;
  std::mt19937_64 rng{0x4e03ULL};
  for (std::size_t i = 0; i < funcs4.size(); ++i) {
    queries.push_back({to_hex(funcs4[i]), expected4.class_of[i], 4});
    queries.push_back(
        {to_hex(apply_transform(funcs4[i], NpnTransform::random(4, rng))), expected4.class_of[i], 4});
  }
  for (std::size_t i = 0; i < funcs5.size(); ++i) {
    queries.push_back({to_hex(funcs5[i]), expected5.class_of[i], 5});
    queries.push_back(
        {to_hex(apply_transform(funcs5[i], NpnTransform::random(5, rng))), expected5.class_of[i], 5});
  }

  const std::size_t num_clients = 8;
  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      // Each client walks the queries from its own offset, batched.
      std::string script;
      std::vector<std::uint32_t> expected_ids;
      const std::size_t batch = 25;
      for (std::size_t start = 0; start < queries.size(); start += batch) {
        script += "mlookup";
        for (std::size_t k = start; k < std::min(start + batch, queries.size()); ++k) {
          const Query& q = queries[(k + c * 37) % queries.size()];
          script += " " + q.hex;
          expected_ids.push_back(q.expected_id);
        }
        script += "\n";
      }
      script += "quit\n";
      Socket socket = c % 2 == 0 ? connect_tcp({"127.0.0.1", server.tcp_port()})
                                 : connect_unix(unix_path);
      const std::vector<std::string> lines = exchange(std::move(socket), script);
      if (lines.size() != expected_ids.size() + 1) {
        ++mismatches;
        return;
      }
      for (std::size_t i = 0; i < expected_ids.size(); ++i) {
        if (parse_id(lines[i]) != static_cast<long>(expected_ids[i])) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(serve_counter("facet_serve_errors_total") - errors_before, 0u);
  EXPECT_EQ(serve_counter("facet_serve_connections_total") - sessions_before, num_clients);

  server.request_shutdown();
  server.wait();
  std::remove(path4.c_str());
  std::remove(path5.c_str());
}

TEST(NetServer, BackgroundCompactionCollapsesRunsUnderLiveTraffic)
{
  const int n = 5;
  const auto base_funcs = random_funcs(n, 40, 0x4e10ULL);
  const std::string path = ::testing::TempDir() + "net_server_compact.fcs";
  build_class_store(base_funcs, {}).save(path);
  std::remove(ClassStore::delta_log_path(path).c_str());

  ClassStore store = ClassStore::open(path);
  const std::size_t base_records = store.num_records();

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.append_on_miss = true;
  options.compact_after_runs = 1;  // collapse every sealed run immediately
  ServeServer server{store, path, options};
  server.start();

  // Novel classes to append, split across sequential append sessions (each
  // session's exit flush seals one delta run for the compactor)...
  std::vector<TruthTable> novel;
  {
    std::mt19937_64 rng{0x4e11ULL};
    ClassStore probe = ClassStore::open(path);
    while (novel.size() < 12) {
      const TruthTable f = tt_random(n, rng);
      if (!probe.lookup(f).has_value()) {
        novel.push_back(f);
      }
    }
  }

  // ...while a reader hammers known lookups through the compaction swaps.
  std::atomic<bool> stop_reader{false};
  std::atomic<std::size_t> reader_errors{0};
  std::thread reader{[&] {
    while (!stop_reader.load()) {
      std::string script;
      for (std::size_t i = 0; i < 10; ++i) {
        script += "lookup " + to_hex(base_funcs[i % base_funcs.size()]) + "\n";
      }
      script += "quit\n";
      const auto lines = exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), script);
      for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
        if (parse_id(lines[i]) < 0) {
          ++reader_errors;
        }
      }
    }
  }};

  std::vector<long> appended_ids;
  for (std::size_t start = 0; start < novel.size(); start += 3) {
    std::string script;
    for (std::size_t k = start; k < std::min(start + 3, novel.size()); ++k) {
      script += "lookup " + to_hex(novel[k]) + "\n";
    }
    script += "quit\n";
    const auto lines = exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), script);
    ASSERT_GE(lines.size(), 2u);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      const long id = parse_id(lines[i]);
      ASSERT_GE(id, 0) << lines[i];
      appended_ids.push_back(id);
    }
    EXPECT_EQ(lines.back().rfind("ok bye flushed=", 0), 0u) << lines.back();
  }

  // Each session close wakes the 1-run-threshold compactor: wait for it to
  // fold the sealed runs into the base.
  for (int spin = 0; spin < 400 && server.compaction_log().empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  stop_reader.store(true);
  reader.join();
  EXPECT_FALSE(server.compaction_log().empty()) << "no compaction was observed";
  EXPECT_EQ(reader_errors.load(), 0u) << "readers failed during compaction swaps";

  server.request_shutdown();
  server.wait();
  const auto log = server.compaction_log();
  ASSERT_FALSE(log.empty());
  EXPECT_EQ(log.front().width, n);
  EXPECT_GE(log.front().runs, 1u);

  // Zero lost appends: a cold open of the swapped files answers every
  // appended class from the persisted index, under the id the live server
  // handed out.
  ClassStore reopened = ClassStore::open(path);
  EXPECT_GE(reopened.tier_snapshot()->base->size(), base_records + 1) << "the base never grew";
  for (std::size_t i = 0; i < novel.size(); ++i) {
    const auto result = reopened.lookup(novel[i]);
    ASSERT_TRUE(result.has_value()) << "append " << i << " was lost";
    EXPECT_TRUE(result->known);
    EXPECT_EQ(static_cast<long>(result->class_id), appended_ids[i]);
  }
  std::remove(path.c_str());
  std::remove(ClassStore::delta_log_path(path).c_str());
}

/// The compactor sleeps until a session closes. Sessions that close while a
/// compaction runs must still wake the next sweep: once the traffic stops,
/// every run they sealed is compacted, with no further session to wake it.
TEST(NetServer, RunsSealedDuringACompactionAreCompactedAfterTrafficStops)
{
  const int n = 6;
  // A base large enough that each compaction's merge and file write outlast
  // a loopback append session.
  const auto base_funcs = random_funcs(n, 2000, 0x4e70ULL);
  const std::string path = ::testing::TempDir() + "net_server_lost_wake.fcs";
  build_class_store(base_funcs, {}).save(path);
  std::remove(ClassStore::delta_log_path(path).c_str());

  std::vector<TruthTable> novel;
  {
    std::mt19937_64 rng{0x4e71ULL};
    ClassStore probe = ClassStore::open(path);
    while (novel.size() < 32) {
      const TruthTable f = tt_random(n, rng);
      if (!probe.lookup(f).has_value() && std::find(novel.begin(), novel.end(), f) == novel.end()) {
        novel.push_back(f);
      }
    }
  }

  ClassStore store = ClassStore::open(path);
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.append_on_miss = true;
  options.compact_after_runs = 1;
  ServeServer server{store, path, options};
  server.start();

  // One append per session, back to back: each seals its record in a run
  // (its exit flush, or the flush that opens a compaction racing it), and
  // most close while the compactor is busy folding an earlier run.
  for (const auto& f : novel) {
    const auto lines =
        exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), "lookup " + to_hex(f) + "\nquit\n");
    ASSERT_EQ(lines.size(), 2u);
    ASSERT_GE(parse_id(lines[0]), 0) << lines[0];
    ASSERT_EQ(lines[1].rfind("ok bye flushed=", 0), 0u) << lines[1];
  }

  // No traffic from here on: the sweeps already woken must fold every run.
  for (int spin = 0; spin < 2000 && store.num_delta_segments() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_EQ(store.num_delta_segments(), 0u) << "a run sealed mid-compaction was never compacted";
  std::size_t folded = 0;
  for (const auto& event : server.compaction_log()) {
    folded += event.records;
  }
  EXPECT_EQ(folded, novel.size()) << "every appended record is folded exactly once";

  server.request_shutdown();
  server.wait();
  std::remove(path.c_str());
  std::remove(ClassStore::delta_log_path(path).c_str());
}

TEST(NetServer, ReadonlyServerRejectsAppendsAndServesConcurrentReaders)
{
  const int n = 4;
  const auto funcs = random_funcs(n, 30, 0x4e20ULL);
  const std::string path = ::testing::TempDir() + "net_server_ro.fcs";
  build_class_store(funcs, {}).save(path);
  std::remove(ClassStore::delta_log_path(path).c_str());
  ClassStore store = ClassStore::open(path);

  TruthTable novel{n};
  {
    std::mt19937_64 rng{0x4e21ULL};
    do {
      novel = tt_random(n, rng);
    } while (store.lookup(novel).has_value());
    store.clear_hot_cache();
  }

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.readonly = true;
  options.append_on_miss = true;  // must be ignored under readonly
  ServeServer server{store, path, options};
  server.start();

  std::vector<std::thread> clients;
  std::atomic<std::size_t> failures{0};
  for (std::size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      std::string script = "lookup " + to_hex(funcs[0]) + "\nlookup " + to_hex(novel) + "\nquit\n";
      const auto lines = exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), script);
      if (lines.size() != 3 || parse_id(lines[0]) < 0 ||
          lines[1] != "err unknown function (readonly session)" || lines[2] != "ok bye") {
        ++failures;
      }
    });
  }
  for (auto& client : clients) {
    client.join();
  }
  EXPECT_EQ(failures.load(), 0u);

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(store.num_appended(), 0u);
  EXPECT_EQ(ClassStore::delta_log_size(ClassStore::delta_log_path(path)), 0u)
      << "a readonly server must never write a delta log";
  std::remove(path.c_str());
}

TEST(NetServer, IdleTimeoutDisconnectsAndFlushesLikeCleanExit)
{
  const int n = 4;
  const std::string path = ::testing::TempDir() + "net_server_idle.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  build_class_store(random_funcs(n, 20, 0x4e40ULL), {}).save(path);
  std::remove(dlog.c_str());
  ClassStore store = ClassStore::open(path);

  TruthTable novel{n};
  {
    std::mt19937_64 rng{0x4e41ULL};
    do {
      novel = tt_random(n, rng);
    } while (store.lookup(novel).has_value());
  }

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.append_on_miss = true;
  options.idle_timeout = std::chrono::milliseconds{100};
  ServeServer server{store, path, options};
  server.start();

  // Append one class, then go silent: the server must cut the connection
  // (EOF on our read) and the session-exit flush must make the append
  // durable — an idle client neither pins its slot nor loses work.
  Socket socket = connect_tcp({"127.0.0.1", server.tcp_port()});
  SocketLines in{socket.fd()};
  send_all(socket.fd(), "lookup " + to_hex(novel) + "\n");
  std::string line;
  ASSERT_TRUE(in.next(line));
  EXPECT_EQ(line.rfind("ok id=", 0), 0u) << line;
  EXPECT_FALSE(in.next(line)) << "the idle connection was not cut: " << line;

  for (int spin = 0; spin < 200 && ServeConnectionSlot::active() != 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  EXPECT_EQ(ServeConnectionSlot::active(), 0);
  server.request_shutdown();
  server.wait();

  ClassStore reopened = ClassStore::open(path);
  const auto replayed = reopened.lookup(novel);
  ASSERT_TRUE(replayed.has_value()) << "the idle session's append was lost";
  EXPECT_TRUE(replayed->known);
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(NetServer, ShutdownDrainsLiveConnectionsWhileOthersExitConcurrently)
{
  // Regression: wait()'s drain used to join the front connection with the
  // connections lock released and then pop_front() — a handler exiting in
  // that window could reap the joined entry, so the pop destroyed a
  // different, still-running connection (std::terminate on its joinable
  // thread, use-after-free of the handler's iterator). Hold several
  // connections open across the shutdown while others quit concurrently,
  // so the drain overlaps handler exits.
  const auto funcs = random_funcs(4, 20, 0x4e50ULL);
  const std::string path = ::testing::TempDir() + "net_server_drain.fcs";
  build_class_store(funcs, {}).save(path);
  ClassStore store = ClassStore::open(path);

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  ServeServer server{store, path, options};
  server.start();
  const std::uint64_t sessions_before = serve_counter("facet_serve_connections_total");

  // Lingerers connect, get one answer, then sit in a blocking read until
  // the drain cuts them (EOF) — they are the live connections at shutdown.
  const std::size_t num_lingerers = 6;
  std::atomic<std::size_t> lingering{0};
  std::vector<std::thread> lingerers;
  for (std::size_t c = 0; c < num_lingerers; ++c) {
    lingerers.emplace_back([&] {
      Socket socket = connect_tcp({"127.0.0.1", server.tcp_port()});
      SocketLines in{socket.fd()};
      send_all(socket.fd(), "lookup " + to_hex(funcs[0]) + "\n");
      std::string line;
      if (!in.next(line)) {
        return;
      }
      ++lingering;
      while (in.next(line)) {
        // drain: the server shuts the socket down, the read sees EOF
      }
    });
  }
  // Churners open and quit short sessions straight through the shutdown,
  // so handler exits (and their reaps) race the drain loop.
  std::atomic<bool> stop_churn{false};
  std::vector<std::thread> churners;
  for (std::size_t c = 0; c < 4; ++c) {
    churners.emplace_back([&] {
      while (!stop_churn.load()) {
        try {
          exchange(connect_tcp({"127.0.0.1", server.tcp_port()}),
                   "lookup " + to_hex(funcs[1]) + "\nquit\n");
        } catch (const NetError&) {
          return;  // listener already closed by the shutdown
        }
      }
    });
  }

  for (int spin = 0; spin < 400 && lingering.load() < num_lingerers; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  // Assertions wait until every client thread is joined: an early return
  // with joinable std::threads would escalate to std::terminate and eat
  // the real failure diagnostic.
  const std::size_t lingered = lingering.load();
  server.request_shutdown();
  server.wait();  // must join every connection exactly once, no terminate
  stop_churn.store(true);
  for (auto& t : lingerers) {
    t.join();
  }
  for (auto& t : churners) {
    t.join();
  }
  EXPECT_EQ(lingered, num_lingerers);
  EXPECT_EQ(ServeConnectionSlot::active(), 0);
  EXPECT_GE(serve_counter("facet_serve_connections_total") - sessions_before, num_lingerers);
  std::remove(path.c_str());
}

/// The per-width striping contract end to end: a fleet hammers width-4
/// reads while width-5 traffic appends, flushes (session exits) and
/// compacts (1-run-threshold background compactor) through the router —
/// reader answers stay bit-identical to classify_batch throughout, and the
/// SIGTERM-style drain (request_shutdown + wait, the exact path the CLI's
/// signal handler takes) loses zero width-5 appends.
TEST(NetServer, MixedWidthReadersStayBitIdenticalWhileAnotherWidthAppendsAndCompacts)
{
  const auto funcs4 = random_funcs(4, 50, 0x4e60ULL);
  const ClassificationResult expected4 = classify_batch(funcs4, ClassifierKind::kExhaustive, {});
  const auto funcs5 = random_funcs(5, 30, 0x4e61ULL);

  const std::string path4 = ::testing::TempDir() + "net_server_mix4.fcs";
  const std::string path5 = ::testing::TempDir() + "net_server_mix5.fcs";
  build_class_store(funcs4, {}).save(path4);
  build_class_store(funcs5, {}).save(path5);
  std::remove(ClassStore::delta_log_path(path4).c_str());
  std::remove(ClassStore::delta_log_path(path5).c_str());

  // Novel width-5 classes, found against a throwaway probe store.
  std::vector<TruthTable> novel5;
  {
    ClassStore probe = ClassStore::open(path5);
    std::mt19937_64 rng{0x4e62ULL};
    while (novel5.size() < 10) {
      const TruthTable f = tt_random(5, rng);
      if (!probe.lookup(f).has_value()) {
        novel5.push_back(f);
      }
    }
  }

  StoreRouter router = StoreRouter::open({path4, path5});
  const std::size_t base5_records = router.store_for(5)->num_records();
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.append_on_miss = true;
  options.compact_after_runs = 1;
  ServeServer server{router, {{4, path4}, {5, path5}}, options};
  server.start();

  // Width-4 readers: mlookup batches of originals + NPN images, checked
  // against the engine's exact ids, looping until the appenders finish.
  std::atomic<bool> stop_readers{false};
  std::atomic<std::size_t> reader_mismatches{0};
  std::vector<std::thread> readers;
  std::mt19937_64 image_rng{0x4e63ULL};
  std::vector<std::pair<std::string, std::uint32_t>> read_queries;
  for (std::size_t i = 0; i < funcs4.size(); ++i) {
    read_queries.emplace_back(to_hex(funcs4[i]), expected4.class_of[i]);
    read_queries.emplace_back(
        to_hex(apply_transform(funcs4[i], NpnTransform::random(4, image_rng))),
        expected4.class_of[i]);
  }
  for (std::size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop_readers.load()) {
        std::string script = "mlookup";
        for (const auto& [hex, id] : read_queries) {
          script += " " + hex;
        }
        script += "\nquit\n";
        const auto lines = exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), script);
        if (lines.size() != read_queries.size() + 1) {
          ++reader_mismatches;
          continue;
        }
        for (std::size_t i = 0; i < read_queries.size(); ++i) {
          if (parse_id(lines[i]) != static_cast<long>(read_queries[i].second)) {
            ++reader_mismatches;
          }
        }
      }
    });
  }

  // Width-5 appenders: short sequential sessions so each exit flush seals a
  // run and the 1-run compactor folds width 5 under the readers' feet.
  std::vector<long> appended_ids;
  for (std::size_t start = 0; start < novel5.size(); start += 2) {
    std::string script;
    for (std::size_t k = start; k < std::min(start + 2, novel5.size()); ++k) {
      script += "lookup " + to_hex(novel5[k]) + "\n";
    }
    script += "quit\n";
    const auto lines = exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), script);
    ASSERT_GE(lines.size(), 2u);
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      const long id = parse_id(lines[i]);
      ASSERT_GE(id, 0) << lines[i];
      appended_ids.push_back(id);
    }
    EXPECT_EQ(lines.back().rfind("ok bye flushed=", 0), 0u) << lines.back();
  }
  for (int spin = 0; spin < 400 && server.compaction_log().empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  stop_readers.store(true);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(reader_mismatches.load(), 0u)
      << "width-4 readers diverged while width 5 mutated";
  EXPECT_FALSE(server.compaction_log().empty());

  server.request_shutdown();
  server.wait();

  // Every compaction hit width 5 — width 4 had nothing to fold.
  for (const auto& event : server.compaction_log()) {
    EXPECT_EQ(event.width, 5);
  }

  // Zero lost appends across the drain: a cold reopen answers every novel
  // width-5 class from the persisted tiers under its served id, and the
  // width-4 store is untouched.
  StoreRouter reopened = StoreRouter::open({path4, path5});
  EXPECT_GE(reopened.store_for(5)->num_records(), base5_records + 1);
  for (std::size_t i = 0; i < novel5.size(); ++i) {
    const auto result = reopened.store_for(5)->lookup(novel5[i]);
    ASSERT_TRUE(result.has_value()) << "width-5 append " << i << " was lost in the drain";
    EXPECT_TRUE(result->known);
    EXPECT_EQ(static_cast<long>(result->class_id), appended_ids[i]);
  }
  for (std::size_t i = 0; i < funcs4.size(); ++i) {
    const auto result = reopened.store_for(4)->lookup(funcs4[i]);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->class_id, expected4.class_of[i]);
  }
  for (const auto& path : {path4, path5}) {
    std::remove(path.c_str());
    std::remove(ClassStore::delta_log_path(path).c_str());
  }
}

/// The v1 line cap applies to the whole line, however the reads that carry
/// it are split: a lookup line of kMaxRequestLineBytes + 1000 bytes, sent
/// as kMaxRequestLineBytes - 10 bytes, a pause, then the rest, answers the
/// err a stdin session gives it (ServeProtocolEdge.
/// OversizedRequestLineAnswersErrAndKeepsServing), and the connection
/// keeps serving.
TEST(NetServer, OversizedLineSplitAcrossReadsAnswersErrAndKeepsServing)
{
  const auto funcs = random_funcs(3, 10, 0x4e70ULL);
  const std::string path = ::testing::TempDir() + "net_server_oversized.fcs";
  build_class_store(funcs, {}).save(path);
  ClassStore store = ClassStore::open(path);

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  ServeServer server{store, path, options};
  server.start();
  const std::uint64_t errors_before = serve_counter("facet_serve_errors_total");

  // A well-formed lookup, blank-padded past the cap: only the cap can
  // turn it into an err.
  const std::string hex = to_hex(funcs.front());
  std::string oversized = "lookup " + hex;
  oversized.resize(kMaxRequestLineBytes + 1000, ' ');
  const std::size_t head = kMaxRequestLineBytes - 10;
  Socket socket = connect_tcp({"127.0.0.1", server.tcp_port()});
  ASSERT_TRUE(send_all(socket.fd(), std::string_view{oversized}.substr(0, head)));
  std::this_thread::sleep_for(std::chrono::milliseconds{100});
  ASSERT_TRUE(send_all(socket.fd(), std::string_view{oversized}.substr(head)));
  ASSERT_TRUE(send_all(socket.fd(), "\nlookup " + hex + "\nquit\n"));
  SocketLines in{socket.fd()};
  std::vector<std::string> lines;
  for (std::string line; in.next(line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "err request line exceeds " + std::to_string(kMaxRequestLineBytes) +
                          " bytes");
  EXPECT_GE(parse_id(lines[1]), 0) << "the session must survive the flood: " << lines[1];
  EXPECT_EQ(lines[2].rfind("ok bye", 0), 0u) << lines[2];
  EXPECT_EQ(serve_counter("facet_serve_errors_total") - errors_before, 1u);

  server.request_shutdown();
  server.wait();
  std::remove(path.c_str());
}

TEST(NetServer, CapacityOverflowAnswersErrAndCloses)
{
  const auto funcs = random_funcs(3, 10, 0x4e30ULL);
  const std::string path = ::testing::TempDir() + "net_server_cap.fcs";
  build_class_store(funcs, {}).save(path);
  ClassStore store = ClassStore::open(path);

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.max_connections = 1;
  ServeServer server{store, path, options};
  server.start();

  // Hold one connection open, then connect again: the second must be
  // rejected with the capacity error.
  Socket first = connect_tcp({"127.0.0.1", server.tcp_port()});
  SocketLines first_in{first.fd()};
  send_all(first.fd(), "info\n");
  std::string line;
  ASSERT_TRUE(first_in.next(line));

  const auto rejected =
      exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), std::string{});
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0].rfind("err server at capacity", 0), 0u) << rejected[0];

  send_all(first.fd(), "quit\n");
  server.request_shutdown();
  server.wait();
  std::remove(path.c_str());
}

/// The admission count is the process-wide active-connections gauge: at a
/// cap of 2, a third client reads the capacity err and sees the socket
/// close, and once one client quits its slot is free for the next.
TEST(NetServer, ConnectionCapRejectsTheThirdAndReadmitsAfterAQuit)
{
  const auto funcs = random_funcs(3, 10, 0x4e31ULL);
  const std::string path = ::testing::TempDir() + "net_server_cap2.fcs";
  build_class_store(funcs, {}).save(path);
  ClassStore store = ClassStore::open(path);

  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.max_connections = 2;
  // Bounds the test if admission breaks: an admitted third client would
  // otherwise wait forever for a close.
  options.idle_timeout = std::chrono::milliseconds{10'000};
  ServeServer server{store, path, options};
  server.start();

  // Two held connections, each admitted (answered) before the next.
  std::vector<Socket> held;
  for (int c = 0; c < 2; ++c) {
    Socket socket = connect_tcp({"127.0.0.1", server.tcp_port()});
    SocketLines in{socket.fd()};
    send_all(socket.fd(), "info\n");
    std::string line;
    ASSERT_TRUE(in.next(line));
    EXPECT_EQ(line.rfind("ok n=3 ", 0), 0u) << line;
    held.push_back(std::move(socket));
  }

  // exchange() reads to EOF: exactly one line means the server closed.
  const auto rejected = exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), std::string{});
  ASSERT_EQ(rejected.size(), 1u);
  EXPECT_EQ(rejected[0], "err server at capacity (2 connections)");

  {
    SocketLines in{held.front().fd()};
    send_all(held.front().fd(), "quit\n");
    std::string line;
    ASSERT_TRUE(in.next(line));
    EXPECT_EQ(line.rfind("ok bye", 0), 0u) << line;
    EXPECT_FALSE(in.next(line)) << line;
  }
  for (int spin = 0; spin < 400 && ServeConnectionSlot::active() != 1; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  ASSERT_EQ(ServeConnectionSlot::active(), 1);
  const auto admitted = exchange(connect_tcp({"127.0.0.1", server.tcp_port()}), "info\nquit\n");
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].rfind("ok n=3 ", 0), 0u) << admitted[0];
  EXPECT_EQ(admitted[1].rfind("ok bye", 0), 0u) << admitted[1];

  held.clear();
  server.request_shutdown();
  server.wait();
  EXPECT_EQ(ServeConnectionSlot::active(), 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace facet
