/// Replica-fleet serving: one writable primary and readonly replicas on the
/// same store directory. The primary appends and background-compacts; the
/// replicas' reload poll adopts each swapped-in base (rename detection via
/// inode/mtime/size stamps) while client lookups keep flowing — the
/// acceptance bar is ZERO failed lookups through the compaction cycle and
/// primary-assigned class ids on every replica afterwards.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "facet/net/server.hpp"
#include "facet/net/socket.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"
#include "serve_session.hpp"

namespace facet {
namespace {

using serve_test::exchange;

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

TEST(ReplicaFleet, ReplicasAdoptCompactionWithZeroFailedLookups)
{
  const int n = 5;
  const auto base_funcs = random_funcs(n, 40, 0xf1ee7ULL);
  const std::string path = ::testing::TempDir() + "replica_fleet.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  build_class_store(base_funcs, {}).save(path);
  std::remove(dlog.c_str());

  // The primary: writable, appends on miss, compacts aggressively so the
  // test exercises the swap.
  ClassStore primary_store = ClassStore::open(path);
  ServeServerOptions primary_options;
  primary_options.listen = "127.0.0.1:0";
  primary_options.append_on_miss = true;
  primary_options.compact_after_runs = 1;
  ServeServer primary{primary_store, path, primary_options};
  primary.start();
  ASSERT_NE(primary.tcp_port(), 0);

  // Two readonly replicas on the same files, each with its own store
  // instance and a fast reload poll.
  const std::size_t num_replicas = 2;
  std::vector<std::unique_ptr<ClassStore>> replica_stores;
  std::vector<std::unique_ptr<ServeServer>> replicas;
  for (std::size_t r = 0; r < num_replicas; ++r) {
    replica_stores.push_back(std::make_unique<ClassStore>(
        ClassStore::open(path, StoreOpenOptions{.use_mmap = true})));
    ServeServerOptions replica_options;
    replica_options.listen = "127.0.0.1:0";
    replica_options.readonly = true;
    replica_options.reload_poll = std::chrono::milliseconds{20};
    replicas.push_back(std::make_unique<ServeServer>(*replica_stores[r], path, replica_options));
    replicas[r]->start();
    ASSERT_NE(replicas[r]->tcp_port(), 0);
  }

  // An unchanged store never triggers a reload — the stamps taken at
  // start() match what stat() keeps reporting.
  std::this_thread::sleep_for(std::chrono::milliseconds{70});
  for (const auto& replica : replicas) {
    EXPECT_EQ(replica->reloads(), 0u) << "spurious reload of an unchanged store";
  }

  // Readers hammer the replicas with known lookups through the whole
  // append + compact + reload cycle; every response must be a hit.
  std::atomic<bool> stop_readers{false};
  std::atomic<std::size_t> failed_lookups{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < num_replicas; ++r) {
    readers.emplace_back([&, r] {
      const std::uint16_t port = replicas[r]->tcp_port();
      std::size_t round = 0;
      while (!stop_readers.load()) {
        std::string script;
        for (std::size_t i = 0; i < 8; ++i) {
          script += "lookup " + to_hex(base_funcs[(round + i) % base_funcs.size()]) + "\n";
        }
        script += "quit\n";
        const auto lines = exchange(connect_tcp({"127.0.0.1", port}), script);
        if (lines.size() != 9) {
          ++failed_lookups;
          continue;
        }
        for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
          if (parse_id(lines[i]) < 0) {
            ++failed_lookups;
          }
        }
        ++round;
      }
    });
  }

  // Novel classes through the primary, split across sessions so each exit
  // flush seals a delta run for the 1-run compactor threshold.
  std::vector<TruthTable> novel;
  {
    std::mt19937_64 rng{0xf1ee8ULL};
    ClassStore probe = ClassStore::open(path);
    while (novel.size() < 9) {
      const TruthTable f = tt_random(n, rng);
      if (!probe.lookup(f).has_value()) {
        novel.push_back(f);
      }
    }
  }
  std::vector<long> appended_ids;
  for (std::size_t start = 0; start < novel.size(); start += 3) {
    std::string script;
    for (std::size_t k = start; k < std::min(start + 3, novel.size()); ++k) {
      script += "lookup " + to_hex(novel[k]) + "\n";
    }
    script += "quit\n";
    const auto lines = exchange(connect_tcp({"127.0.0.1", primary.tcp_port()}), script);
    ASSERT_EQ(lines.size(), 4u);  // three ids + the exit-flush "ok bye"
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      const long id = parse_id(lines[i]);
      ASSERT_GE(id, 0) << lines[i];
      appended_ids.push_back(id);
    }
  }

  // Wait for the primary to fold the runs into a fresh base, then for
  // every replica's poll to adopt it.
  for (int spin = 0; spin < 600 && primary.compaction_log().empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  ASSERT_FALSE(primary.compaction_log().empty()) << "no compaction was observed";
  for (const auto& replica : replicas) {
    for (int spin = 0; spin < 600 && replica->reloads() == 0; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds{5});
    }
    EXPECT_GE(replica->reloads(), 1u) << "replica never adopted the compacted base";
  }

  stop_readers.store(true);
  for (auto& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(failed_lookups.load(), 0u) << "lookups failed during the compaction cycle";

  // Every replica now serves the appended classes under the primary's ids.
  // A replica may still be one poll behind the final on-disk state, so give
  // each one a bounded window to converge.
  for (std::size_t r = 0; r < num_replicas; ++r) {
    std::string script;
    for (const auto& f : novel) {
      script += "lookup " + to_hex(f) + "\n";
    }
    script += "quit\n";
    std::vector<std::string> lines;
    for (int attempt = 0; attempt < 200; ++attempt) {
      lines = exchange(connect_tcp({"127.0.0.1", replicas[r]->tcp_port()}), script);
      if (lines.size() == novel.size() + 1 && parse_id(lines[novel.size() - 1]) >= 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds{10});
    }
    ASSERT_EQ(lines.size(), novel.size() + 1);
    for (std::size_t i = 0; i < novel.size(); ++i) {
      EXPECT_EQ(parse_id(lines[i]), appended_ids[i])
          << "replica " << r << " diverged from the primary on append " << i;
    }
  }

  for (auto& replica : replicas) {
    replica->request_shutdown();
    replica->wait();
  }
  primary.request_shutdown();
  primary.wait();
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

TEST(ReplicaFleet, ReloadPollRecoversAfterTransientFailure)
{
  const int n = 5;
  const auto base_funcs = random_funcs(n, 25, 0xf1efULL);
  const std::string path = ::testing::TempDir() + "replica_recover.fcs";
  const std::string dlog = ClassStore::delta_log_path(path);
  build_class_store(base_funcs, {}).save(path);
  std::remove(dlog.c_str());

  ClassStore replica_store = ClassStore::open(path);
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.readonly = true;
  options.reload_poll = std::chrono::milliseconds{15};
  ServeServer replica{replica_store, path, options};
  replica.start();

  // A real flushed log, staged off to the side so the replica never sees
  // the good bytes yet.
  ClassStore writer = ClassStore::open(path);
  TruthTable novel = base_funcs[0];
  {
    std::mt19937_64 rng{0xf1f0ULL};
    while (writer.lookup(novel).has_value()) {
      novel = tt_random(n, rng);
    }
  }
  const std::uint32_t novel_id = writer.lookup_or_classify(novel, /*append_on_miss=*/true).class_id;
  const std::string staged = path + ".staged_dlog";
  ASSERT_EQ(writer.flush_delta(staged), 1u);
  std::string good_log;
  {
    std::ifstream is{staged, std::ios::binary};
    std::ostringstream os;
    os << is.rdbuf();
    good_log = os.str();
  }
  std::remove(staged.c_str());

  // A corrupt COMPLETE frame at the log path: the stamp changes, the
  // reload throws, and the replica keeps serving its current epoch
  // (failures are retried, never fatal).
  {
    std::string bad_log = good_log;
    bad_log[bad_log.size() - 3] = static_cast<char>(bad_log[bad_log.size() - 3] ^ 0x01);
    std::ofstream os{dlog, std::ios::binary | std::ios::trunc};
    os.write(bad_log.data(), static_cast<std::streamsize>(bad_log.size()));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds{80});
  EXPECT_EQ(replica.reloads(), 0u);
  {
    const auto lines = exchange(connect_tcp({"127.0.0.1", replica.tcp_port()}),
                                "lookup " + to_hex(base_funcs[0]) + "\nquit\n");
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_GE(parse_id(lines[0]), 0) << "replica stopped serving after a failed reload";
  }

  // Repair the log: the next poll succeeds and the new class appears.
  {
    std::ofstream os{dlog, std::ios::binary | std::ios::trunc};
    os.write(good_log.data(), static_cast<std::streamsize>(good_log.size()));
  }
  for (int spin = 0; spin < 600 && replica.reloads() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  }
  ASSERT_GE(replica.reloads(), 1u) << "reload never recovered after the log was repaired";
  const auto lines = exchange(connect_tcp({"127.0.0.1", replica.tcp_port()}),
                              "lookup " + to_hex(novel) + "\nquit\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(parse_id(lines[0]), static_cast<long>(novel_id));

  replica.request_shutdown();
  replica.wait();
  std::remove(path.c_str());
  std::remove(dlog.c_str());
}

}  // namespace
}  // namespace facet
