/// Direct tests of the epoll reactor: a fleet of mostly-idle connections
/// served by a few event loops, idle expiry through the timer wheel,
/// graceful drain on stop(), exactly-once on_close, loop affinity and
/// least-loaded placement, and backpressure from a peer that never reads.

#include "facet/net/reactor.hpp"

#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "facet/net/socket.hpp"

namespace facet {
namespace {

/// Client half of a socketpair whose server half the reactor owns.
struct ClientFd {
  int fd = -1;
  ~ClientFd()
  {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  ClientFd() = default;
  ClientFd(ClientFd&& other) noexcept : fd{other.fd} { other.fd = -1; }
  ClientFd& operator=(ClientFd&&) = delete;
};

/// Hands the reactor one end of a fresh socketpair, returns the other.
ClientFd add_conn(Reactor& reactor, std::unique_ptr<ReactorConnection> session)
{
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ClientFd client;
  client.fd = fds[0];
  reactor.add(Socket{fds[1]}, std::move(session));
  return client;
}

/// Echoes. Counts its first on_data into `opened` (when given) and its
/// on_close into `closes`: the tests' own count of served and retired
/// sessions.
class EchoConnection final : public ReactorConnection {
 public:
  EchoConnection(std::atomic<int>* closes, std::atomic<int>* opened)
      : closes_{closes}, opened_{opened}
  {
  }
  bool on_data(std::string& in, std::string& out) override
  {
    if (!served_ && opened_ != nullptr) {
      opened_->fetch_add(1);
    }
    served_ = true;
    out.append(in);
    in.clear();
    return true;
  }
  void on_close() noexcept override { closes_->fetch_add(1); }

 private:
  std::atomic<int>* closes_;
  std::atomic<int>* opened_;
  bool served_ = false;
};

ClientFd add_echo_conn(Reactor& reactor, std::atomic<int>& closes,
                       std::atomic<int>* opened = nullptr)
{
  return add_conn(reactor, std::make_unique<EchoConnection>(&closes, opened));
}

/// Thread of every session call one connection received, in order.
struct CallLog {
  std::mutex mutex;
  std::vector<std::thread::id> threads;
  int eofs = 0;
  int closes = 0;

  /// The one thread every call ran on (a default id if they disagree).
  std::thread::id owner()
  {
    const std::lock_guard<std::mutex> lock{mutex};
    const std::set<std::thread::id> distinct(threads.begin(), threads.end());
    EXPECT_EQ(distinct.size(), 1u) << "calls of one connection ran on several threads";
    return distinct.size() == 1 ? *distinct.begin() : std::thread::id{};
  }
};

/// Echoes, records the calling thread of every callback, and ends the
/// session (answering "bye") on a line containing "quit".
class RecordingConnection final : public ReactorConnection {
 public:
  explicit RecordingConnection(CallLog* log) : log_{log} {}
  bool on_data(std::string& in, std::string& out) override
  {
    record();
    const bool quit = in.find("quit") != std::string::npos;
    out.append(quit ? "bye\n" : in);
    in.clear();
    return !quit;
  }
  void on_eof(std::string&, std::string&) override { record(&log_->eofs); }
  void on_close() noexcept override { record(&log_->closes); }

 private:
  void record(int* tally = nullptr)
  {
    const std::lock_guard<std::mutex> lock{log_->mutex};
    log_->threads.push_back(std::this_thread::get_id());
    if (tally != nullptr) {
      ++*tally;
    }
  }

  CallLog* log_;
};

/// Sends `message` and collects the echo; gives up after `budget`, so a
/// stalled reactor fails the test instead of hanging it.
std::string echo_roundtrip(int fd, const std::string& message,
                           std::chrono::milliseconds budget = std::chrono::seconds{5})
{
  EXPECT_EQ(::send(fd, message.data(), message.size(), 0),
            static_cast<ssize_t>(message.size()));
  const auto deadline = std::chrono::steady_clock::now() + budget;
  std::string reply;
  char buf[4096];
  while (reply.size() < message.size()) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd readable{fd, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&readable, 1, static_cast<int>(left.count())) <= 0) {
      break;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      break;
    }
    reply.append(buf, static_cast<std::size_t>(n));
  }
  return reply;
}

/// Waits (bounded) for a condition the reactor reaches asynchronously.
template <typename Predicate>
bool eventually(Predicate pred, std::chrono::milliseconds budget = std::chrono::seconds{5})
{
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{2});
  }
  return true;
}

class ReactorSweep : public ::testing::TestWithParam<bool> {};

TEST_P(ReactorSweep, IdleFleetOnTwoWorkersEchoesEveryConnection)
{
  // 150 connections, 2 workers: the whole point of the reactor — idle
  // connections cost a poller slot, not a thread.
  ReactorOptions options;
  options.workers = 2;
  Reactor reactor{options};
  reactor.start();
  EXPECT_EQ(reactor.num_workers(), 2u);

  std::atomic<int> opened{0};
  std::atomic<int> closes{0};
  std::vector<ClientFd> clients;
  for (int i = 0; i < 150; ++i) {
    clients.push_back(add_echo_conn(reactor, closes, &opened));
  }
  // Every connection answers once, including ones registered before/after
  // hundreds of siblings...
  for (std::size_t i = 0; i < clients.size(); ++i) {
    const std::string message = "open #" + std::to_string(i) + "\n";
    ASSERT_EQ(echo_roundtrip(clients[i].fd, message), message) << "conn " << i;
  }
  EXPECT_EQ(opened.load(), 150);

  // ... and answers again after the fleet sat idle; most of it stays idle.
  for (std::size_t i = 0; i < clients.size(); i += 7) {
    const std::string message = "ping #" + std::to_string(i) + "\n";
    EXPECT_EQ(echo_roundtrip(clients[i].fd, message), message) << "conn " << i;
  }
  // ... and a second round on the same connections (rearm worked).
  for (std::size_t i = 0; i < clients.size(); i += 13) {
    const std::string message = "again #" + std::to_string(i) + "\n";
    EXPECT_EQ(echo_roundtrip(clients[i].fd, message), message) << "conn " << i;
  }

  EXPECT_EQ(closes.load(), 0);
  reactor.stop();
  // stop() drains: every connection sees exactly one on_close.
  EXPECT_EQ(closes.load(), 150);
}

TEST_P(ReactorSweep, ClientEofRetiresTheConnection)
{
  ReactorOptions options;
  options.workers = 1;
  Reactor reactor{options};
  reactor.start();

  std::atomic<int> opened{0};
  std::atomic<int> closes{0};
  {
    ClientFd client = add_echo_conn(reactor, closes, &opened);
    EXPECT_EQ(echo_roundtrip(client.fd, "hello\n"), "hello\n");
    EXPECT_EQ(opened.load(), 1);
  }  // client fd closes here
  ASSERT_TRUE(eventually([&] { return closes.load() == 1; }));
  reactor.stop();
  EXPECT_EQ(closes.load(), 1);  // exactly once, not again at stop()
}

TEST_P(ReactorSweep, IdleTimeoutExpiresSilentConnections)
{
  ReactorOptions options;
  options.workers = 2;
  options.idle_timeout = std::chrono::milliseconds{100};
  Reactor reactor{options};
  reactor.start();

  std::atomic<int> closes{0};
  std::vector<ClientFd> clients;
  for (int i = 0; i < 20; ++i) {
    clients.push_back(add_echo_conn(reactor, closes));
  }

  // Say nothing: the timer wheel must retire all 20 within a few periods
  // (the clients keep their ends open, so nothing else closes them).
  ASSERT_TRUE(eventually([&] { return closes.load() == 20; }));

  // The reactor survives its whole fleet expiring: a fresh connection works.
  ClientFd late = add_echo_conn(reactor, closes);
  EXPECT_EQ(echo_roundtrip(late.fd, "still alive\n"), "still alive\n");
  reactor.stop();
  EXPECT_EQ(closes.load(), 21);
}

TEST_P(ReactorSweep, ActivityResetsTheIdleClock)
{
  ReactorOptions options;
  options.workers = 1;
  options.idle_timeout = std::chrono::milliseconds{150};
  Reactor reactor{options};
  reactor.start();

  std::atomic<int> closes{0};
  ClientFd client = add_echo_conn(reactor, closes);

  // Keep talking at half the timeout for several periods: the connection
  // must survive far past one idle_timeout of wall time.
  for (int i = 0; i < 6; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds{60});
    ASSERT_EQ(echo_roundtrip(client.fd, "tick\n"), "tick\n") << "round " << i;
  }
  EXPECT_EQ(closes.load(), 0);
  reactor.stop();
  EXPECT_EQ(closes.load(), 1);
}

TEST_P(ReactorSweep, AddAfterStopClosesTheSessionImmediately)
{
  ReactorOptions options;
  options.workers = 1;
  Reactor reactor{options};
  reactor.start();
  reactor.stop();

  std::atomic<int> opened{0};
  std::atomic<int> closes{0};
  ClientFd client = add_echo_conn(reactor, closes, &opened);
  (void)client;
  EXPECT_EQ(closes.load(), 1);
  EXPECT_EQ(opened.load(), 0);
}

TEST_P(ReactorSweep, EveryCallOfAConnectionRunsOnOneThread)
{
  ReactorOptions options;
  options.workers = 2;
  Reactor reactor{options};
  reactor.start();

  std::array<CallLog, 4> logs;
  std::vector<ClientFd> clients;
  for (CallLog& log : logs) {
    clients.push_back(add_conn(reactor, std::make_unique<RecordingConnection>(&log)));
  }
  // Interleaved traffic keeps both loops busy for many rounds.
  for (int round = 0; round < 25; ++round) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      const std::string message = std::to_string(round) + "/" + std::to_string(i) + "\n";
      ASSERT_EQ(echo_roundtrip(clients[i].fd, message), message);
    }
  }
  // Half-close: each connection answers on_data + on_eof, then on_close.
  for (const ClientFd& client : clients) {
    ::shutdown(client.fd, SHUT_WR);
  }
  ASSERT_TRUE(eventually([&] {
    for (CallLog& log : logs) {
      const std::lock_guard<std::mutex> lock{log.mutex};
      if (log.closes == 0) {
        return false;
      }
    }
    return true;
  }));
  reactor.stop();
  for (CallLog& log : logs) {
    EXPECT_EQ(log.eofs, 1);
    EXPECT_EQ(log.closes, 1);
    EXPECT_NE(log.owner(), std::thread::id{});
  }
}

TEST_P(ReactorSweep, TwoLoopsServeFourConnectionsTwoEach)
{
  ReactorOptions options;
  options.workers = 2;
  Reactor reactor{options};
  reactor.start();

  std::array<CallLog, 4> logs;
  std::vector<ClientFd> clients;
  for (CallLog& log : logs) {
    clients.push_back(add_conn(reactor, std::make_unique<RecordingConnection>(&log)));
  }
  for (const ClientFd& client : clients) {
    ASSERT_EQ(echo_roundtrip(client.fd, "hi\n"), "hi\n");
  }
  std::map<std::thread::id, int> served;
  for (CallLog& log : logs) {
    ++served[log.owner()];
  }
  reactor.stop();
  ASSERT_EQ(served.size(), 2u);
  for (const auto& [thread, connections] : served) {
    EXPECT_NE(thread, std::thread::id{});
    EXPECT_EQ(connections, 2);
  }
}

TEST_P(ReactorSweep, ANewConnectionLandsOnTheLoopAClosedOneFreed)
{
  ReactorOptions options;
  options.workers = 2;
  Reactor reactor{options};
  reactor.start();

  CallLog quitter_log;
  CallLog stayer_log;
  CallLog newcomer_log;
  ClientFd quitter = add_conn(reactor, std::make_unique<RecordingConnection>(&quitter_log));
  ClientFd stayer = add_conn(reactor, std::make_unique<RecordingConnection>(&stayer_log));
  ASSERT_EQ(echo_roundtrip(quitter.fd, "hi\n"), "hi\n");
  ASSERT_EQ(echo_roundtrip(stayer.fd, "hi\n"), "hi\n");

  // The quitter's session ends: read its last reply through to EOF, then
  // connect again, the way an ingest client reconnects after `quit`.
  ASSERT_EQ(echo_roundtrip(quitter.fd, "quit\n"), "bye\n");
  char byte;
  ASSERT_EQ(::recv(quitter.fd, &byte, 1, 0), 0);
  ClientFd newcomer = add_conn(reactor, std::make_unique<RecordingConnection>(&newcomer_log));
  for (int round = 0; round < 10; ++round) {
    ASSERT_EQ(echo_roundtrip(newcomer.fd, "again\n"), "again\n");
  }
  reactor.stop();
  const std::thread::id freed = quitter_log.owner();
  EXPECT_NE(freed, stayer_log.owner());
  EXPECT_EQ(newcomer_log.owner(), freed);
}

TEST_P(ReactorSweep, APeerThatNeverReadsStallsNoOtherConnection)
{
  ReactorOptions options;
  options.workers = 1;
  Reactor reactor{options};
  reactor.start();

  std::atomic<int> flooder_closes{0};
  std::atomic<int> reader_closes{0};
  std::atomic<int> opened{0};
  ClientFd flooder = add_echo_conn(reactor, flooder_closes, &opened);
  ClientFd reader = add_echo_conn(reactor, reader_closes, &opened);
  // Both connections are served before the flood starts.
  ASSERT_EQ(echo_roundtrip(flooder.fd, "hi\n"), "hi\n");
  ASSERT_EQ(echo_roundtrip(reader.fd, "hi\n"), "hi\n");
  ASSERT_EQ(opened.load(), 2);

  // Send echo traffic and never read it, until the send side stays full:
  // the echoes back up, so the reactor must stop reading the flooder.
  const std::string chunk(64 * 1024, 'x');
  bool blocked = false;
  for (int i = 0; i < 4096 && !blocked; ++i) {
    const ssize_t n =
        ::send(flooder.fd, chunk.data(), chunk.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << std::strerror(errno);
      pollfd writable{flooder.fd, POLLOUT, 0};
      blocked = ::poll(&writable, 1, 200) == 0;
    }
  }
  ASSERT_TRUE(blocked) << "the flooder's send never blocked";

  // The lone loop still serves the other connection.
  EXPECT_EQ(echo_roundtrip(reader.fd, "still served\n", std::chrono::seconds{2}),
            "still served\n");

  auto stopped = std::async(std::launch::async, [&reactor] { reactor.stop(); });
  const bool in_time = stopped.wait_for(std::chrono::seconds{2}) == std::future_status::ready;
  EXPECT_TRUE(in_time) << "stop() hung behind a peer that never reads";
  if (!in_time) {
    ::close(flooder.fd);  // unblock the reactor so the test can finish
    flooder.fd = -1;
  }
  stopped.get();
  EXPECT_EQ(flooder_closes.load(), 1);
  EXPECT_EQ(reader_closes.load(), 1);
}

TEST_P(ReactorSweep, AddRacingStopClosesEverySessionOnce)
{
  ReactorOptions options;
  options.workers = 2;
  Reactor reactor{options};
  reactor.start();

  constexpr int kAdders = 4;
  constexpr int kPerAdder = 50;
  std::vector<std::atomic<int>> closes(kAdders * kPerAdder);
  std::atomic<int> added{0};
  std::vector<std::vector<ClientFd>> clients(kAdders);
  std::vector<std::thread> adders;
  for (int t = 0; t < kAdders; ++t) {
    adders.emplace_back([&, t] {
      for (int i = 0; i < kPerAdder; ++i) {
        clients[static_cast<std::size_t>(t)].push_back(
            add_echo_conn(reactor, closes[static_cast<std::size_t>(t * kPerAdder + i)]));
        added.fetch_add(1);
      }
    });
  }
  std::thread stopper{[&] {
    while (added.load() < kAdders * kPerAdder / 4) {
      std::this_thread::yield();
    }
    reactor.stop();
  }};
  for (std::thread& adder : adders) {
    adder.join();
  }
  stopper.join();
  for (std::size_t i = 0; i < closes.size(); ++i) {
    EXPECT_EQ(closes[i].load(), 1) << "session " << i;
  }
}

// One instance: epoll is the one poller. The unused parameter keeps the
// case names (`PollerKinds/ReactorSweep.<case>/DefaultPoller`) stable.
INSTANTIATE_TEST_SUITE_P(PollerKinds, ReactorSweep, ::testing::Values(false),
                         [](const ::testing::TestParamInfo<bool>&) { return "DefaultPoller"; });

TEST(Reactor, StopWithoutStartIsANoop)
{
  Reactor reactor{{}};
  reactor.stop();
  reactor.stop();
  // A reactor stopped before it started refuses new sessions at once.
  std::atomic<int> closes{0};
  ClientFd client = add_echo_conn(reactor, closes);
  (void)client;
  EXPECT_EQ(closes.load(), 1);
}

}  // namespace
}  // namespace facet
