#include "facet/net/reactor.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstring>
#include <exception>
#include <iostream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/util/parallel.hpp"

namespace facet {

namespace {

/// Sends as much of `data` as the socket takes without blocking and erases
/// the sent prefix; EINTR retried, SIGPIPE suppressed. False once the peer
/// is gone.
bool send_some(int fd, std::string& data)
{
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n == 0 || errno != EINTR) {
      return false;
    }
  }
  data.erase(0, sent);
  return true;
}

using Clock = std::chrono::steady_clock;

}  // namespace

struct Reactor::Impl {
  struct Conn {
    Socket socket;
    std::unique_ptr<ReactorConnection> session;
    std::string in;        ///< received-but-unconsumed bytes
    std::string parked;    ///< reply tail the socket could not take yet
    Clock::time_point deadline{};
    bool closing = false;  ///< condemned: retire once `parked` drains
  };

  using PendingAdd = std::pair<Socket, std::unique_ptr<ReactorConnection>>;
  static constexpr std::size_t kWheelSlots = 64;

  /// One event loop on one thread. It owns its connections for their whole
  /// life: reads, runs the session, writes and expires them. Only `add`
  /// (the pending list under add_mutex, the wake pipe) and `load` are
  /// touched from other threads.
  struct Loop {
    Impl& reactor;
    /// Level-triggered epoll set: a registered fd is reported on every wait
    /// for as long as it stays ready. Watching writability replaces
    /// watching readability (a connection with a parked reply reads nothing
    /// until the reply drains).
    Socket epoll;
    std::unordered_map<int, std::unique_ptr<Conn>> conns;
    std::array<std::vector<int>, kWheelSlots> wheel;
    std::size_t wheel_pos = 0;
    Clock::time_point next_tick{};
    Socket wake_read;  ///< wake pipe: add() and stop() write a byte
    Socket wake_write;
    std::mutex add_mutex;
    std::vector<PendingAdd> pending_adds;
    /// Connections placed here and not yet condemned — the placement key.
    std::atomic<std::size_t> load{0};
    std::thread thread;

    explicit Loop(Impl& owner) : reactor{owner}, epoll{::epoll_create1(EPOLL_CLOEXEC)}
    {
      if (!epoll.valid()) {
        throw NetError{std::string{"epoll_create1: "} + std::strerror(errno)};
      }
      int pipe_fds[2];
      if (::pipe(pipe_fds) != 0) {
        throw NetError{std::string{"pipe: "} + std::strerror(errno)};
      }
      wake_read = Socket{pipe_fds[0]};
      wake_write = Socket{pipe_fds[1]};
      ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
      ::fcntl(pipe_fds[1], F_SETFL, O_NONBLOCK);
      watch(EPOLL_CTL_ADD, pipe_fds[0], EPOLLIN);
      next_tick = Clock::now() + reactor.tick;
    }
    Loop(const Loop&) = delete;
    Loop& operator=(const Loop&) = delete;

    /// Adds (EPOLL_CTL_ADD) or re-arms (EPOLL_CTL_MOD) `fd` in this loop's
    /// set for `events`; throws NetError on failure.
    void watch(int op, int fd, std::uint32_t events)
    {
      epoll_event event{};
      event.events = events;
      event.data.fd = fd;
      if (::epoll_ctl(epoll.fd(), op, fd, &event) < 0) {
        throw NetError{std::string{"epoll_ctl: "} + std::strerror(errno)};
      }
    }

    void wake() noexcept
    {
      const char byte = 'w';
      [[maybe_unused]] const ssize_t n = ::write(wake_write.fd(), &byte, 1);
    }

    // --------------------------------------------------------- timer wheel

    /// Files a connection into the wheel slot nearest its deadline (clamped
    /// to one revolution). Every live connection has exactly one entry:
    /// adoption files it, and a popped entry whose deadline moved re-files
    /// itself, so bumping a deadline is free.
    void file_in_wheel(const Conn& conn, int fd, Clock::time_point now)
    {
      const std::chrono::milliseconds tick = reactor.tick;
      if (tick.count() == 0) {
        return;
      }
      const auto rel = conn.deadline > now
                           ? std::chrono::duration_cast<std::chrono::milliseconds>(
                                 conn.deadline - now)
                           : std::chrono::milliseconds{0};
      std::size_t ticks_ahead = static_cast<std::size_t>(rel / tick) + 1;
      ticks_ahead = std::min(ticks_ahead, kWheelSlots - 1);
      wheel[(wheel_pos + ticks_ahead) % kWheelSlots].push_back(fd);
    }

    void advance_wheel(Clock::time_point now)
    {
      if (reactor.tick.count() == 0) {
        return;
      }
      while (now >= next_tick) {
        std::vector<int> entries = std::move(wheel[wheel_pos]);
        wheel[wheel_pos].clear();
        wheel_pos = (wheel_pos + 1) % kWheelSlots;
        next_tick += reactor.tick;
        for (const int fd : entries) {
          const auto it = conns.find(fd);
          if (it == conns.end()) {
            continue;  // closed since it was filed
          }
          if (now >= it->second->deadline) {
            retire(fd);
          } else {
            file_in_wheel(*it->second, fd, now);
          }
        }
      }
    }

    // --------------------------------------------------------- connections

    /// Marks a connection as closing. Placement sees the freed slot at
    /// once, before the final reply is written: a client that reconnects
    /// after reading it lands back on this loop.
    void condemn(Conn& conn)
    {
      if (!conn.closing) {
        conn.closing = true;
        load.fetch_sub(1);
      }
    }

    void retire(int fd)
    {
      const auto it = conns.find(fd);
      Conn& conn = *it->second;
      condemn(conn);
      conn.session->on_close();
      ::epoll_ctl(epoll.fd(), EPOLL_CTL_DEL, fd, nullptr);
      conns.erase(it);
    }

    /// Serves one readiness event: pushes a parked reply on, or reads once,
    /// runs the session and writes its answer without blocking.
    void serve(int fd, Conn& conn, Clock::time_point now)
    {
      conn.deadline = now + reactor.options.idle_timeout;
      if (!conn.parked.empty()) {
        if (!send_some(fd, conn.parked)) {
          retire(fd);
        } else if (conn.parked.empty()) {
          if (conn.closing) {
            retire(fd);
          } else {
            watch(EPOLL_CTL_MOD, fd, EPOLLIN);
          }
        }
        return;
      }

      char buf[16384];
      const ssize_t n = ::recv(fd, buf, sizeof buf, MSG_DONTWAIT);
      if (n < 0) {
        if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
          retire(fd);
        }
        return;
      }
      conn.in.append(buf, static_cast<std::size_t>(n));
      const bool eof = n == 0;
      std::string out;
      bool keep = true;
      try {
        keep = conn.session->on_data(conn.in, out);
        if (eof && keep) {
          conn.session->on_eof(conn.in, out);
        }
      } catch (const std::exception& e) {
        std::cerr << "facet-serve: session error: " << e.what() << "\n";
        keep = false;
      }
      if (eof || !keep) {
        condemn(conn);
      }
      if (!send_some(fd, out)) {
        retire(fd);
      } else if (!out.empty() && !reactor.stopping.load()) {
        // backpressure: read nothing more until the peer takes the tail
        conn.parked = std::move(out);
        watch(EPOLL_CTL_MOD, fd, EPOLLOUT);
      } else if (conn.closing || !out.empty()) {
        retire(fd);  // mid-drain, the tail a slow peer left is dropped
      }
    }

    void adopt_pending(Clock::time_point now)
    {
      std::vector<PendingAdd> adds;
      {
        const std::lock_guard<std::mutex> lock{add_mutex};
        adds.swap(pending_adds);
      }
      for (auto& [socket, session] : adds) {
        if (reactor.stopping.load()) {
          load.fetch_sub(1);
          session->on_close();
          continue;  // socket closes via RAII
        }
        const int fd = socket.fd();
        auto conn = std::make_unique<Conn>();
        conn->socket = std::move(socket);
        conn->session = std::move(session);
        conn->deadline = now + reactor.options.idle_timeout;
        Conn& raw = *conn;
        conns[fd] = std::move(conn);
        try {
          watch(EPOLL_CTL_ADD, fd, EPOLLIN);
        } catch (const std::exception& e) {
          std::cerr << "facet-serve: reactor add failed: " << e.what() << "\n";
          retire(fd);
          continue;
        }
        file_in_wheel(raw, fd, now);
      }
    }

    /// First drain step: shut down every connection's read side. Each then
    /// reports EOF and retires through the normal close path, so in-flight
    /// replies are written and on_close flushes appends. A connection whose
    /// peer is not taking its parked reply is retired at once.
    void begin_drain()
    {
      std::vector<int> stalled;
      for (const auto& [fd, conn] : conns) {
        if (conn->parked.empty()) {
          ::shutdown(fd, SHUT_RD);
        } else {
          stalled.push_back(fd);
        }
      }
      for (const int fd : stalled) {
        retire(fd);
      }
    }

    void run()
    {
      bool drain_begun = false;
      std::array<epoll_event, 128> events;
      for (;;) {
        const auto now = Clock::now();
        if (reactor.stopping.load() && !drain_begun) {
          begin_drain();
          drain_begun = true;
        }
        {
          // exit only with nothing left to own or adopt
          const std::lock_guard<std::mutex> lock{add_mutex};
          if (drain_begun && conns.empty() && pending_adds.empty()) {
            return;
          }
        }
        int timeout_ms = -1;
        if (reactor.tick.count() != 0) {
          const auto until =
              std::chrono::duration_cast<std::chrono::milliseconds>(next_tick - now);
          timeout_ms = static_cast<int>(std::max<long long>(0, until.count()));
        }
        int ready = ::epoll_wait(epoll.fd(), events.data(), static_cast<int>(events.size()),
                                 timeout_ms);
        if (ready < 0) {
          if (errno != EINTR) {
            throw NetError{std::string{"epoll_wait: "} + std::strerror(errno)};
          }
          ready = 0;
        }
        const auto woke = Clock::now();
        for (int i = 0; i < ready; ++i) {
          const int fd = events[static_cast<std::size_t>(i)].data.fd;
          if (fd == wake_read.fd()) {
            char drain[64];
            while (::read(fd, drain, sizeof drain) > 0) {
            }
            continue;
          }
          const auto it = conns.find(fd);
          if (it != conns.end()) {
            reactor.busy_workers->add(1);
            const std::uint64_t t0 = obs::now_ticks();
            serve(fd, *it->second, woke);
            reactor.worker_busy_ns->inc(obs::ticks_to_ns(obs::now_ticks() - t0));
            reactor.worker_tasks->inc();
            reactor.busy_workers->sub(1);
          }
        }
        adopt_pending(woke);
        advance_wheel(woke);
      }
    }

    /// After the thread is joined: retires whatever a dead loop left
    /// behind, plus any add that raced the loop's exit.
    void retire_leftovers()
    {
      while (!conns.empty()) {
        retire(conns.begin()->first);
      }
      const std::lock_guard<std::mutex> lock{add_mutex};
      for (auto& [socket, session] : pending_adds) {
        session->on_close();
      }
      pending_adds.clear();
    }
  };

  explicit Impl(const ReactorOptions& opts) : options{opts}
  {
    auto& registry = obs::MetricRegistry::global();
    workers_gauge = &registry.gauge("facet_serve_workers");
    busy_workers = &registry.gauge("facet_serve_busy_workers");
    worker_tasks = &registry.counter("facet_serve_worker_tasks");
    worker_busy_ns = &registry.counter("facet_serve_worker_busy_ns");
  }

  /// The loop with the fewest live connections; ties go to the lowest
  /// index, so a loop a closing client just left gets its reconnect.
  Loop& least_loaded()
  {
    Loop* best = loops.front().get();
    for (const auto& loop : loops) {
      if (loop->load.load() < best->load.load()) {
        best = loop.get();
      }
    }
    return *best;
  }

  ReactorOptions options;
  std::chrono::milliseconds tick{0};  ///< timer-wheel slot width; 0 = no wheel
  obs::Gauge* workers_gauge = nullptr;
  obs::Gauge* busy_workers = nullptr;
  obs::Counter* worker_tasks = nullptr;
  obs::Counter* worker_busy_ns = nullptr;

  std::atomic<bool> stopping{false};
  bool started = false;
  bool stopped = false;
  std::vector<std::unique_ptr<Loop>> loops;
};

Reactor::Reactor(const ReactorOptions& options) : impl_{std::make_unique<Impl>(options)} {}

Reactor::~Reactor()
{
  stop();
}

void Reactor::start()
{
  Impl& im = *impl_;
  if (im.started) {
    return;
  }
  const std::size_t count = resolve_num_threads(im.options.workers);
  im.started = true;

  if (im.options.idle_timeout.count() > 0) {
    im.tick = std::max<std::chrono::milliseconds>(
        std::chrono::milliseconds{1},
        im.options.idle_timeout / static_cast<int>(Impl::kWheelSlots / 2));
  }
  for (std::size_t i = 0; i < count; ++i) {
    im.loops.push_back(std::make_unique<Impl::Loop>(im));
  }
  im.workers_gauge->set(static_cast<std::int64_t>(count));
  for (const auto& loop : im.loops) {
    loop->thread = std::thread{[&loop = *loop] {
      try {
        loop.run();
      } catch (const std::exception& e) {
        std::cerr << "facet-serve: reactor loop died: " << e.what() << "\n";
      }
    }};
  }
}

void Reactor::stop()
{
  Impl& im = *impl_;
  if (!im.started || im.stopped) {
    return;
  }
  im.stopped = true;
  im.stopping.store(true);
  for (const auto& loop : im.loops) {
    loop->wake();
  }
  for (const auto& loop : im.loops) {
    if (loop->thread.joinable()) {
      loop->thread.join();
    }
    loop->retire_leftovers();
  }
  im.workers_gauge->set(0);
}

void Reactor::add(Socket socket, std::unique_ptr<ReactorConnection> session)
{
  Impl& im = *impl_;
  if (im.started) {
    Impl::Loop& loop = im.least_loaded();
    const std::lock_guard<std::mutex> lock{loop.add_mutex};
    if (!im.stopping.load()) {
      loop.load.fetch_add(1);
      loop.pending_adds.emplace_back(std::move(socket), std::move(session));
      loop.wake();
      return;
    }
  }
  session->on_close();  // reactor gone: retire the session immediately
}

std::size_t Reactor::num_workers() const noexcept
{
  return impl_->loops.size();
}

}  // namespace facet
