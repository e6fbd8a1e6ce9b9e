/// \file reactor.hpp
/// \brief Per-worker epoll event loops for the server.
///
/// A Reactor runs one event loop per worker thread. Each loop owns a share
/// of the connections for their whole life — its own epoll set, connection
/// table, timer wheel and wake pipe — and reads, dispatches, writes and
/// expires them on its own thread: the thread that reads a frame answers
/// it. An idle connection costs one epoll registration and one timer-wheel
/// entry — no thread, no stack — so thousands of mostly-idle clients share
/// a few loops sized to the hardware.
///
/// Ownership and threading contract:
///  - add() (the accept thread) places a connection on the loop with the
///    fewest live connections, ties to the lowest index, and hands it over
///    through that loop's pending list and wake pipe. From then on only the
///    owning loop touches it. A loop frees its placement slot when it
///    decides to close a connection, before the final reply is written, so
///    a client that reconnects after reading it lands on the loop it left.
///  - Registrations are level-triggered. A ready connection is read once
///    (up to 16 KiB) per event; whatever remains is reported next turn.
///  - Replies are sent without blocking. A reply the socket cannot take
///    whole is parked on the connection, which then watches writability
///    only and reads no further requests until the tail drains — a peer
///    that does not read stalls itself, never its loop.
///  - Idle timeout is a 64-slot hashed timer wheel per loop with lazy
///    reinsertion: activity just bumps the deadline, and a popped entry
///    whose deadline moved re-files itself. Expiry runs on_close on the
///    owning loop.
///  - stop() shuts down every connection's read side and drains: EOF events
///    flow through the normal close path (on_close flushes appends). A
///    connection still holding a parked reply is retired at once, its tail
///    dropped. stop() returns when every loop's table is empty — the
///    graceful-drain guarantee the thread-per-connection server had, at
///    fleet scale.

#pragma once

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>

#include "facet/net/socket.hpp"

namespace facet {

/// Protocol session owned by one reactor connection. Every call for one
/// connection — on_data, on_eof, on_close — runs on the thread of the loop
/// that owns it, never concurrently. A session handed over while the
/// reactor stops gets only on_close, on whichever thread retires it.
class ReactorConnection {
 public:
  virtual ~ReactorConnection() = default;

  /// Called with every byte received so far (`in` accumulates; consume what
  /// you parse by erasing it). Append response bytes to `out` — the loop
  /// sends them before it reads from this connection again. Return false to
  /// close the connection after `out` drains.
  virtual bool on_data(std::string& in, std::string& out) = 0;

  /// Called once when the peer half-closes, with whatever unconsumed bytes
  /// remain — a line protocol can answer a final request that arrived
  /// without its newline. Default: ignore the tail.
  virtual void on_eof(std::string& in, std::string& out)
  {
    (void)in;
    (void)out;
  }

  /// Called exactly once, just before the connection is destroyed — on EOF,
  /// error, protocol close, idle expiry, or drain. Flush durable state
  /// here. Runs on the owning loop, which serves nothing else meanwhile.
  virtual void on_close() noexcept = 0;
};

struct ReactorOptions {
  /// Event loops, one thread each; 0 = hardware concurrency, above
  /// kMaxThreads start() throws std::invalid_argument (util/parallel.hpp).
  std::size_t workers = 0;
  /// Close connections idle for this long; <= 0 disables the timer wheel.
  std::chrono::milliseconds idle_timeout{0};
};

class Reactor {
 public:
  explicit Reactor(const ReactorOptions& options);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();

  /// Graceful drain: shuts down every connection's read side, lets each
  /// loop finish in-flight requests and run on_close, then joins every
  /// loop. Idempotent; always returns, even with peers that never read.
  void stop();

  /// Hands a connected socket to the least-loaded loop. Thread-safe (called
  /// from the accept loop). If the reactor is stopping the session's
  /// on_close runs immediately and the socket is dropped.
  void add(Socket socket, std::unique_ptr<ReactorConnection> session);

  [[nodiscard]] std::size_t num_workers() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace facet
