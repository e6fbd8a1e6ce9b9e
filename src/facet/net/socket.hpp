/// \file socket.hpp
/// \brief POSIX TCP and Unix-domain socket primitives for the serve listener.
///
/// Thin RAII wrappers — no framework. The server (server.hpp) composes a
/// Socket-owning listener per endpoint; tests and benches use the connect
/// helpers as clients. Everything throws NetError with the errno message on
/// failure.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace facet {

/// Raised on any socket-layer failure (bind, listen, accept, connect, ...).
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// RAII file descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_{fd} {}
  Socket(Socket&& other) noexcept : fd_{other.fd_} { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket() { close(); }

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }
  void close() noexcept;

 private:
  int fd_ = -1;
};

/// Parsed --listen spec. "HOST:PORT" binds HOST; ":PORT" and "PORT" bind
/// every interface (0.0.0.0). Port 0 asks the kernel for an ephemeral port
/// (read it back with local_tcp_port).
struct TcpEndpoint {
  std::string host;
  std::uint16_t port = 0;
};
[[nodiscard]] TcpEndpoint parse_tcp_endpoint(const std::string& spec);

/// Binds and listens on host:port (SO_REUSEADDR set, so restarts do not
/// trade TIME_WAIT for EADDRINUSE).
[[nodiscard]] Socket listen_tcp(const TcpEndpoint& endpoint, int backlog = 64);

/// The port a TCP listener actually bound — resolves port 0 requests.
[[nodiscard]] std::uint16_t local_tcp_port(const Socket& listener);

/// Binds and listens on a Unix-domain socket path. A stale socket file from
/// a previous run is unlinked first; the caller unlinks on shutdown.
[[nodiscard]] Socket listen_unix(const std::string& path, int backlog = 64);

/// Accepts one connection from a listener; blocks. Transient failures —
/// EINTR, ECONNABORTED, and fd/buffer exhaustion (EMFILE/ENFILE/ENOBUFS/
/// ENOMEM, which a connection burst can trigger and a retry can recover
/// from) — return an invalid Socket and set `error` to that errno (0 on
/// success), so the accept loop backs off only on fd / buffer pressure and
/// retries at once on EINTR / ECONNABORTED; anything else throws NetError.
[[nodiscard]] Socket accept_connection(const Socket& listener, int& error);

/// Client-side connects, used by tests, the bench and the CI smoke script.
[[nodiscard]] Socket connect_tcp(const TcpEndpoint& endpoint);
[[nodiscard]] Socket connect_unix(const std::string& path);

}  // namespace facet
