#include "facet/net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>

namespace facet {

Socket& Socket::operator=(Socket&& other) noexcept
{
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

TcpEndpoint parse_tcp_endpoint(const std::string& spec)
{
  TcpEndpoint endpoint;
  const auto colon = spec.rfind(':');
  const std::string port_part = colon == std::string::npos ? spec : spec.substr(colon + 1);
  endpoint.host = colon == std::string::npos ? "" : spec.substr(0, colon);
  if (endpoint.host.empty()) {
    endpoint.host = "0.0.0.0";
  }
  unsigned port = 0;
  const auto [end, ec] =
      std::from_chars(port_part.data(), port_part.data() + port_part.size(), port);
  if (ec != std::errc{} || end != port_part.data() + port_part.size() || port > 65535) {
    throw NetError{"bad listen spec '" + spec + "' (expected HOST:PORT, :PORT or PORT)"};
  }
  endpoint.port = static_cast<std::uint16_t>(port);
  return endpoint;
}

namespace {

[[noreturn]] void throw_errno(const std::string& what)
{
  throw NetError{what + ": " + std::strerror(errno)};
}

}  // namespace

void Socket::close() noexcept
{
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_tcp(const TcpEndpoint& endpoint, int backlog)
{
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(endpoint.port);
  const int rc = ::getaddrinfo(endpoint.host.c_str(), port.c_str(), &hints, &result);
  if (rc != 0) {
    throw NetError{"cannot resolve listen host '" + endpoint.host + "': " + ::gai_strerror(rc)};
  }

  Socket sock{::socket(result->ai_family, result->ai_socktype, result->ai_protocol)};
  if (!sock.valid()) {
    ::freeaddrinfo(result);
    throw_errno("socket");
  }
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int bound = ::bind(sock.fd(), result->ai_addr, result->ai_addrlen);
  ::freeaddrinfo(result);
  if (bound != 0) {
    throw_errno("bind " + endpoint.host + ":" + port);
  }
  if (::listen(sock.fd(), backlog) != 0) {
    throw_errno("listen " + endpoint.host + ":" + port);
  }
  return sock;
}

std::uint16_t local_tcp_port(const Socket& listener)
{
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Socket listen_unix(const std::string& path, int backlog)
{
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw NetError{"unix socket path too long (" + std::to_string(path.size()) + " bytes): " +
                   path};
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket sock{::socket(AF_UNIX, SOCK_STREAM, 0)};
  if (!sock.valid()) {
    throw_errno("socket(AF_UNIX)");
  }
  ::unlink(path.c_str());  // a stale socket file from a crashed run
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind " + path);
  }
  if (::listen(sock.fd(), backlog) != 0) {
    throw_errno("listen " + path);
  }
  return sock;
}

Socket accept_connection(const Socket& listener, int& error)
{
  error = 0;
  const int fd = ::accept(listener.fd(), nullptr, nullptr);
  if (fd < 0) {
    // Transient conditions — a retried accept can succeed: interruption,
    // a client that aborted mid-handshake, and resource pressure (fd or
    // buffer exhaustion under a connection burst must never be fatal).
    // `error` lets the accept loop tell these apart: fd pressure deserves
    // a backoff, an interrupted accept an immediate retry.
    if (errno == EINTR || errno == ECONNABORTED || errno == EMFILE || errno == ENFILE ||
        errno == ENOBUFS || errno == ENOMEM) {
      error = errno;
      return Socket{};
    }
    throw_errno("accept");
  }
  return Socket{fd};
}

Socket connect_tcp(const TcpEndpoint& endpoint)
{
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port = std::to_string(endpoint.port);
  const std::string host = endpoint.host.empty() ? "127.0.0.1" : endpoint.host;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &result);
  if (rc != 0) {
    throw NetError{"cannot resolve host '" + host + "': " + ::gai_strerror(rc)};
  }
  Socket sock{::socket(result->ai_family, result->ai_socktype, result->ai_protocol)};
  if (!sock.valid()) {
    ::freeaddrinfo(result);
    throw_errno("socket");
  }
  const int connected = ::connect(sock.fd(), result->ai_addr, result->ai_addrlen);
  ::freeaddrinfo(result);
  if (connected != 0) {
    throw_errno("connect " + host + ":" + port);
  }
  return sock;
}

Socket connect_unix(const std::string& path)
{
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw NetError{"unix socket path too long (" + std::to_string(path.size()) + " bytes): " +
                   path};
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  Socket sock{::socket(AF_UNIX, SOCK_STREAM, 0)};
  if (!sock.valid()) {
    throw_errno("socket(AF_UNIX)");
  }
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("connect " + path);
  }
  return sock;
}

}  // namespace facet
