/// Helpers shared by the serve suites: run a request script through a
/// ServeDispatcher and read the answer back as lines (with `stats all`
/// counters as this session's growth), check that a single store and a
/// one-width router over an identical twin store answer byte for byte
/// alike, read the process-wide serve counters, and talk to a server over
/// a socket with plain send(2) / recv(2).

#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cerrno>
#include <functional>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "facet/net/socket.hpp"
#include "facet/obs/registry.hpp"
#include "facet/store/serve.hpp"

namespace facet::serve_test {

/// Sends every byte of `data`; false once the peer is gone.
inline bool send_all(int fd, std::string_view data)
{
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Reads a connected socket line by line with plain recv(2), keeping the
/// bytes after the last newline for the next call.
class SocketLines {
 public:
  explicit SocketLines(int fd) : fd_{fd} {}

  /// The next line, without its "\n" or "\r\n". At end of stream, a final
  /// unterminated line counts; false once nothing is left.
  bool next(std::string& line)
  {
    std::size_t nl;
    while ((nl = pending_.find('\n')) == std::string::npos) {
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        if (pending_.empty()) {
          return false;
        }
        nl = pending_.size();
        pending_.push_back('\n');
        break;
      }
      pending_.append(buf, static_cast<std::size_t>(n));
    }
    line.assign(pending_, 0, nl);
    pending_.erase(0, nl + 1);
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    return true;
  }

 private:
  int fd_;
  std::string pending_;
};

/// Sends `script` (which must end in "quit\n" unless the server closes
/// on its own) over `socket` and reads every response line until the
/// server closes the connection.
inline std::vector<std::string> exchange(Socket socket, const std::string& script)
{
  send_all(socket.fd(), script);
  SocketLines reader{socket.fd()};
  std::vector<std::string> lines;
  for (std::string line; reader.next(line);) {
    lines.push_back(line);
  }
  return lines;
}

/// A process-wide serve counter, read straight from the registry. Tests
/// compare its growth across the traffic they drive: every earlier case of
/// the binary counted into the same series.
inline std::uint64_t serve_counter(const std::string& name)
{
  return obs::MetricRegistry::global().counter(name).value();
}

/// The `<key>=<value>` fields of one protocol line, in order.
inline std::vector<std::pair<std::string, std::string>> line_fields(const std::string& line)
{
  std::vector<std::pair<std::string, std::string>> fields;
  std::istringstream tokens{line};
  std::string token;
  while (tokens >> token) {
    if (const auto eq = token.find('='); eq != std::string::npos) {
      fields.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    }
  }
  return fields;
}

/// `stats all` is process-wide, so its counters carry every earlier session
/// of the test binary. Rewrites each counter of a `stats all` line — the
/// aggregate line or a `width=<n>` row — as its growth since the matching
/// line of `baseline` (a stats_all_text() taken before the session), so a
/// test asserts what its own session added. The levels stay as rendered:
/// connections= (a gauge), last_compact_ms=, the latency quantiles and
/// widths=. Any other line is returned unchanged.
inline std::string stats_all_growth(const std::string& line, const std::string& baseline)
{
  const bool aggregate = line.rfind("ok connections=", 0) == 0;
  if (!aggregate && line.rfind("ok width=", 0) != 0) {
    return line;
  }
  // The matching baseline line: the aggregate line, or the same width's row.
  const auto fields = line_fields(line);
  std::vector<std::pair<std::string, std::string>> base;
  std::istringstream reader{baseline};
  for (std::string base_line; std::getline(reader, base_line) && base.empty();) {
    auto head = line_fields(base_line);
    if (!head.empty() && head.front().first == fields.front().first &&
        (aggregate || head.front().second == fields.front().second)) {
      base = std::move(head);
    }
  }
  std::string rewritten = "ok";
  for (const auto& [key, value] : fields) {
    std::string shown = value;
    const bool level = key == "connections" || key == "last_compact_ms" || key == "p50_us" ||
                       key == "p99_us" || key == "widths" || key == "width";
    for (const auto& [base_key, base_value] : base) {
      if (!level && base_key == key) {
        shown = std::to_string(std::stoull(value) - std::stoull(base_value));
      }
    }
    rewritten += " " + key + "=" + shown;
  }
  return rewritten;
}

/// Runs `script` through `dispatcher`; returns the response lines, with
/// every `stats all` line rewritten by stats_all_growth.
inline std::vector<std::string> run_session(ServeDispatcher dispatcher, const std::string& script,
                                            ServeStats* stats_out)
{
  const std::string baseline = dispatcher.stats_all_text();
  std::istringstream in{script};
  std::ostringstream out;
  const ServeStats stats = dispatcher.run(in, out);
  if (stats_out != nullptr) {
    *stats_out = stats;
  }
  std::vector<std::string> lines;
  std::istringstream reader{out.str()};
  std::string line;
  while (std::getline(reader, line)) {
    lines.push_back(stats_all_growth(line, baseline));
  }
  return lines;
}

/// Serves `script` from `store` alone; returns the response lines.
inline std::vector<std::string> run_serve(ClassStore& store, const std::string& script,
                                          ServeStats* stats_out = nullptr,
                                          const ServeOptions& options = {})
{
  return run_session(ServeDispatcher{&store, nullptr, options}, script, stats_out);
}

/// Serves `script` from every width `router` routes.
inline std::vector<std::string> run_router_serve(StoreRouter& router, const std::string& script,
                                                 ServeStats* stats_out = nullptr,
                                                 const ServeOptions& options = {})
{
  return run_session(ServeDispatcher{nullptr, &router, options}, script, stats_out);
}

/// Runs the script built by `script_of` once from a store served alone and
/// once from a one-width router over an identical twin (`make_store` must
/// be deterministic), and expects identical lines. `stats all` counters
/// compare as each session's growth; its latency quantiles are
/// process-wide levels, so they are masked. Returns the single-store lines.
inline std::vector<std::string> expect_one_width_router_answers_alike(
    const std::function<ClassStore()>& make_store,
    const std::function<std::string(const ClassStore&)>& script_of,
    const ServeOptions& options = {})
{
  const std::regex latency{"p50_us=[0-9.]+ p99_us=[0-9.]+"};
  const auto masked = [&](std::vector<std::string> lines) {
    for (std::string& line : lines) {
      line = std::regex_replace(line, latency, "p50_us=* p99_us=*");
    }
    return lines;
  };
  const std::string script = script_of(make_store());
  ClassStore store = make_store();
  StoreRouter router;
  router.attach(std::make_unique<ClassStore>(make_store()));
  const auto store_lines = masked(run_serve(store, script, nullptr, options));
  EXPECT_EQ(store_lines, masked(run_router_serve(router, script, nullptr, options))) << script;
  return store_lines;
}

}  // namespace facet::serve_test
