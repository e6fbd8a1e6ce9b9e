/// \file cli.hpp
/// \brief Tiny command-line flag parser shared by benches and examples.
///
/// Supports `--name value`, `--name=value` and boolean `--name` flags. Every
/// reproduction binary must run with no arguments (laptop-scale defaults);
/// flags scale the experiments up to paper-sized runs.

#pragma once

#include <charconv>
#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "facet/util/parallel.hpp"

namespace facet {

class CliArgs {
 public:
  /// Flags named in `boolean_flags` never consume the following token as
  /// their value (`--append e8` leaves "e8" positional); they still accept
  /// an explicit `--flag=value`. Every other `--name value` pair binds as
  /// before.
  CliArgs(int argc, char** argv, std::set<std::string> boolean_flags = {})
  {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (!boolean_flags.contains(arg) && i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        // Boolean flag. A whole std::string, not `= "1"`: GCC 12 reports a
        // spurious -Wrestrict on the inlined char* assignment.
        values_[arg] = std::string{"1"};
      }
    }
  }

  [[nodiscard]] bool has(const std::string& name) const { return values_.contains(name); }

  [[nodiscard]] std::string get_string(const std::string& name, const std::string& fallback) const
  {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const
  {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback
                               : parse_whole<std::int64_t>(name, it->second, "an integer");
  }

  /// Unsigned 64-bit getter for size/byte/count flags: full uint64 range,
  /// and a negative value is rejected outright instead of wrapping into a
  /// huge threshold.
  [[nodiscard]] std::uint64_t get_uint64(const std::string& name, std::uint64_t fallback) const
  {
    const auto it = values_.find(name);
    return it == values_.end()
               ? fallback
               : parse_whole<std::uint64_t>(name, it->second, "a non-negative integer");
  }

  [[nodiscard]] double get_double(const std::string& name, double fallback) const
  {
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : parse_whole<double>(name, it->second, "a number");
  }

  [[nodiscard]] bool get_bool(const std::string& name, bool fallback = false) const
  {
    const auto it = values_.find(name);
    if (it == values_.end()) {
      return fallback;
    }
    return it->second != "0" && it->second != "false";
  }

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// `text` read as a T with nothing left over — no trailing characters
  /// (`5x`, `1e3` for an integer), no sign on an unsigned value, nothing
  /// out of T's range; otherwise std::invalid_argument naming the flag.
  template <typename T>
  [[nodiscard]] static T parse_whole(const std::string& name, const std::string& text,
                                     const char* expected)
  {
    T value{};
    const char* last = text.data() + text.size();
    const auto [end, error] = std::from_chars(text.data(), last, value);
    if (error != std::errc{} || end != last) {
      throw std::invalid_argument{"--" + name + ": expected " + expected + ", got '" + text +
                                  "'"};
    }
    return value;
  }

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The base port of `facet_cli fleet --listen HOST:PORT --replicas N`,
/// checked before anything is forked: the primary listens on PORT and
/// replica k on PORT + k + 1. Throws std::invalid_argument unless `port` is
/// a whole number in 1-65535 (port 0 is ephemeral and would leave the
/// replica ports undetermined), `replicas` is at most kMaxThreads, and the
/// last replica port is at most 65535.
inline int fleet_base_port(const std::string& port, std::uint64_t replicas)
{
  std::int64_t base = 0;
  const char* last = port.data() + port.size();
  const auto [end, error] = std::from_chars(port.data(), last, base);
  if (error != std::errc{} || end != last || base < 1 || base > 65535) {
    throw std::invalid_argument{"fleet: base port '" + port +
                                "' is not in 1-65535 (port 0 is ephemeral)"};
  }
  if (replicas > kMaxThreads) {
    throw std::invalid_argument{"--replicas: " + std::to_string(replicas) + " is above " +
                                std::to_string(kMaxThreads)};
  }
  if (static_cast<std::uint64_t>(base) + replicas > 65535) {
    throw std::invalid_argument{"--replicas: " + std::to_string(replicas) +
                                " replicas from base port " + port + " run past port 65535"};
  }
  return static_cast<int>(base);
}

/// The main() of a bench or example: parses argv and runs `body`, any
/// callable taking the CliArgs and returning the exit code. A malformed
/// flag (a getter's std::invalid_argument, e.g. a negative count) or any
/// other exception prints "error: <what>" and exits 1, as facet_cli does.
template <typename Body>
int run_main(int argc, char** argv, Body&& body)
{
  try {
    return body(CliArgs{argc, argv});
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace facet
