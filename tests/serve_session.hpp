/// Helpers shared by the v1 serve-protocol suites: run a request script
/// through a ServeDispatcher and read the answer back as lines, and check
/// that a single store and a one-width router over an identical twin store
/// answer byte for byte alike.

#pragma once

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "facet/store/serve.hpp"

namespace facet::serve_test {

inline std::vector<std::string> run_session(ServeDispatcher dispatcher, const std::string& script,
                                            ServeStats* stats_out)
{
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
    lines.push_back(line);
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
/// be deterministic), and expects identical lines. `stats all` latency
/// quantiles are process-wide, so they are masked. Returns the single-store
/// lines.
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
