/// \file registry.hpp
/// \brief Named-metric registry: the process-wide telemetry surface.
///
/// Every instrumented layer resolves its metrics ONCE — at construction, or
/// through a function-local static — into stable `LatencyHistogram*` /
/// `Counter*` / `Gauge*` handles, and the hot path touches only the handle:
/// one rdtsc-class clock read (obs/clock.hpp) plus one relaxed add. The
/// registry mutex exists solely for resolution and scraping; no per-event
/// path ever takes it.
///
/// Metrics are identified by (name, labels) where `labels` is the rendered
/// Prometheus label body, e.g. `tier="cache",width="6"`. The metric catalog
/// and label conventions are documented in the README's Observability
/// section; the major series:
///
///   facet_store_lookup_latency{tier=cache|memo|table|index|live|miss,width=<n>}
///   facet_store_probe_pages{width=<n>}       (data pages touched per mmap
///                                             base-segment probe: 0 or 1)
///   facet_segment_block_scan_len{width=<n>}  (records scanned inside the
///                                             one block a probe lands on)
///   facet_serve_request_latency{verb=lookup|mlookup|info|stats|metrics|quit|other}
///   facet_serve_batch_size{verb=mlookup}
///   facet_serve_connection_lifetime
///   facet_compaction_duration{phase=flush|merge|write|adopt|total}
///   facet_canonicalize_latency{path=bb|walk}
///   facet_serve_frame_latency{proto=v1|v2,verb=...}   (v2: one frame;
///                                         v1, verb=line: one line of any
///                                         line session, socket or stdin)
///   facet_serve_active_connections        (gauge)
///   facet_serve_connections_total / facet_serve_requests_total /
///   facet_serve_errors_total / facet_store_flushed_records_total (counters)
///   facet_serve_lookups_total{tier=cache|memo|table|index|live,width=<n>}
///   facet_serve_appended_total{width=<n>}
///   facet_compaction_{runs,records,bytes}_total, facet_compaction_last_ms
///   facet_serve_workers / facet_serve_busy_workers   (gauges: reactor
///                                         event loops / loops serving)
///   facet_serve_worker_tasks / facet_serve_worker_busy_ns   (counters:
///                                         readiness events served / ns
///                                         spent serving them)
///   facet_store_delta_runs{width=<n>}     (gauge)
///   facet_store_memo_entries{width=<n>}   (gauge: semiclass images memoized)
///   facet_store_mapped_segment_bytes      (gauge)
///
/// Exposition: `render_prometheus()` emits the text format scraped by the
/// `metrics` serve verb (histograms as summary-style quantile series plus
/// _sum/_count/_max), `render_json()` the machine-readable dump behind
/// `facet_cli serve --metrics-json`.
///
/// `MetricRegistry::global()` is the process registry every built-in
/// instrumentation site uses; counts are monotonic since process start and
/// shared by everything in the process (two stores of one width share one
/// series — by design: the scrape describes the process, not an object).
/// Tests that need isolation construct their own MetricRegistry.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "facet/obs/histogram.hpp"

namespace facet::obs {

class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// The process-wide registry used by every built-in instrumentation site.
  [[nodiscard]] static MetricRegistry& global();

  /// Resolves (creating on first use) the histogram `name{labels}`. The
  /// returned reference is stable for the registry's lifetime — cache it.
  /// `labels` is the rendered label body (`tier="cache",width="6"`), empty
  /// for an unlabelled series. Throws std::logic_error if the series exists
  /// with a different metric kind.
  [[nodiscard]] LatencyHistogram& histogram(const std::string& name,
                                            const std::string& labels = {});
  [[nodiscard]] Counter& counter(const std::string& name, const std::string& labels = {});
  [[nodiscard]] Gauge& gauge(const std::string& name, const std::string& labels = {});

  /// Number of registered series (all kinds).
  [[nodiscard]] std::size_t size() const;

  /// Prometheus text exposition: histograms as summary-style series
  ///   name{labels,quantile="0.5|0.9|0.99"} <ns>
  ///   name_sum{labels} / name_count{labels} / name_max{labels}
  /// counters as `name{labels} <v>`, gauges likewise. One line per series,
  /// deterministic (name, labels) order, no trailing blank line.
  void render_prometheus(std::ostream& os) const;

  /// JSON dump of every series (the --metrics-json format): an object with
  /// a "metrics" array; histograms carry count/sum_ns/max_ns and estimated
  /// p50/p90/p99 ns.
  void render_json(std::ostream& os) const;

 private:
  struct Entry {
    std::unique_ptr<LatencyHistogram> histogram;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
  };

  using Key = std::pair<std::string, std::string>;  // (name, label body)

  [[nodiscard]] Entry& resolve(const std::string& name, const std::string& labels);

  mutable std::mutex mutex_;
  std::map<Key, Entry> metrics_;
};

/// Formats one label pair into the registry's label-body convention:
/// `key="value"`. Join multiple with ','.
[[nodiscard]] std::string label(const std::string& key, const std::string& value);

/// label() with a numeric value (widths, shard ids).
[[nodiscard]] std::string label(const std::string& key, std::int64_t value);

}  // namespace facet::obs
