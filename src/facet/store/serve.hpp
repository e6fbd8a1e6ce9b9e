/// \file serve.hpp
/// \brief Long-lived line-protocol sessions serving class stores.
///
/// The v1 session is one byte consumer, ServeDispatcher::consume: the
/// network listener (net/server.hpp) feeds it each socket's bytes as they
/// arrive, and `facet_cli serve` feeds it stdin through run(), its stream
/// adapter — so other processes (a mapper, a test harness, a fleet of
/// remote clients) can drive a store without re-loading the index per
/// query, and every transport frames lines the same way. One request per
/// line:
///
///   lookup <hex>        ->  ok id=<id> rep=<hex> t=<compact-transform>
///                              src=<cache|memo|table|index|live> known=<0|1>
///   lookup@<n> <hex>    ->  same, with the operand's width pinned to n
///                              instead of inferred from its digit count —
///                              a guard against digit-count typos on any
///                              width, and the explicit way to name one
///                              width of a single-nibble operand (see
///                              below).
///   mlookup <hex>...    ->  one lookup-response line per operand, written
///                              together at the end of the batch — pipelined
///                              clients stop paying per-line write latency.
///                              An err on one operand answers in place and
///                              never aborts the rest of the batch.
///   mlookup@<n> <hex>...->  the batched form of lookup@<n>.
///   info                ->  ok n=<n> records=<r> appended=<a> deltas=<d>
///                              classes=<c> cache_entries=<e>
///   stats               ->  ok requests=<q> lookups=<k> cache_hits=<h>
///                              memo_hits=<m> table_hits=<t> index_hits=<i>
///                              live=<l> appended=<a> errors=<e>
///                              (this session)
///   stats all           ->  ok connections=<active> sessions=<total>
///                              requests=... lookups=... cache_hits=...
///                              memo_hits=... table_hits=... index_hits=...
///                              live=... errors=... flushed=<f>
///                              compactions=<c>
///                              compacted_runs=<r> compacted_records=<k>
///                              compact_bytes=<b> last_compact_ms=<t>
///                              p50_us=<p> p99_us=<q> widths=<w>
///                           (process-wide, read from the registry series
///                              under "Counters" below. compact_bytes/
///                              last_compact_ms describe the background
///                              compactor: delta-log bytes folded away and
///                              the last compaction's duration; p50/p99 are
///                              lookup+mlookup request latencies. `widths=`
///                              stays LAST.)
///                           followed by <w> per-width rows, one per store
///                              this session serves (ascending width), so
///                              fleet operators see which widths run hot:
///                           ok width=<n> lookups=<k> cache_hits=<h>
///                              memo_hits=<m> table_hits=<t> index_hits=<i>
///                              live=<l> appended=<a>
///                              (that width's process-wide series)
///   metrics             ->  ok metrics lines=<k>
///                           followed by exactly k lines of Prometheus text
///                              exposition (obs/registry.hpp): every
///                              registered series of the process — per-tier
///                              store lookup latency, per-verb request
///                              latency, compaction phase durations,
///                              canonicalizer latency, connection/store
///                              gauges. Payload lines never start with
///                              "ok"/"err", so line-protocol clients stay
///                              parseable.
///   quit                ->  ok bye                  (loop returns)
///                           ok bye flushed=<k>      (when a delta-log path
///                              is configured: appends are flushed to the
///                              log *before* the response, so a client that
///                              reads it knows its appends are durable)
///
/// A session serves one width -> store table (one store, or every width of
/// a StoreRouter), and only its size shapes the wire. With exactly one
/// width, an operand without `@<n>` is pinned to it and `info` answers the
/// `ok n=...` line above. With several, each operand's width is inferred
/// from its digit count (2^n bits = 4 * digits), so a mapper can stream
/// n=3..8 cut functions down one pipe; a single-nibble operand (n = 0, 1, 2
/// all serialize as one digit) resolves against every served width that
/// can encode it, answering when exactly one does or all agree, else `err`
/// with a lookup@<n> hint; and `info` reports the widths:
///
///   info                ->  ok widths=<w1,w2,...> stores=<s> records=<r>
///                              classes=<c> cache_entries=<e>
///
/// An unserved width answers `err no store routes width <n>` either way.
///
/// ## Concurrency
///
/// Sessions carry no locks: the store layer synchronizes itself
/// (class_store.hpp — snapshot-epoch reads through the per-store StoreGate,
/// a gated miss/append path, per-width striping through StoreRouter), so N
/// concurrent sessions call plain store methods and every read proceeds
/// without blocking behind appends, flushes or compaction swaps on ANY
/// width. A query resolves in the session thread through the store's tier
/// walk (the tier list in class_store.hpp).
///
/// Counters: each session owns one plain ServeStats block (`stats`), touched
/// only by its own thread. `stats all` is rendered from the process registry
/// (obs/registry.hpp), whose serve series are each bumped at one site:
/// facet_serve_requests_total / facet_serve_errors_total (count_request /
/// count_error), facet_serve_lookups_total{tier,width} (count_lookup;
/// `lookups=` is its sum), facet_serve_appended_total{width} (count_lookup),
/// facet_serve_connections_total and the facet_serve_active_connections
/// gauge (ServeConnectionSlot), facet_store_flushed_records_total (the
/// store's one flush path), and the compactor's series (net/server.hpp;
/// `compactions=` is the count of facet_compaction_duration{phase="total"}).
/// Handles resolve once per process — a width's before the first request of
/// a session serving it — so no request takes the registry mutex.
///
/// Hardening (the same code path serves untrusted network clients):
///
///   * Blank lines and `#` comments are ignored; CRLF line endings and
///     surrounding whitespace are stripped.
///   * Any malformed request answers `err <message>` and the loop continues.
///     A malformed hex operand — invalid digit, bad digit count, empty
///     `0x` payload — answers one canonical shape:
///     `err operand '<token>': <reason>`.
///   * Request lines are capped at kMaxRequestLineBytes; an oversized line
///     is discarded as it arrives and answered with a single `err` at its
///     newline instead of buffering unbounded input — however the reads
///     that carried it were split.
///   * A session that ends via EOF flushes its appends exactly like `quit`
///     (when a delta-log path is configured), so a dropped connection never
///     silently loses appended classes.
///
/// The compact transform rendering is documented in store_format.hpp
/// (transform_to_compact).

#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "facet/store/class_store.hpp"
#include "facet/store/store_router.hpp"

namespace facet {

/// Longest accepted request line (bytes, excluding the newline). Large
/// enough for multi-thousand-operand mlookup batches, small enough that a
/// hostile client cannot balloon the server by never sending a newline.
inline constexpr std::size_t kMaxRequestLineBytes = 1u << 20;

/// One session's counters — what ServeDispatcher::run returns and what
/// `stats` reports. Plain values: only the session's own thread touches
/// them (the reactor runs every callback of a connection on the one loop
/// that owns it).
struct ServeStats {
  std::uint64_t requests = 0;    ///< non-blank, non-comment request lines
  std::uint64_t lookups = 0;     ///< lookup/mlookup operands answered ok
  std::uint64_t cache_hits = 0;  ///< answered from the hot cache
  std::uint64_t memo_hits = 0;   ///< answered from the semiclass memo
  std::uint64_t table_hits = 0;  ///< answered from the NPN4 norm table
  std::uint64_t index_hits = 0;  ///< answered from the persisted index
  std::uint64_t live = 0;        ///< fell back to live classification
  std::uint64_t errors = 0;      ///< `err` responses
  std::uint64_t appended = 0;    ///< live answers that appended a class
  std::uint64_t flushed = 0;     ///< appended records flushed on session exit
};

/// Holds one served connection in the process counters for its lifetime:
/// construction bumps `facet_serve_connections_total` and the
/// `facet_serve_active_connections` gauge, destruction drops the gauge.
/// Every socket connection holds one, and so does a stream run().
class ServeConnectionSlot {
 public:
  ServeConnectionSlot() noexcept;
  ~ServeConnectionSlot();
  ServeConnectionSlot(const ServeConnectionSlot&) = delete;
  ServeConnectionSlot& operator=(const ServeConnectionSlot&) = delete;

  /// Slots held right now, process-wide (the gauge): the server's
  /// admission count.
  [[nodiscard]] static std::int64_t active() noexcept;
};

/// The process-wide serve traffic, read from the registry series: requests,
/// errors and flushed records, plus the lookups by tier and the appends of
/// `width` — or of every width when `width` < 0. What `stats all` and the
/// CLI's server exit report render.
[[nodiscard]] ServeStats serve_totals(int width = -1);

/// What a lookup does when the store does not hold the query's class.
enum class MissPolicy {
  kNone,       ///< answer nothing (ClassStore::lookup)
  kTransient,  ///< classify live; the id lasts as long as the store object
  kAppend,     ///< classify live and append the class to the store
};

struct ServeOptions {
  /// Persist unknown classes into the store (lookup_or_classify append tier).
  bool append_on_miss = false;

  /// Serve reads only: misses answer `err` instead of classifying live, and
  /// appends never happen — the fleet fan-out mode where many processes
  /// share one index read-only. Overrides append_on_miss.
  bool readonly = false;

  /// width -> delta-log path that served store's appends are flushed to
  /// when the session ends — on `quit` (reported as `ok bye flushed=<k>`)
  /// and on EOF. Empty: appends only persist if the caller flushes after
  /// the session returns.
  std::map<int, std::string> dlog_paths;

  /// When > 0: any request slower than this many microseconds logs one
  /// structured line — `facet-serve: slow verb=<v> width=<n> src=<tier>
  /// us=<t>` — to `slow_log` (stderr when null). The width/src fields
  /// describe the request's last resolved operand ("-" for verbs without
  /// one), so a slow mlookup names the store and tier that hurt.
  std::uint64_t slow_request_us = 0;
  /// Sink for slow-request lines; null = std::cerr. Tests inject a capture
  /// stream here.
  std::ostream* slow_log = nullptr;
};

/// The transport-independent core of one serve session: verb semantics
/// (lookup/append policy, width routing, stats/metrics rendering, exit
/// flush, counters) shared by every protocol front end — the v1 line
/// session (consume, which socket connections feed directly and run() feeds
/// from a stream) and the protocol v2 frame sessions (net/frame.hpp).
///
/// The dispatcher holds no lock, ever: every store access synchronizes
/// inside ClassStore (snapshot-epoch reads, a per-store mutation gate —
/// class_store.hpp). Queries resolve through the store's tier walk (the
/// tier list in class_store.hpp) in the calling thread.
class ServeDispatcher {
 public:
  /// Serves `store` alone when `router` is null, else every width `router`
  /// routes. Either way the constructor only fills the width -> store table.
  ServeDispatcher(ClassStore* store, StoreRouter* router, const ServeOptions& options);

  /// Serves every store of `stores`, each under its own width.
  ServeDispatcher(const std::vector<ClassStore*>& stores, const ServeOptions& options);

  // ---- v1 line protocol -------------------------------------------------

  /// The v1 session, fed raw bytes as they arrive, split anywhere: appends
  /// the answer of every line that `bytes` completes to `out` and keeps the
  /// unfinished tail for the next call. The one place a v1 line ends: a
  /// line longer than kMaxRequestLineBytes (newline excluded) is discarded
  /// as it arrives and answered with one `err`. `at_eof` says the input
  /// ends after `bytes`; an unterminated last line is then answered too.
  /// Returns false once `quit` ends the session — bytes after it are
  /// ignored, and the caller feeds no more. Every line is counted in
  /// `facet_serve_frame_latency{proto="v1",verb="line"}`.
  bool consume(std::string_view bytes, std::string& out, bool at_eof = false);

  /// The v1 session over streams (what a stdin session runs): feeds
  /// consume what `in` delivers, writing and flushing each answer to `out`
  /// as soon as it is ready, until `quit` or end of input; then flushes
  /// appends and returns the session stats.
  ServeStats run(std::istream& in, std::ostream& out);

  // ---- shared verb semantics (protocol v2 and other front ends) ---------

  /// The store serving `width`; nullptr when the width is not served.
  [[nodiscard]] ClassStore* store_for_width(int width) const noexcept;

  /// Resolves one parsed query through the store's tier walk under
  /// `policy` — kNone on a readonly server, whatever is asked — and counts
  /// the answer in the session block and the width's registry series.
  /// nullopt: a miss under kNone. The v1 line protocol asks kAppend under
  /// append_on_miss, else kTransient; protocol v2 asks kAppend for an
  /// `append` frame, else kNone.
  [[nodiscard]] std::optional<StoreLookupResult> lookup(ClassStore& store,
                                                        const TruthTable& query,
                                                        MissPolicy policy);

  /// Process-level readonly (appends refused regardless of request policy).
  [[nodiscard]] bool readonly() const noexcept { return options_.readonly; }

  /// The `stats all` text block (aggregate line + per-width rows) — the v2
  /// `stats` payload and the v1 `stats all` body share this rendering.
  [[nodiscard]] std::string stats_all_text();

  /// The Prometheus exposition of the whole registry, store gauges
  /// refreshed — the v2 `metrics` payload (v1 adds the `ok metrics
  /// lines=<k>` framing on top).
  [[nodiscard]] std::string metrics_text();

  /// Seals this session's appends into the configured delta log(s) — once;
  /// quit, EOF and connection-drop paths all land here, so appends survive
  /// a client that vanishes without a clean quit. Idempotent.
  std::size_t flush_on_exit();

  /// Whether an exit flush has anywhere to go (a delta-log path is
  /// configured for at least one served store).
  [[nodiscard]] bool flush_configured() const noexcept { return !options_.dlog_paths.empty(); }

  /// Count one request / one error in the session block and the registry
  /// (frame front ends count one request per frame; malformed frames also
  /// count one error).
  void count_request() noexcept;
  void count_error() noexcept;

 private:
  enum class Verb : std::size_t { kLookup, kMlookup, kInfo, kStats, kMetrics, kQuit, kOther };

  /// Answers the line held in `line_` (or the oversized one dropped while
  /// `discarding_`), appends the answer to `out` and resets both. False on
  /// `quit`.
  bool end_line(std::string& out);
  bool handle(const std::string& trimmed, std::ostream& out);
  [[nodiscard]] std::string resolve_operand(const std::string& token, int width_override);
  [[nodiscard]] std::string resolve_ambiguous_nibble(const std::string& token,
                                                     const std::vector<int>& candidates);
  void count_lookup(int width, const StoreLookupResult& result, bool append_policy);
  void emit_info(std::ostream& out);
  void emit_stats(std::ostream& out);
  void emit_metrics(std::ostream& out);
  void refresh_store_gauges();
  void finish_request(std::uint64_t start_ticks);

  /// width -> store (nullptr = not served), and the served stores by
  /// ascending width. Filled once by the constructor.
  std::array<ClassStore*, kMaxVars + 1> by_width_{};
  std::vector<ClassStore*> stores_;
  ServeOptions options_;
  ServeStats stats_;
  bool exit_flushed_ = false;

  /// v1 framing state carried between consume calls: the unfinished line
  /// and whether it passed kMaxRequestLineBytes (its bytes are then dropped
  /// as they arrive); `reply_` renders one line's answer.
  std::string line_;
  bool discarding_ = false;
  std::ostringstream reply_;

  /// Per-request scratch for the latency series and the slow-request log:
  /// the verb being handled and the last resolved operand's width/tier.
  Verb verb_ = Verb::kOther;
  int request_width_ = -1;
  const char* request_src_ = nullptr;
};

/// Function width implied by a hex operand of the line protocol: 4 * digits
/// = 2^n bits. One digit is genuinely ambiguous — n = 0, 1 and 2 all
/// serialize as a single nibble — and reads as n = 2, the LARGEST width a
/// single nibble encodes (the common case in cut streams). A session
/// serving several widths refines this: it resolves a single nibble against
/// every served width that can encode the digit, answering directly when
/// one candidate exists (or all candidates agree) and erring with a
/// lookup@<n> hint only on a genuine disagreement or when no candidate is
/// served. Returns -1
/// for an impossible digit count or any non-hex digit — a malformed operand
/// is rejected at width inference, not later inside parsing. The "0x"
/// prefix is tolerated (a bare "0x" is malformed).
[[nodiscard]] int hex_operand_width(const std::string& hex) noexcept;

}  // namespace facet
