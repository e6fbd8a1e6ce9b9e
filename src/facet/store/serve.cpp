#include "facet/store/serve.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <exception>
#include <iostream>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/tt/tt_io.hpp"

namespace facet {

namespace {

/// The ServeStats field counting each tier, indexed by LookupSource.
constexpr std::array<std::uint64_t ServeStats::*, 5> kTierFields{
    &ServeStats::cache_hits, &ServeStats::memo_hits, &ServeStats::table_hits,
    &ServeStats::index_hits, &ServeStats::live};

/// The verbs `facet_serve_request_latency{verb=...}` distinguishes, indexed
/// by ServeDispatcher::Verb. kOther absorbs unknown commands (protocol
/// errors still cost time worth seeing).
constexpr std::array<const char*, 7> kVerbNames{"lookup", "mlookup", "info",
                                                "stats",  "metrics", "quit", "other"};

/// One width's `facet_serve_lookups_total{tier,width}` handles, indexed by
/// LookupSource, then its `facet_serve_appended_total{width}`.
using WidthSeries = std::array<obs::Counter*, kTierFields.size() + 1>;

/// Every registry series the serve layer bumps or `stats all` reads,
/// resolved once per process, so the per-request paths touch only stable
/// handles. A width's row resolves on first use — the constructor of a
/// dispatcher serving it, before any request — so widths no session serves
/// stay out of the scrape.
struct ServeSeries {
  ServeSeries()
  {
    for (std::size_t v = 0; v < kVerbNames.size(); ++v) {
      request_latency[v] =
          &registry.histogram("facet_serve_request_latency", obs::label("verb", kVerbNames[v]));
    }
  }

  /// `width`'s row, resolving it on first use.
  const WidthSeries& width(int width)
  {
    const auto n = static_cast<std::size_t>(width);
    if (const WidthSeries* row = rows[n].load(std::memory_order_acquire)) {
      return *row;
    }
    const std::lock_guard<std::mutex> lock{mutex};
    if (rows[n].load(std::memory_order_relaxed) == nullptr) {
      const std::string width_label = obs::label("width", width);
      for (std::size_t tier = 0; tier < kTierFields.size(); ++tier) {
        const char* name = lookup_source_name(static_cast<LookupSource>(tier));
        storage[n][tier] = &registry.counter("facet_serve_lookups_total",
                                             obs::label("tier", name) + "," + width_label);
      }
      storage[n].back() = &registry.counter("facet_serve_appended_total", width_label);
      rows[n].store(&storage[n], std::memory_order_release);
    }
    return storage[n];
  }

  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  std::array<obs::LatencyHistogram*, kVerbNames.size()> request_latency{};
  /// Every v1 line a session ends, whatever transport carried it.
  obs::LatencyHistogram& line_latency = registry.histogram(
      "facet_serve_frame_latency", obs::label("proto", "v1") + "," + obs::label("verb", "line"));
  /// mlookup operands per batch (counts, not ns).
  obs::LatencyHistogram& batch_size =
      registry.histogram("facet_serve_batch_size", obs::label("verb", "mlookup"));
  obs::Counter& requests = registry.counter("facet_serve_requests_total");
  obs::Counter& errors = registry.counter("facet_serve_errors_total");
  obs::Counter& connections = registry.counter("facet_serve_connections_total");
  obs::Gauge& active_connections = registry.gauge("facet_serve_active_connections");
  obs::Counter& flushed = registry.counter("facet_store_flushed_records_total");
  obs::LatencyHistogram& compactions =
      registry.histogram("facet_compaction_duration", obs::label("phase", "total"));
  obs::Counter& compacted_runs = registry.counter("facet_compaction_runs_total");
  obs::Counter& compacted_records = registry.counter("facet_compaction_records_total");
  obs::Counter& compacted_bytes = registry.counter("facet_compaction_bytes_total");
  obs::Gauge& last_compaction_ms = registry.gauge("facet_compaction_last_ms");
  /// Per-width rows: `rows[n]` publishes `storage[n]` once resolved
  /// (readers never create series); `mutex` serializes resolution.
  std::mutex mutex;
  std::array<WidthSeries, kMaxVars + 1> storage{};
  std::array<std::atomic<const WidthSeries*>, kMaxVars + 1> rows{};
};

ServeSeries& series()
{
  static ServeSeries instance;
  return instance;
}

[[nodiscard]] bool is_hex_digit(char c) noexcept
{
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F');
}

/// The operand without its optional "0x"/"0X" prefix.
[[nodiscard]] std::string_view hex_payload(std::string_view token) noexcept
{
  if (token.size() >= 2 && token[0] == '0' && (token[1] == 'x' || token[1] == 'X')) {
    token.remove_prefix(2);
  }
  return token;
}

/// Digit-level validity: empty payloads (a bare "0x")
/// and non-hex digits are rejected before any width/parse logic runs, so
/// every malformed operand fails in one place with one message shape.
/// Returns the reason, or an empty string for a well-formed payload.
[[nodiscard]] std::string payload_error(std::string_view payload)
{
  if (payload.empty()) {
    return "empty hex payload";
  }
  for (const char c : payload) {
    if (!is_hex_digit(c)) {
      return std::string{"invalid hex digit '"} + c + "'";
    }
  }
  return {};
}

/// The one canonical err shape for malformed operands.
[[nodiscard]] std::string operand_err(const std::string& token, const std::string& reason)
{
  return "err operand '" + token + "': " + reason;
}

/// Parses the `<n>` of a `lookup@<n>` / `mlookup@<n>` width override:
/// decimal digits only, 0 <= n <= kMaxVars. Returns -1 on anything else.
[[nodiscard]] int parse_width_override(std::string_view suffix) noexcept
{
  if (suffix.empty() || suffix.size() > 2) {
    return -1;
  }
  int value = 0;
  for (const char c : suffix) {
    if (c < '0' || c > '9') {
      return -1;
    }
    value = value * 10 + (c - '0');
  }
  return value <= kMaxVars ? value : -1;
}

/// Splits the rest of a request into whitespace-separated operands.
std::vector<std::string> read_operands(std::istringstream& request)
{
  std::vector<std::string> operands;
  std::string token;
  while (request >> token) {
    operands.push_back(std::move(token));
  }
  return operands;
}

/// Trims and comment-strips one request line; false = skip it.
bool normalize_request(const std::string& line, std::string& request)
{
  const auto begin = line.find_first_not_of(" \t\r");
  if (begin == std::string::npos || line[begin] == '#') {
    return false;
  }
  const auto end = line.find_last_not_of(" \t\r");
  request = line.substr(begin, end - begin + 1);
  return true;
}

/// Microseconds with one decimal, for the stats-all p50/p99 columns (sub-us
/// request latencies must not flatten to 0).
[[nodiscard]] std::string format_us(double ns)
{
  std::ostringstream s;
  s.setf(std::ios::fixed);
  s.precision(1);
  s << ns / 1000.0;
  return s.str();
}

/// The stores a (store, router) pair serves: `store` alone, or every
/// routed store.
std::vector<ClassStore*> served_stores(ClassStore* store, StoreRouter* router)
{
  if (router == nullptr) {
    return {store};
  }
  std::vector<ClassStore*> stores;
  for (const int width : router->widths()) {
    stores.push_back(router->store_for(width));
  }
  return stores;
}

/// The `ok id=... rep=... t=... src=... known=...` answer to one lookup.
[[nodiscard]] std::string answer_line(const StoreLookupResult& result)
{
  std::ostringstream line;
  line << "ok id=" << result.class_id << " rep=" << to_hex(result.representative)
       << " t=" << transform_to_compact(result.to_representative)
       << " src=" << lookup_source_name(result.source) << " known=" << (result.known ? 1 : 0);
  return line.str();
}

/// Hex value of one already-validated nibble.
[[nodiscard]] unsigned nibble_value(char c) noexcept
{
  if (c >= '0' && c <= '9') {
    return static_cast<unsigned>(c - '0');
  }
  return static_cast<unsigned>((c >= 'a' ? c - 'a' : c - 'A') + 10);
}

}  // namespace

ServeConnectionSlot::ServeConnectionSlot() noexcept
{
  series().connections.inc();
  series().active_connections.add(1);
}

ServeConnectionSlot::~ServeConnectionSlot()
{
  series().active_connections.sub(1);
}

std::int64_t ServeConnectionSlot::active() noexcept
{
  return series().active_connections.value();
}

ServeStats serve_totals(int width)
{
  ServeSeries& s = series();
  ServeStats totals;
  totals.requests = s.requests.value();
  totals.errors = s.errors.value();
  totals.flushed = s.flushed.value();
  for (int n = 0; n <= kMaxVars; ++n) {
    const WidthSeries* row = s.rows[static_cast<std::size_t>(n)].load(std::memory_order_acquire);
    if (row == nullptr || (width >= 0 && n != width)) {
      continue;
    }
    for (std::size_t tier = 0; tier < kTierFields.size(); ++tier) {
      const std::uint64_t answered = (*row)[tier]->value();
      totals.*kTierFields[tier] += answered;
      totals.lookups += answered;
    }
    totals.appended += row->back()->value();
  }
  return totals;
}

ServeDispatcher::ServeDispatcher(ClassStore* store, StoreRouter* router,
                                 const ServeOptions& options)
    : ServeDispatcher{served_stores(store, router), options}
{
}

ServeDispatcher::ServeDispatcher(const std::vector<ClassStore*>& stores,
                                 const ServeOptions& options)
    : options_{options}
{
  for (ClassStore* store : stores) {
    by_width_[static_cast<std::size_t>(store->num_vars())] = store;
  }
  for (ClassStore* store : by_width_) {
    if (store != nullptr) {
      stores_.push_back(store);
    }
  }
  // Resolve the served widths' rows now, so no request resolves a series.
  for (const ClassStore* store : stores_) {
    (void)series().width(store->num_vars());
  }
}

bool ServeDispatcher::consume(std::string_view bytes, std::string& out, bool at_eof)
{
  bool keep = true;
  while (keep && !bytes.empty()) {
    const std::size_t nl = bytes.find('\n');
    const std::string_view piece = bytes.substr(0, nl);
    if (!discarding_ && line_.size() + piece.size() > kMaxRequestLineBytes) {
      // an unbounded line cannot be allowed to balloon the session: drop
      // it as it streams in, answer err at its newline
      discarding_ = true;
      line_.clear();
    }
    if (!discarding_) {
      line_.append(piece);
    }
    if (nl == std::string_view::npos) {
      break;
    }
    bytes.remove_prefix(nl + 1);
    keep = end_line(out);
  }
  if (keep && at_eof && (discarding_ || !line_.empty())) {
    keep = end_line(out);  // the unterminated last line
  }
  return keep;
}

bool ServeDispatcher::end_line(std::string& out)
{
  bool keep = true;
  if (discarding_) {
    count_request();
    count_error();
    reply_ << "err request line exceeds " << kMaxRequestLineBytes << " bytes\n";
  } else {
    const std::uint64_t t0 = obs::now_ticks();
    std::string trimmed;
    if (normalize_request(line_, trimmed)) {
      count_request();
      verb_ = Verb::kOther;
      request_width_ = -1;
      request_src_ = nullptr;
      keep = handle(trimmed, reply_);
      finish_request(t0);
    }
    series().line_latency.record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
  }
  out += reply_.str();
  reply_.str({});
  line_.clear();
  discarding_ = false;
  return keep;
}

ServeStats ServeDispatcher::run(std::istream& in, std::ostream& out)
{
  const ServeConnectionSlot connection;
  std::streambuf& source = *in.rdbuf();
  std::string chunk;
  std::string reply;
  for (bool keep = true; keep;) {
    // One blocking byte, then whatever the stream already buffers: an
    // interactive client is answered line by line, a script in bulk.
    chunk.clear();
    const int first = source.sbumpc();
    const bool at_eof = first == std::char_traits<char>::eof();
    if (!at_eof) {
      chunk.push_back(static_cast<char>(first));
      const auto buffered = std::min<std::streamsize>(source.in_avail(), 1 << 16);
      if (buffered > 0) {
        chunk.resize(1 + static_cast<std::size_t>(buffered));
        chunk.resize(1 + static_cast<std::size_t>(source.sgetn(chunk.data() + 1, buffered)));
      }
    }
    keep = consume(chunk, reply, at_eof) && !at_eof;
    if (!reply.empty()) {
      out << reply << std::flush;
      reply.clear();
    }
  }
  flush_on_exit();
  return stats_;
}

/// Handles one normalized request line; false ends the session (quit).
bool ServeDispatcher::handle(const std::string& trimmed, std::ostream& out)
{
  std::istringstream request{trimmed};
  std::string command;
  request >> command;

  if (command == "quit") {
    verb_ = Verb::kQuit;
    // Flush *before* answering, so a client that reads the response knows
    // its appends are durable in the delta log.
    const bool report_flush = flush_configured();
    const std::size_t flushed = flush_on_exit();
    if (report_flush) {
      out << "ok bye flushed=" << flushed << "\n";
    } else {
      out << "ok bye\n";
    }
    return false;
  }
  if (command == "info") {
    verb_ = Verb::kInfo;
    emit_info(out);
    return true;
  }
  if (command == "metrics") {
    verb_ = Verb::kMetrics;
    if (!read_operands(request).empty()) {
      count_error();
      out << "err metrics takes no argument\n";
      return true;
    }
    emit_metrics(out);
    return true;
  }
  if (command == "stats") {
    verb_ = Verb::kStats;
    const std::vector<std::string> operands = read_operands(request);
    if (operands.size() == 1 && operands.front() == "all") {
      out << stats_all_text();
      return true;
    }
    if (!operands.empty()) {
      count_error();
      out << "err stats takes no argument or 'all'\n";
      return true;
    }
    emit_stats(out);
    return true;
  }
  // `lookup@<n>` / `mlookup@<n>` pin the operand width to n instead of
  // inferring it from the digit count — the only way to reach a width-0/1
  // store among several widths, since a single nibble infers n = 2.
  std::string base = command;
  int width_override = -1;
  if (const auto at = command.find('@'); at != std::string::npos) {
    const std::string head = command.substr(0, at);
    if (head == "lookup" || head == "mlookup") {
      width_override = parse_width_override(std::string_view{command}.substr(at + 1));
      if (width_override < 0) {
        count_error();
        out << "err bad width in '" << command << "' (use " << head << "@<n>, 0 <= n <= "
            << kMaxVars << ")\n";
        return true;
      }
      base = head;
    }
  }
  if (base == "lookup") {
    verb_ = Verb::kLookup;
    const std::vector<std::string> operands = read_operands(request);
    if (operands.size() != 1) {
      count_error();
      out << "err lookup takes exactly one hex truth table\n";
      return true;
    }
    out << resolve_operand(operands.front(), width_override) << "\n";
    return true;
  }
  if (base == "mlookup") {
    verb_ = Verb::kMlookup;
    const std::vector<std::string> operands = read_operands(request);
    if (operands.empty()) {
      count_error();
      out << "err mlookup takes one or more hex truth tables\n";
      return true;
    }
    series().batch_size.record_ns(operands.size());
    // One response line per operand, all written together: pipelined
    // clients pay the write latency once instead of per function. An err
    // on one operand answers in place; the batch always completes.
    for (const auto& hex : operands) {
      out << resolve_operand(hex, width_override) << "\n";
    }
    return true;
  }
  count_error();
  out << "err unknown command '" << command << "' (lookup|mlookup|info|stats|metrics|quit)\n";
  return true;
}

/// Resolves one hex operand end to end: digit validation, width
/// pinning/inference, store dispatch, tiered lookup. Returns the response
/// line without its newline; malformed operands answer the canonical
/// `err operand '<token>': <reason>` shape and never throw.
/// `width_override` >= 0 pins the operand width (lookup@<n>); without it, a
/// session serving exactly one width pins that width, and one serving
/// several infers the width from the digit count.
std::string ServeDispatcher::resolve_operand(const std::string& token, int width_override)
{
  const std::string_view payload = hex_payload(token);
  if (std::string reason = payload_error(payload); !reason.empty()) {
    count_error();
    return operand_err(token, reason);
  }

  int width = width_override;
  if (width < 0 && stores_.size() == 1) {
    width = stores_.front()->num_vars();
  }
  if (width >= 0) {
    const std::size_t expected = std::max<std::size_t>(1, (std::size_t{1} << width) / 4);
    if (payload.size() != expected) {
      count_error();
      std::ostringstream reason;
      reason << "expected " << expected << " hex digits for " << width << " variables, got "
             << payload.size();
      return operand_err(token, reason.str());
    }
  } else {
    width = hex_operand_width(token);
    if (width < 0) {
      count_error();
      std::ostringstream reason;
      reason << "digit count " << payload.size()
             << " maps to no function width (must be a power of two, n <= " << kMaxVars << ")";
      return operand_err(token, reason.str());
    }
    if (payload.size() == 1) {
      // A single nibble names up to three widths (n = 0, 1, 2 all
      // serialize as one digit): gather every served width that can encode
      // the digit (value < 2^(2^n)) instead of hard-wiring n = 2. Exactly
      // one candidate answers through the normal path below.
      const unsigned value = nibble_value(payload.front());
      std::vector<int> candidates;
      for (int n = 0; n <= 2; ++n) {
        if (value < (1u << (1u << static_cast<unsigned>(n))) && store_for_width(n) != nullptr) {
          candidates.push_back(n);
        }
      }
      if (candidates.size() != 1) {
        return resolve_ambiguous_nibble(token, candidates);
      }
      width = candidates.front();
    }
  }
  ClassStore* store = store_for_width(width);
  if (store == nullptr) {
    count_error();
    return "err no store routes width " + std::to_string(width);
  }
  try {
    const std::optional<StoreLookupResult> result =
        lookup(*store, from_hex(width, token),
               options_.append_on_miss ? MissPolicy::kAppend : MissPolicy::kTransient);
    if (!result.has_value()) {
      count_error();
      return "err unknown function (readonly session)";
    }
    return answer_line(*result);
  } catch (const std::exception& e) {
    count_error();
    return operand_err(token, e.what());
  }
}

/// A single-nibble operand that zero or several served widths can encode.
/// Several answer only when every read-only probe names the SAME answer —
/// equal class id, representative hex and known flag — rendered once, at
/// the smallest width (the transform is width-specific, so the line itself
/// cannot be compared). A disagreement — or no candidate at all — answers
/// err with a lookup@<n> hint.
std::string ServeDispatcher::resolve_ambiguous_nibble(const std::string& token,
                                                      const std::vector<int>& candidates)
{
  if (candidates.empty()) {
    count_error();
    return "err no store routes width 2 (a single hex digit infers n=2; widths 0 and 1"
           " also encode as one digit — pin the width with lookup@<n>)";
  }
  // Several served widths can encode the digit: probe each read-only —
  // an ambiguous nibble must never classify live or append — and answer
  // only a unanimous response.
  std::optional<StoreLookupResult> first;
  bool unanimous = true;
  for (const int n : candidates) {
    const auto hit = store_for_width(n)->lookup(from_hex(n, token));
    if (!hit.has_value()) {
      unanimous = false;
      break;
    }
    if (!first.has_value()) {
      first = *hit;
      continue;
    }
    if (hit->class_id != first->class_id ||
        to_hex(hit->representative) != to_hex(first->representative) ||
        hit->known != first->known) {
      unanimous = false;
      break;
    }
  }
  if (unanimous) {
    count_lookup(candidates.front(), *first, /*append_policy=*/false);
    return answer_line(*first);
  }
  count_error();
  std::ostringstream line;
  line << "err operand '" << token << "': ambiguous single nibble (widths";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    line << (i == 0 ? " " : ",") << candidates[i];
  }
  line << " are routed and answer differently — pin the width with lookup@<n>)";
  return line.str();
}

ClassStore* ServeDispatcher::store_for_width(int width) const noexcept
{
  return width < 0 || width > kMaxVars ? nullptr : by_width_[static_cast<std::size_t>(width)];
}

std::optional<StoreLookupResult> ServeDispatcher::lookup(ClassStore& store,
                                                          const TruthTable& query,
                                                          MissPolicy policy)
{
  if (options_.readonly) {
    policy = MissPolicy::kNone;
  }
  std::optional<StoreLookupResult> result =
      policy == MissPolicy::kNone ? store.lookup(query)
                                  : store.lookup_or_classify(query, policy == MissPolicy::kAppend);
  if (result.has_value()) {
    count_lookup(store.num_vars(), *result, policy == MissPolicy::kAppend);
  }
  return result;
}

/// Counts one answered lookup: the session block, the width's registry
/// series (the `stats all` rows, whose sums are the aggregate totals), and
/// the request's last resolved width/tier for the slow-request log.
/// `append_policy` is the effective per-request append policy: a live
/// answer under it is exactly an appended record.
void ServeDispatcher::count_lookup(int width, const StoreLookupResult& result,
                                   bool append_policy)
{
  const auto tier = static_cast<std::size_t>(result.source);
  ++stats_.lookups;
  ++(stats_.*kTierFields[tier]);
  const WidthSeries& row = series().width(width);
  row[tier]->inc();
  if (result.source == LookupSource::kLive && append_policy) {
    ++stats_.appended;
    row.back()->inc();
  }
  request_width_ = width;
  request_src_ = lookup_source_name(result.source);
}

void ServeDispatcher::emit_info(std::ostream& out)
{
  if (stores_.size() == 1) {
    const ClassStore& store = *stores_.front();
    out << "ok n=" << store.num_vars() << " records=" << store.num_records()
        << " appended=" << store.num_appended() << " deltas=" << store.num_delta_segments()
        << " classes=" << store.num_classes()
        << " cache_entries=" << store.hot_cache_stats().entries << "\n";
    return;
  }
  std::size_t records = 0;
  std::uint64_t classes = 0;
  std::size_t cache_entries = 0;
  out << "ok widths=";
  for (const ClassStore* store : stores_) {
    records += store->num_records();
    classes += store->num_classes();
    cache_entries += store->hot_cache_stats().entries;
    out << (store == stores_.front() ? "" : ",") << store->num_vars();
  }
  out << " stores=" << stores_.size() << " records=" << records << " classes=" << classes
      << " cache_entries=" << cache_entries << "\n";
}

void ServeDispatcher::emit_stats(std::ostream& out)
{
  std::size_t appended = 0;
  for (const ClassStore* store : stores_) {
    appended += store->num_appended();
  }
  out << "ok requests=" << stats_.requests << " lookups=" << stats_.lookups
      << " cache_hits=" << stats_.cache_hits << " memo_hits=" << stats_.memo_hits
      << " table_hits=" << stats_.table_hits << " index_hits=" << stats_.index_hits
      << " live=" << stats_.live << " appended=" << appended << " errors=" << stats_.errors
      << "\n";
}

std::string ServeDispatcher::stats_all_text()
{
  std::ostringstream out;
  ServeSeries& s = series();
  const ServeStats totals = serve_totals();
  // Process-wide request-latency quantiles over the lookup verbs. `widths=`
  // must stay the LAST field: clients key row-count parsing off it.
  obs::HistogramSnapshot requests =
      s.request_latency[static_cast<std::size_t>(Verb::kLookup)]->snapshot();
  requests.merge(s.request_latency[static_cast<std::size_t>(Verb::kMlookup)]->snapshot());
  out << "ok connections=" << s.active_connections.value()
      << " sessions=" << s.connections.value() << " requests=" << totals.requests
      << " lookups=" << totals.lookups << " cache_hits=" << totals.cache_hits
      << " memo_hits=" << totals.memo_hits << " table_hits=" << totals.table_hits
      << " index_hits=" << totals.index_hits << " live=" << totals.live
      << " errors=" << totals.errors << " flushed=" << totals.flushed
      << " compactions=" << s.compactions.snapshot().count()
      << " compacted_runs=" << s.compacted_runs.value()
      << " compacted_records=" << s.compacted_records.value()
      << " compact_bytes=" << s.compacted_bytes.value()
      << " last_compact_ms=" << s.last_compaction_ms.value()
      << " p50_us=" << format_us(requests.quantile_ns(0.5))
      << " p99_us=" << format_us(requests.quantile_ns(0.99)) << " widths=" << stores_.size()
      << "\n";
  // One row per served store; `widths=<count>` above tells clients how
  // many rows to read.
  for (const ClassStore* store : stores_) {
    const int width = store->num_vars();
    const ServeStats row = serve_totals(width);
    out << "ok width=" << width << " lookups=" << row.lookups << " cache_hits=" << row.cache_hits
        << " memo_hits=" << row.memo_hits << " table_hits=" << row.table_hits
        << " index_hits=" << row.index_hits << " live=" << row.live
        << " appended=" << row.appended << "\n";
  }
  return out.str();
}

/// The `metrics` verb: refresh the state-derived gauges from the served
/// stores, then emit the whole registry as Prometheus text, framed with a
/// line count so protocol clients know exactly how much to read.
void ServeDispatcher::emit_metrics(std::ostream& out)
{
  const std::string text = metrics_text();
  const auto lines = static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
  out << "ok metrics lines=" << lines << "\n" << text;
}

std::string ServeDispatcher::metrics_text()
{
  refresh_store_gauges();
  std::ostringstream body;
  obs::MetricRegistry::global().render_prometheus(body);
  return body.str();
}

/// Gauges derived from live store state (delta runs, memo/cache entries)
/// are refreshed at scrape time instead of on every mutation — the hot
/// paths stay untouched and the scrape is always current.
void ServeDispatcher::refresh_store_gauges()
{
  auto& registry = obs::MetricRegistry::global();
  for (const ClassStore* store : stores_) {
    const std::string width_label = obs::label("width", store->num_vars());
    registry.gauge("facet_store_delta_runs", width_label)
        .set(static_cast<std::int64_t>(store->num_delta_segments()));
    registry.gauge("facet_store_memo_entries", width_label)
        .set(static_cast<std::int64_t>(store->memo_entries()));
    registry.gauge("facet_store_hot_cache_entries", width_label)
        .set(static_cast<std::int64_t>(store->hot_cache_stats().entries));
  }
}

/// Records the finished request into its verb's latency series and emits
/// the slow-request line when a threshold is configured.
void ServeDispatcher::finish_request(std::uint64_t start_ticks)
{
  const std::uint64_t ns = obs::ticks_to_ns(obs::now_ticks() - start_ticks);
  series().request_latency[static_cast<std::size_t>(verb_)]->record_ns(ns);
  if (options_.slow_request_us == 0 || ns / 1000 < options_.slow_request_us) {
    return;
  }
  std::ostream& log = options_.slow_log != nullptr ? *options_.slow_log : std::cerr;
  log << "facet-serve: slow verb=" << kVerbNames[static_cast<std::size_t>(verb_)] << " width=";
  if (request_width_ >= 0) {
    log << request_width_;
  } else {
    log << '-';
  }
  log << " src=" << (request_src_ != nullptr ? request_src_ : "-") << " us=" << ns / 1000
      << "\n";
}

/// Seals the session's appends into the configured delta log(s) — once;
/// both the quit path and the end-of-input path land here, so appends
/// survive a client that drops the connection without a clean quit.
/// flush_delta serializes inside each store's own gate, and stores of
/// different widths flush independently.
std::size_t ServeDispatcher::flush_on_exit()
{
  if (exit_flushed_) {
    return 0;
  }
  exit_flushed_ = true;
  std::size_t flushed = 0;
  for (const auto& [width, dlog_path] : options_.dlog_paths) {
    if (ClassStore* store = store_for_width(width)) {
      flushed += store->flush_delta(dlog_path);
    }
  }
  stats_.flushed += flushed;
  return flushed;
}

void ServeDispatcher::count_request() noexcept
{
  ++stats_.requests;
  series().requests.inc();
}

void ServeDispatcher::count_error() noexcept
{
  ++stats_.errors;
  series().errors.inc();
}

int hex_operand_width(const std::string& hex) noexcept
{
  const std::string_view payload = hex_payload(hex);
  std::size_t digits = payload.size();
  if (digits == 0) {
    return -1;
  }
  for (const char c : payload) {
    if (!is_hex_digit(c)) {
      return -1;
    }
  }
  if (digits == 1) {
    return 2;  // a single nibble: n <= 2 all serialize as one digit
  }
  // digits must be a power of two: 2^n bits = 4 * digits, n = log2(digits) + 2.
  if ((digits & (digits - 1)) != 0) {
    return -1;
  }
  int width = 2;
  while (digits > 1) {
    digits >>= 1;
    ++width;
  }
  return width <= kMaxVars ? width : -1;
}

}  // namespace facet
