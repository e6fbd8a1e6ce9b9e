#include "facet/net/frame.hpp"

#include <array>
#include <cstring>
#include <exception>
#include <sstream>

#include "facet/obs/clock.hpp"
#include "facet/obs/registry.hpp"
#include "facet/tt/tt_io.hpp"

namespace facet {

const char* frame_status_name(FrameStatus status) noexcept
{
  switch (status) {
    case FrameStatus::kOk: return "ok";
    case FrameStatus::kBadFrame: return "bad_frame";
    case FrameStatus::kTooLarge: return "too_large";
    case FrameStatus::kBadVerb: return "bad_verb";
    case FrameStatus::kBadWidth: return "bad_width";
    case FrameStatus::kBadCount: return "bad_count";
    case FrameStatus::kReadonly: return "readonly";
    case FrameStatus::kUnrouted: return "unrouted";
    case FrameStatus::kInternal: return "internal";
  }
  return "unknown";
}

FrameSrc frame_src(LookupSource source) noexcept
{
  switch (source) {
    case LookupSource::kTable: return FrameSrc::kTable;
    case LookupSource::kHotCache: return FrameSrc::kCache;
    case LookupSource::kMemo: return FrameSrc::kMemo;
    case LookupSource::kIndex: return FrameSrc::kIndex;
    case LookupSource::kLive: return FrameSrc::kLive;
  }
  return FrameSrc::kMiss;
}

const char* frame_src_name(std::uint8_t src) noexcept
{
  switch (static_cast<FrameSrc>(src)) {
    case FrameSrc::kTable: return "table";
    case FrameSrc::kCache: return "cache";
    case FrameSrc::kMemo: return "memo";
    case FrameSrc::kIndex: return "index";
    case FrameSrc::kLive: return "live";
    case FrameSrc::kMiss: return "miss";
  }
  return "unknown";
}

void append_u32(std::string& out, std::uint32_t value)
{
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void append_u64(std::string& out, std::uint64_t value)
{
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

std::uint32_t read_u32(const unsigned char* p) noexcept
{
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t read_u64(const unsigned char* p) noexcept
{
  std::uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) | p[i];
  }
  return value;
}

void encode_header(std::string& out, const FrameHeader& header)
{
  out.push_back(static_cast<char>(header.magic));
  out.push_back(static_cast<char>(header.verb));
  out.push_back(static_cast<char>(header.aux));
  out.push_back(static_cast<char>(header.flags));
  append_u32(out, header.payload_bytes);
}

FrameHeader decode_header(const unsigned char* p) noexcept
{
  FrameHeader header;
  header.magic = p[0];
  header.verb = p[1];
  header.aux = p[2];
  header.flags = p[3];
  header.payload_bytes = read_u32(p + 4);
  return header;
}

void encode_operand(std::string& out, const TruthTable& tt)
{
  const std::size_t bytes = frame_operand_bytes(tt.num_vars());
  std::size_t emitted = 0;
  for (std::size_t w = 0; w < tt.num_words() && emitted < bytes; ++w) {
    const std::uint64_t word = tt.word(w);
    for (int shift = 0; shift < 64 && emitted < bytes; shift += 8, ++emitted) {
      out.push_back(static_cast<char>((word >> shift) & 0xFF));
    }
  }
}

TruthTable decode_operand(int width, const unsigned char* p)
{
  const std::size_t bytes = frame_operand_bytes(width);
  // Widths up to 7 assemble their words on the stack; wider tables own
  // heap storage anyway.
  const std::size_t num_words = words_for_vars(width);
  std::array<std::uint64_t, TtWordStorage::kInlineWords> inline_words{};
  std::vector<std::uint64_t> wide_words(num_words > inline_words.size() ? num_words : 0);
  const std::span<std::uint64_t> words =
      wide_words.empty() ? std::span<std::uint64_t>{inline_words}.first(num_words)
                         : std::span<std::uint64_t>{wide_words};
  for (std::size_t i = 0; i < bytes; ++i) {
    words[i / 8] |= static_cast<std::uint64_t>(p[i]) << ((i % 8) * 8);
  }
  // The TruthTable constructor clears excess high bits, so a width-2
  // operand byte with junk in bits 4..7 still decodes to a valid table.
  return TruthTable{width, std::span<const std::uint64_t>{words}};
}

std::string encode_batch_request(FrameVerb verb, int width,
                                 const std::vector<TruthTable>& funcs)
{
  const std::size_t operand_bytes = frame_operand_bytes(width);
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = static_cast<std::uint8_t>(verb);
  header.aux = static_cast<std::uint8_t>(width);
  header.payload_bytes = static_cast<std::uint32_t>(4 + funcs.size() * operand_bytes);
  std::string out;
  out.reserve(kFrameHeaderBytes + header.payload_bytes);
  encode_header(out, header);
  append_u32(out, static_cast<std::uint32_t>(funcs.size()));
  for (const TruthTable& tt : funcs) {
    encode_operand(out, tt);
  }
  return out;
}

std::string encode_control_request(FrameVerb verb)
{
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = static_cast<std::uint8_t>(verb);
  std::string out;
  encode_header(out, header);
  return out;
}

std::optional<std::vector<FrameRecord>> decode_records(const std::string& payload)
{
  if (payload.size() < 4) {
    return std::nullopt;
  }
  const auto* p = reinterpret_cast<const unsigned char*>(payload.data());
  const std::uint32_t count = read_u32(p);
  if (payload.size() != 4 + static_cast<std::size_t>(count) * 8) {
    return std::nullopt;
  }
  std::vector<FrameRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const unsigned char* rec = p + 4 + i * 8;
    FrameRecord record;
    record.class_id = read_u32(rec);
    record.known = rec[4];
    record.src = rec[5];
    records.push_back(record);
  }
  return records;
}

// ---------------------------------------------------------------------------
// FrameSession

namespace {

/// Verb names for the per-verb frame-latency series; index = verb id.
constexpr std::array<const char*, 6> kFrameVerbNames{"unknown", "lookup", "append",
                                                     "stats",   "metrics", "quit"};

}  // namespace

FrameSession::FrameSession(ServeDispatcher* dispatcher) : dispatcher_{dispatcher}
{
  auto& registry = obs::MetricRegistry::global();
  for (std::size_t v = 0; v < kFrameVerbNames.size(); ++v) {
    frame_latency_[v] = &registry.histogram(
        "facet_serve_frame_latency",
        obs::label("proto", "v2") + "," + obs::label("verb", kFrameVerbNames[v]));
  }
}

FrameStep FrameSession::consume(std::string& in, std::string& out)
{
  std::size_t offset = 0;
  FrameStep step = FrameStep::kContinue;
  while (step == FrameStep::kContinue) {
    if (in.size() - offset < kFrameHeaderBytes) {
      break;
    }
    const auto* base = reinterpret_cast<const unsigned char*>(in.data()) + offset;
    const FrameHeader header = decode_header(base);
    const bool bad_header = header.magic != kFrameRequestMagic || header.flags != 0;
    if (bad_header || header.payload_bytes > kMaxFramePayloadBytes) {
      // A framing fault: the stream can no longer be trusted. It counts one
      // request and one error, answers an err frame, and closes.
      dispatcher_->count_request();
      dispatcher_->count_error();
      std::ostringstream reason;
      if (bad_header) {
        reason << "bad frame header (wrong magic or nonzero flags)";
      } else {
        reason << "frame payload " << header.payload_bytes << " exceeds "
               << kMaxFramePayloadBytes << " bytes";
      }
      respond_err(out, static_cast<FrameVerb>(header.verb),
                  bad_header ? FrameStatus::kBadFrame : FrameStatus::kTooLarge, reason.str());
      step = FrameStep::kClose;
      offset = in.size();
      break;
    }
    if (in.size() - offset < kFrameHeaderBytes + header.payload_bytes) {
      break;  // wait for the rest of this frame
    }
    const std::uint64_t t0 = obs::now_ticks();
    dispatcher_->count_request();
    try {
      step = handle_frame(header, base + kFrameHeaderBytes, out);
    } catch (const std::exception& e) {
      dispatcher_->count_error();
      respond_err(out, static_cast<FrameVerb>(header.verb), FrameStatus::kInternal,
                  e.what());
      step = FrameStep::kClose;
    }
    const std::size_t verb_slot =
        header.verb < kFrameVerbNames.size() ? header.verb : 0;
    frame_latency_[verb_slot]->record_ns(obs::ticks_to_ns(obs::now_ticks() - t0));
    offset += kFrameHeaderBytes + header.payload_bytes;
  }
  // One erase per consume call, not per frame: a burst of pipelined frames
  // shifts the buffer tail once.
  if (offset > 0) {
    in.erase(0, offset);
  }
  return step;
}

FrameStep FrameSession::handle_frame(const FrameHeader& header,
                                     const unsigned char* payload, std::string& out)
{
  switch (static_cast<FrameVerb>(header.verb)) {
    case FrameVerb::kLookup:
    case FrameVerb::kAppend:
      return handle_batch(header, payload, out);
    case FrameVerb::kStats:
      respond_ok(out, FrameVerb::kStats, dispatcher_->stats_all_text());
      return FrameStep::kContinue;
    case FrameVerb::kMetrics:
      respond_ok(out, FrameVerb::kMetrics, dispatcher_->metrics_text());
      return FrameStep::kContinue;
    case FrameVerb::kQuit: {
      // Flush before answering, mirroring the v1 quit contract: a client
      // that reads the ok frame knows its appends are durable.
      const std::uint64_t flushed = dispatcher_->flush_on_exit();
      std::string body;
      append_u64(body, flushed);
      respond_ok(out, FrameVerb::kQuit, body);
      return FrameStep::kClose;
    }
    default: {
      dispatcher_->count_error();
      std::ostringstream reason;
      reason << "unknown verb id " << static_cast<unsigned>(header.verb)
             << " (lookup=1 append=2 stats=3 metrics=4 quit=5)";
      respond_err(out, static_cast<FrameVerb>(header.verb), FrameStatus::kBadVerb,
                  reason.str());
      return FrameStep::kContinue;
    }
  }
}

FrameStep FrameSession::handle_batch(const FrameHeader& header,
                                     const unsigned char* payload, std::string& out)
{
  const auto verb = static_cast<FrameVerb>(header.verb);
  const int width = header.aux;
  if (width > kMaxVars) {
    dispatcher_->count_error();
    std::ostringstream reason;
    reason << "width " << width << " exceeds " << kMaxVars;
    respond_err(out, verb, FrameStatus::kBadWidth, reason.str());
    return FrameStep::kContinue;
  }
  const bool append = verb == FrameVerb::kAppend;
  if (append && dispatcher_->readonly()) {
    dispatcher_->count_error();
    respond_err(out, verb, FrameStatus::kReadonly, "append on a readonly server");
    return FrameStep::kContinue;
  }
  ClassStore* store = dispatcher_->store_for_width(width);
  if (store == nullptr) {
    dispatcher_->count_error();
    std::ostringstream reason;
    reason << "no store routes width " << width;
    respond_err(out, verb, FrameStatus::kUnrouted, reason.str());
    return FrameStep::kContinue;
  }
  if (header.payload_bytes < 4) {
    dispatcher_->count_error();
    respond_err(out, verb, FrameStatus::kBadCount, "batch payload shorter than its count");
    return FrameStep::kContinue;
  }
  const std::uint32_t count = read_u32(payload);
  const std::size_t operand_bytes = frame_operand_bytes(width);
  if (header.payload_bytes != 4 + static_cast<std::uint64_t>(count) * operand_bytes) {
    dispatcher_->count_error();
    std::ostringstream reason;
    reason << "count " << count << " at width " << width << " needs "
           << 4 + static_cast<std::uint64_t>(count) * operand_bytes
           << " payload bytes, frame carries " << header.payload_bytes;
    respond_err(out, verb, FrameStatus::kBadCount, reason.str());
    return FrameStep::kContinue;
  }

  std::string body;
  body.reserve(4 + static_cast<std::size_t>(count) * 8);
  append_u32(body, count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const TruthTable query = decode_operand(width, payload + 4 + i * operand_bytes);
    const std::optional<StoreLookupResult> result =
        dispatcher_->lookup(*store, query, append ? MissPolicy::kAppend : MissPolicy::kNone);
    if (result.has_value()) {
      append_u32(body, static_cast<std::uint32_t>(result->class_id));
      body.push_back(static_cast<char>(result->known ? 1 : 0));
      body.push_back(static_cast<char>(frame_src(result->source)));
    } else {
      append_u32(body, kFrameMissClassId);
      body.push_back(0);
      body.push_back(static_cast<char>(FrameSrc::kMiss));
    }
    body.push_back(0);
    body.push_back(0);
  }
  respond_ok(out, verb, body);
  return FrameStep::kContinue;
}

void FrameSession::respond_err(std::string& out, FrameVerb verb, FrameStatus status,
                               const std::string& reason)
{
  FrameHeader header;
  header.magic = kFrameResponseMagic;
  header.verb = static_cast<std::uint8_t>(verb);
  header.aux = static_cast<std::uint8_t>(status);
  header.payload_bytes = static_cast<std::uint32_t>(reason.size());
  encode_header(out, header);
  out.append(reason);
}

void FrameSession::respond_ok(std::string& out, FrameVerb verb, const std::string& payload)
{
  FrameHeader header;
  header.magic = kFrameResponseMagic;
  header.verb = static_cast<std::uint8_t>(verb);
  header.aux = static_cast<std::uint8_t>(FrameStatus::kOk);
  header.payload_bytes = static_cast<std::uint32_t>(payload.size());
  encode_header(out, header);
  out.append(payload);
}

}  // namespace facet
