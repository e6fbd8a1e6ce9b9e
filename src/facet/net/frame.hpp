#pragma once

/// Protocol v2: length-prefixed binary frames over the same TCP / Unix
/// listeners as the v1 line protocol.
///
/// Every frame is an 8-byte little-endian header followed by `payload_bytes`
/// of payload:
///
///     offset  size  request            response
///     ------  ----  -----------------  -----------------
///     0       1     magic 0xFB         magic 0xFC
///     1       1     verb id            verb id (echoed)
///     2       1     width (operands)   status (0 = ok)
///     3       1     flags (must be 0)  flags (0)
///     4       4     payload bytes      payload bytes
///
/// The request magic 0xFB doubles as the protocol sniff byte: no v1 request
/// line starts with 0xFB, so a server in `--proto auto` routes a connection
/// by its first byte and never mixes protocols on one connection.
///
/// Verbs:
///
///     id  verb     request payload                 ok response payload
///     --  -------  ------------------------------  -------------------------
///     1   lookup   u32 count, count fixed-width    u32 count, count 8-byte
///                  truth tables (LE bytes)         records (below)
///     2   append   same as lookup                  same as lookup
///     3   stats    empty                           `stats all` text block
///     4   metrics  empty                           Prometheus text body
///     5   quit     empty                           u64 flushed records
///
/// `lookup` is the pure gate-free read path: a function the store has never
/// seen answers a miss record (class_id 0xFFFFFFFF, src=miss) — it never
/// classifies live and never appends. `append` classifies misses and appends
/// them, making readonly-vs-append a per-request policy; it answers status
/// `kReadonly` on a `--readonly` server. After an ok `quit` response the
/// server closes the connection.
///
/// Each record of a lookup/append response is 8 bytes LE:
///
///     u32 class_id   (0xFFFFFFFF on a lookup miss)
///     u8  known      (1 = class known at build time)
///     u8  src        (0 table, 1 cache, 2 memo, 3 index, 4 live, 5 miss)
///     u16 reserved   (0)
///
/// A truth-table operand of width w occupies max(1, 2^w / 8) bytes, LSB
/// first (bit i of the function is bit i%8 of byte i/8).
///
/// Errors: a response with status != kOk carries an ASCII reason as its
/// payload. Framing-level faults (bad magic, nonzero flags, payload above
/// kMaxFramePayloadBytes) answer an err frame and then close — the stream
/// can no longer be trusted. Request-level faults (unknown verb, bad width,
/// bad count, readonly, unrouted width) answer an err frame and keep the
/// connection open: framing is intact, so the next frame parses fine.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "facet/store/serve.hpp"
#include "facet/tt/truth_table.hpp"

namespace facet {

inline constexpr std::uint8_t kFrameRequestMagic = 0xFB;
inline constexpr std::uint8_t kFrameResponseMagic = 0xFC;

/// Hard cap on one frame's payload, mirroring kMaxRequestLineBytes: a
/// hostile length prefix cannot balloon the serving process.
inline constexpr std::uint32_t kMaxFramePayloadBytes = 1u << 20;

enum class FrameVerb : std::uint8_t {
  kLookup = 1,
  kAppend = 2,
  kStats = 3,
  kMetrics = 4,
  kQuit = 5,
};

enum class FrameStatus : std::uint8_t {
  kOk = 0,
  kBadFrame = 1,   // bad magic / nonzero flags — connection closes
  kTooLarge = 2,   // payload above kMaxFramePayloadBytes — connection closes
  kBadVerb = 3,
  kBadWidth = 4,
  kBadCount = 5,
  kReadonly = 6,
  kUnrouted = 7,
  kInternal = 8,   // unexpected exception — connection closes
};

[[nodiscard]] const char* frame_status_name(FrameStatus status) noexcept;

/// One decoded 8-byte header. `aux` is the width byte of a request and the
/// status byte of a response.
struct FrameHeader {
  std::uint8_t magic = 0;
  std::uint8_t verb = 0;
  std::uint8_t aux = 0;
  std::uint8_t flags = 0;
  std::uint32_t payload_bytes = 0;
};

inline constexpr std::size_t kFrameHeaderBytes = 8;

/// Serialized size of one truth-table operand of width w on the wire.
[[nodiscard]] constexpr std::size_t frame_operand_bytes(int width) noexcept
{
  return width < 3 ? std::size_t{1} : std::size_t{1} << (width - 3);
}

/// The id a lookup miss record carries instead of a class id.
inline constexpr std::uint32_t kFrameMissClassId = 0xFFFFFFFFu;

/// src byte of a response record.
enum class FrameSrc : std::uint8_t {
  kTable = 0,
  kCache = 1,
  kMemo = 2,
  kIndex = 3,
  kLive = 4,
  kMiss = 5,
};

[[nodiscard]] FrameSrc frame_src(LookupSource source) noexcept;
[[nodiscard]] const char* frame_src_name(std::uint8_t src) noexcept;

/// One decoded lookup/append response record.
struct FrameRecord {
  std::uint32_t class_id = kFrameMissClassId;
  std::uint8_t known = 0;
  std::uint8_t src = static_cast<std::uint8_t>(FrameSrc::kMiss);
};

// ---------------------------------------------------------------------------
// Codec helpers (shared by server, tests, bench, and any C++ client).

void append_u32(std::string& out, std::uint32_t value);
void append_u64(std::string& out, std::uint64_t value);
[[nodiscard]] std::uint32_t read_u32(const unsigned char* p) noexcept;
[[nodiscard]] std::uint64_t read_u64(const unsigned char* p) noexcept;

void encode_header(std::string& out, const FrameHeader& header);
[[nodiscard]] FrameHeader decode_header(const unsigned char* p) noexcept;

/// Appends the wire bytes of one truth table (LSB-first function bits).
void encode_operand(std::string& out, const TruthTable& tt);

/// Decodes one fixed-width operand from `frame_operand_bytes(width)` bytes.
[[nodiscard]] TruthTable decode_operand(int width, const unsigned char* p);

/// Builds a complete lookup/append request frame for a batch of functions.
/// All operands must have `width` variables.
[[nodiscard]] std::string encode_batch_request(FrameVerb verb, int width,
                                               const std::vector<TruthTable>& funcs);

/// Builds a payload-less request frame (stats / metrics / quit).
[[nodiscard]] std::string encode_control_request(FrameVerb verb);

/// Decodes the records of an ok lookup/append response payload. Returns
/// std::nullopt if the payload is malformed (count mismatch).
[[nodiscard]] std::optional<std::vector<FrameRecord>> decode_records(
    const std::string& payload);

// ---------------------------------------------------------------------------
// Server-side session.

enum class FrameStep {
  kContinue,  ///< keep the connection open, wait for more bytes
  kClose,     ///< finish writing `out`, then close the connection
};

/// Transport-independent v2 session: feed it raw received bytes, it consumes
/// complete frames from the front of `in` and appends response frames to
/// `out`. One FrameSession per connection; not thread-safe (the reactor
/// runs every call for a connection on the loop that owns it).
class FrameSession {
 public:
  explicit FrameSession(ServeDispatcher* dispatcher);

  /// Consumes every complete frame currently in `in` (partial trailing
  /// bytes stay buffered). Returns kClose when the connection must close
  /// after `out` drains: clean quit, framing fault, or internal error.
  FrameStep consume(std::string& in, std::string& out);

 private:
  FrameStep handle_frame(const FrameHeader& header, const unsigned char* payload,
                         std::string& out);
  FrameStep handle_batch(const FrameHeader& header, const unsigned char* payload,
                         std::string& out);
  void respond_err(std::string& out, FrameVerb verb, FrameStatus status,
                   const std::string& reason);
  void respond_ok(std::string& out, FrameVerb verb, const std::string& payload);

  ServeDispatcher* dispatcher_;
  /// Pre-resolved facet_serve_frame_latency{proto="v2",verb=...} handles,
  /// indexed by verb id (0 = unknown verb).
  std::array<obs::LatencyHistogram*, 6> frame_latency_{};
};

}  // namespace facet
