/// ledger_bench — the layer ledger: one protocol-v2 workload driven end to
/// end through an in-process ServeServer, with per-layer attribution
/// measured from outside the library.
///
///   ledger_bench --workload mapper_k6|orbit_n6|orbit_n7|ingest_n6
///                --seed N --seconds T --trace 0|1 --workdir DIR
///                [--source-digest HEX] [--git-commit SHA]
///
/// One run of one workload:
///
///   1. Set-up, five times over (setup_s is the median): generate the
///      inputs from the seed, build and write the stores, open them, start a
///      ServeServer on loopback with a fixed 2-worker reactor, and warm it up
///      (caches and NPN4 slots filled, every class memoized, memo probation
///      settled). All but the last deployment are torn down again.
///   2. A closed loop of 2 client connections, one 64-operand v2 frame
///      outstanding on each, for T seconds. Every answered record is checked
///      against an oracle that never asks the server: dense class ids by
///      first occurrence of each exact canonical form, computed here.
///      ingest_n6 runs in epochs of a fixed volume, each on a fresh empty
///      store; the drain that ends an epoch counts in the timed seconds, and
///      every epoch's store is reopened from disk and checked at the end.
///   3. --trace 0 runs the loop in ten equal slices and prints the end-to-end
///      metrics over the slices the hypervisor did not steal CPU from
///      (/proc/stat steal). --trace 1 runs it in four slices (untraced,
///      traced, traced, untraced), records client spans per frame (encode,
///      write, read, decode — one id per frame), replays each layer's public
///      entry points single-threaded on the workload's own operands, reads
///      the counters the library exports, and prints the per-layer metrics
///      plus a table checking that the layers add up to the client round
///      trip.
///
/// The last line of stdout is one JSON object:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
/// The exit code is nonzero when any record was wrong or missing.

#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "facet/facet.hpp"

namespace {

using namespace facet;

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// ---------------------------------------------------------------------------
// Fixed shape of every workload.

constexpr std::size_t kConnections = 2;  ///< client threads == connections
constexpr std::size_t kWorkers = 2;      ///< ServeServer reactor workers
constexpr std::size_t kBatch = 64;       ///< operands per request frame
constexpr int kSetupRepeats = 5;         ///< setup_s is the median of these
/// --trace 0 measures the window in this many equal slices, so that slices
/// the hypervisor stole CPU from can be left out of the figures.
constexpr std::size_t kUntracedSlices = 10;
/// --trace 0: a slice or set-up during which the hypervisor took more than
/// this share of the VM's CPU time (/proc/stat steal) is left out, unless
/// fewer than kMinKeptSamples would remain. Under steal a wakeup waits for a
/// descheduled vCPU, and this closed loop wakes three threads per frame, so
/// such a slice measures the host rather than the program.
constexpr double kMaxStealShare = 0.02;
constexpr std::size_t kMinKeptSamples = 3;
constexpr std::size_t kHotCacheEntries = std::size_t{1} << 16;  ///< store default
/// orbit_*: the query pool is at least this many times the hot cache.
constexpr std::size_t kOrbitPoolOverCache = 16;
/// orbit_*: frames each connection sends after the memo-learning pass.
constexpr std::size_t kOrbitWarmFrames = 600;
/// ingest_n6: append frames per session; each session ends with `quit`.
constexpr std::size_t kIngestSessionFrames = 32;
/// ingest_n6: sessions per connection during warm-up: 16 flushes, so two
/// compactions run before timing starts.
constexpr std::size_t kIngestWarmSessions = 8;
/// ingest_n6: sessions per connection in one epoch. Each epoch starts on a
/// fresh empty store, so the store size, compaction cost and memory a run
/// sees do not grow with throughput: a faster append path ingests more
/// epochs, not a bigger store.
constexpr std::size_t kIngestEpochSessions = 48;
constexpr std::size_t kCompactAfterRuns = 8;
/// Replay sizes (single-threaded, after the loop) and their time cap.
constexpr std::size_t kReplayOps = 4096;
constexpr std::size_t kReplayFrames = 128;
constexpr double kReplayCapSeconds = 0.25;

/// In-process single-thread lookup costs measured when this benchmark was
/// defined (4-CPU Xeon container, Release): the reference later memo and
/// canonicalizer changes cite.
struct ReferenceCost {
  int width;
  double memo_on_us;
  double memo_off_us;
};
constexpr std::array<ReferenceCost, 2> kReferenceCosts{{{6, 9.7, 7.6}, {7, 12.9, 27.9}}};

enum class Kind { kMapper, kOrbit, kIngest };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  int width;  ///< orbit/ingest operand width; mapper: the largest cut size
};

constexpr std::array<WorkloadSpec, 4> kWorkloads{{{"mapper_k6", Kind::kMapper, 6},
                                                  {"orbit_n6", Kind::kOrbit, 6},
                                                  {"orbit_n7", Kind::kOrbit, 7},
                                                  {"ingest_n6", Kind::kIngest, 6}}};

// ---------------------------------------------------------------------------
// Small helpers.

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start)
{
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ticks_us(std::uint64_t ticks)
{
  return static_cast<double>(ticks) * obs::ns_per_tick() / 1000.0;
}

double median(std::vector<double> values)
{
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Exact q-quantile of the samples, linear between closest ranks.
double quantile(const std::vector<double>& sorted, double q)
{
  if (sorted.empty()) {
    return 0.0;
  }
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (rank - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double process_cpu_seconds()
{
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// One numeric field of a /proc/self file ("VmHWM:", "wchar:"); 0 if absent.
std::uint64_t proc_self_field(const char* file, const std::string& key)
{
  std::ifstream in{file};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stoull(line.substr(key.size()));
    }
  }
  return 0;
}

/// Returns the allocator's free pages to the system, then resets VmHWM to
/// the current resident set (Linux 4.0 and later), so the next VmHWM read
/// covers what is live now plus what ran since. False where
/// /proc/self/clear_refs cannot be written; VmHWM then spans the process.
bool reset_peak_rss()
{
  ::malloc_trim(0);
  std::ofstream out{"/proc/self/clear_refs"};
  out << "5" << std::flush;
  return static_cast<bool>(out);
}

/// The VM's CPU time from the first line of /proc/stat, in clock ticks.
struct HostCpu {
  std::uint64_t steal = 0;  ///< time the hypervisor ran something else
  std::uint64_t total = 0;
};

HostCpu host_cpu()
{
  std::ifstream in{"/proc/stat"};
  std::string label;
  in >> label;
  HostCpu cpu;
  std::uint64_t ticks = 0;
  // user nice system idle iowait irq softirq steal; guest time is inside user.
  for (int field = 0; field < 8 && in >> ticks; ++field) {
    cpu.total += ticks;
    if (field == 7) {
      cpu.steal = ticks;
    }
  }
  return cpu;
}

double steal_share(const HostCpu& before, const HostCpu& after)
{
  return ratio(static_cast<double>(after.steal - before.steal),
               static_cast<double>(after.total - before.total));
}

std::string cpu_model()
{
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s)
{
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c >= 0x20 ? c : ' ');
  }
  return out;
}

// ---------------------------------------------------------------------------
// The synthetic circuit suite: the same 23 members data/dataset.cpp harvests
// (its list is private to that file, and mapper_k6 needs the AIGs themselves).

std::vector<Aig> make_circuit_suite()
{
  std::vector<Aig> suite;
  suite.push_back(make_adder(16));
  suite.push_back(make_adder(24));
  suite.push_back(make_multiplier(6));
  suite.push_back(make_multiplier(8));
  suite.push_back(make_barrel_shifter(16));
  suite.push_back(make_barrel_shifter(32));
  suite.push_back(make_max(8));
  suite.push_back(make_max(12));
  suite.push_back(make_voter(13));
  suite.push_back(make_voter(15));
  suite.push_back(make_popcount(14));
  suite.push_back(make_decoder(5));
  suite.push_back(make_priority(12));
  suite.push_back(make_priority(16));
  suite.push_back(make_parity(12));
  suite.push_back(make_mux_tree(3));
  suite.push_back(make_mux_tree(4));
  suite.push_back(make_alu(6));
  suite.push_back(make_alu(8));
  suite.push_back(make_random_control(14, 220, 0xA11CE));
  suite.push_back(make_random_control(12, 160, 0xB0B1));
  suite.push_back(make_random_control(16, 420, 0xCAB1E));
  suite.push_back(make_random_control(18, 600, 0xD00D));
  return suite;
}

// ---------------------------------------------------------------------------
// Operands.

/// Operands of one width as raw truth-table words, plus each operand's
/// expected class id (filled by the oracle after set-up).
struct OperandPool {
  int width = 0;
  std::vector<std::uint64_t> words;
  std::vector<std::uint32_t> expected;

  [[nodiscard]] std::size_t words_per_op() const { return words_for_vars(width); }
  [[nodiscard]] std::size_t size() const { return expected.size(); }

  void push(const TruthTable& tt, std::uint32_t tag)
  {
    for (std::size_t w = 0; w < tt.num_words(); ++w) {
      words.push_back(tt.word(w));
    }
    expected.push_back(tag);
  }

  [[nodiscard]] TruthTable table(std::size_t i) const
  {
    const std::size_t k = words_per_op();
    return TruthTable{width, std::vector<std::uint64_t>(words.begin() + static_cast<std::ptrdiff_t>(i * k),
                                                        words.begin() + static_cast<std::ptrdiff_t>((i + 1) * k))};
  }
};

/// One request frame: `count` consecutive operands of pools[width].
struct FrameRef {
  int width = 0;
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Inputs of a read workload (mapper_k6, orbit_*).
struct ReadInputs {
  std::array<OperandPool, kMaxVars + 1> pools;
  std::vector<FrameRef> frames;
  /// Distinct functions per width in first-occurrence order: what the stores
  /// are built from and what the oracle classifies.
  std::array<std::vector<TruthTable>, kMaxVars + 1> distinct;
  /// orbit_*: frames of the first pool round (every source function once).
  std::size_t learn_frames = 0;
  std::size_t cuts = 0;  ///< mapper_k6: cuts harvested per pass
};

/// mapper_k6: every cut (k <= cut_size, 25 per node, duplicates kept,
/// trivial and single-leaf cuts dropped) of the suite at its own leaf count,
/// batched into per-width frames in stream order; the frame order is
/// shuffled by the seed.
void make_mapper_inputs(int cut_size, std::uint64_t seed, ReadInputs& in)
{
  CutEnumOptions options;
  options.cut_size = cut_size;
  options.max_cuts_per_node = 25;
  std::array<std::unordered_set<TruthTable, TruthTableHash>, kMaxVars + 1> seen;
  std::array<std::uint32_t, kMaxVars + 1> open_first{};
  for (std::size_t w = 0; w < in.pools.size(); ++w) {
    in.pools[w].width = static_cast<int>(w);
  }
  const auto close_frame = [&](std::size_t w) {
    const auto end = static_cast<std::uint32_t>(in.pools[w].size());
    if (end > open_first[w]) {
      in.frames.push_back({static_cast<int>(w), open_first[w], end - open_first[w]});
      open_first[w] = end;
    }
  };
  for (const Aig& aig : make_circuit_suite()) {
    const auto cuts = enumerate_cuts(aig, options);
    for (Aig::Node node = static_cast<Aig::Node>(aig.num_inputs()) + 1; node < aig.num_nodes();
         ++node) {
      for (const Cut& cut : cuts[node]) {
        const std::size_t w = cut.leaves.size();
        if (w < 2) {
          continue;
        }
        const TruthTable f = cut_function(aig, node, cut, static_cast<int>(w));
        if (seen[w].insert(f).second) {
          in.distinct[w].push_back(f);
        }
        in.pools[w].push(f, 0);
        ++in.cuts;
        if (in.pools[w].size() - open_first[w] == kBatch) {
          close_frame(w);
        }
      }
    }
  }
  for (std::size_t w = 0; w < in.pools.size(); ++w) {
    close_frame(w);
  }
  std::mt19937_64 rng{seed};
  std::shuffle(in.frames.begin(), in.frames.end(), rng);
}

/// orbit_n*: seeded random NPN transforms of the suite's n-variable cut
/// functions. The pool is whole rounds, each a seeded permutation of every
/// source function under a fresh transform, and holds at least
/// kOrbitPoolOverCache x the hot-cache capacity. The expected slot carries
/// the source index until the oracle maps it to a class id.
void make_orbit_inputs(int n, std::uint64_t seed, ReadInputs& in)
{
  auto& sources = in.distinct[static_cast<std::size_t>(n)];
  sources = make_circuit_dataset(n);
  auto& pool = in.pools[static_cast<std::size_t>(n)];
  pool.width = n;
  const std::size_t target = kOrbitPoolOverCache * kHotCacheEntries;
  const std::size_t rounds = (target + sources.size() - 1) / sources.size();
  pool.words.reserve(rounds * sources.size() * words_for_vars(n));
  pool.expected.reserve(rounds * sources.size());
  std::mt19937_64 rng{seed ^ (static_cast<std::uint64_t>(n) << 56)};
  std::vector<std::uint32_t> order(sources.size());
  std::iota(order.begin(), order.end(), 0u);
  for (std::size_t r = 0; r < rounds; ++r) {
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::uint32_t i : order) {
      pool.push(apply_transform_fast(sources[i], NpnTransform::random(n, rng)), i);
    }
  }
  for (std::uint32_t first = 0; first < pool.size(); first += kBatch) {
    const auto count = static_cast<std::uint32_t>(std::min<std::size_t>(kBatch, pool.size() - first));
    in.frames.push_back({n, first, count});
  }
  in.learn_frames = (sources.size() + kBatch - 1) / kBatch;
}

/// The oracle: dense class ids by first occurrence of each exact canonical
/// form over `funcs` — the id assignment build_class_store documents,
/// computed without a store or a server.
std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> oracle_ids(
    const std::vector<TruthTable>& funcs)
{
  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> by_canonical;
  std::unordered_map<TruthTable, std::uint32_t, TruthTableHash> by_function;
  for (const TruthTable& f : funcs) {
    const auto it = by_canonical
                        .emplace(exact_npn_canonical(f), static_cast<std::uint32_t>(by_canonical.size()))
                        .first;
    by_function.emplace(f, it->second);
  }
  return by_function;
}

/// Fills every pool's expected ids from the oracle.
std::size_t fill_expected(Kind kind, ReadInputs& in)
{
  std::size_t classes = 0;
  for (auto& pool : in.pools) {
    if (pool.size() == 0) {
      continue;
    }
    const auto& distinct = in.distinct[static_cast<std::size_t>(pool.width)];
    const auto ids = oracle_ids(distinct);
    std::uint32_t width_classes = 0;
    for (const auto& [f, id] : ids) {
      width_classes = std::max(width_classes, id + 1);
    }
    classes += width_classes;
    if (kind == Kind::kOrbit) {
      std::vector<std::uint32_t> by_source(distinct.size());
      for (std::size_t s = 0; s < distinct.size(); ++s) {
        by_source[s] = ids.at(distinct[s]);
      }
      for (auto& slot : pool.expected) {
        slot = by_source[slot];
      }
    } else {
      for (std::size_t i = 0; i < pool.size(); ++i) {
        pool.expected[i] = ids.at(pool.table(i));
      }
    }
  }
  return classes;
}

// ---------------------------------------------------------------------------
// Client side of protocol v2.

class Connection {
 public:
  explicit Connection(std::uint16_t port) : socket_{connect_tcp({"127.0.0.1", port})} {}

  void send(const std::string& bytes)
  {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n =
          ::send(socket_.fd(), bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw NetError{"send failed"};
      }
      done += static_cast<std::size_t>(n);
    }
  }

  /// Reads one response frame; the payload lands in `payload`.
  FrameHeader receive(std::string& payload)
  {
    unsigned char head[kFrameHeaderBytes];
    read_exact(head, sizeof head);
    const FrameHeader header = decode_header(head);
    if (header.magic != kFrameResponseMagic) {
      throw NetError{"bad response magic"};
    }
    payload.resize(header.payload_bytes);
    read_exact(reinterpret_cast<unsigned char*>(payload.data()), payload.size());
    return header;
  }

 private:
  void read_exact(unsigned char* p, std::size_t bytes)
  {
    std::size_t done = 0;
    while (done < bytes) {
      const ssize_t n = ::recv(socket_.fd(), p + done, bytes - done, 0);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw NetError{"connection closed mid-frame"};
      }
      done += static_cast<std::size_t>(n);
    }
  }

  Socket socket_;
};

// ---------------------------------------------------------------------------
// Spans (traced slices only): kept in memory, written out when the run ends.

enum class SpanKind : std::uint8_t { kFrame, kEncode, kWrite, kRead, kDecode, kQuit };
constexpr std::array<const char*, 6> kSpanNames{"frame", "encode", "write", "read", "decode", "quit"};

struct Span {
  std::uint64_t frame_id;
  std::uint64_t start;
  std::uint64_t end;
  SpanKind kind;
  std::uint8_t conn;
};

/// What one client thread measured in one window.
struct ClientTally {
  std::uint64_t frames = 0;       ///< batch frames answered
  std::uint64_t control = 0;      ///< quit frames answered (ingest)
  std::uint64_t attempted = 0;    ///< operands sent
  std::uint64_t ok = 0;           ///< operands answered correctly (acked, for ingest)
  std::uint64_t request_bytes = 0;
  std::uint64_t response_bytes = 0;
  std::uint64_t encode_ticks = 0, write_ticks = 0, read_ticks = 0, decode_ticks = 0;
  std::int64_t queue_depth_max = 0;
  std::uint64_t delta_runs_max = 0;
  std::vector<double> rtt_us;
  std::vector<double> flush_us;
  std::vector<Span> spans;
  std::string error;
  Clock::time_point last_done{};
};

void merge_into(ClientTally& into, const ClientTally& t)
{
  into.frames += t.frames;
  into.control += t.control;
  into.attempted += t.attempted;
  into.ok += t.ok;
  into.request_bytes += t.request_bytes;
  into.response_bytes += t.response_bytes;
  into.encode_ticks += t.encode_ticks;
  into.write_ticks += t.write_ticks;
  into.read_ticks += t.read_ticks;
  into.decode_ticks += t.decode_ticks;
  into.queue_depth_max = std::max(into.queue_depth_max, t.queue_depth_max);
  into.delta_runs_max = std::max(into.delta_runs_max, t.delta_runs_max);
  into.rtt_us.insert(into.rtt_us.end(), t.rtt_us.begin(), t.rtt_us.end());
  into.flush_us.insert(into.flush_us.end(), t.flush_us.begin(), t.flush_us.end());
  into.spans.insert(into.spans.end(), t.spans.begin(), t.spans.end());
  if (into.error.empty()) {
    into.error = t.error;
  }
}

/// One acknowledged append: the function word and the id the server gave it.
struct Acked {
  std::uint64_t word;
  std::uint32_t class_id;
  std::uint8_t window;  ///< which measured slice, from 1 (0 = warm-up)
};

/// A client connection and its position in the workload.
struct Client {
  std::unique_ptr<Connection> conn;
  std::size_t cursor = 0;
  std::uint64_t next_frame_id = 0;
  std::uint8_t index = 0;
  std::mt19937_64 rng;
  std::vector<Acked> acked;  ///< ingest: acknowledged appends of the current epoch
};

struct LoopContext {
  Kind kind = Kind::kMapper;
  int width = 0;
  const ReadInputs* inputs = nullptr;
  std::uint16_t port = 0;
  ClassStore* ingest_store = nullptr;
  /// ingest: sessions claimed in the current epoch by either connection. The
  /// epoch ends on this total, so both connections stay busy until it does.
  std::atomic<std::size_t>* epoch_sessions = nullptr;
  bool trace = false;
  std::uint8_t window = 0;
  obs::Gauge* queue_depth = nullptr;
};

/// ingest: claims one session of the current epoch unless `quota` are taken.
bool claim_session(std::atomic<std::size_t>& taken, std::size_t quota)
{
  std::size_t seen = taken.load();
  while (seen < quota) {
    if (taken.compare_exchange_weak(seen, seen + 1)) {
      return true;
    }
  }
  return false;
}

/// One batch frame round trip on the client's connection: encode `tables`
/// (started at `t0`, before the tables were built), send, wait for the
/// response, decode. Books sizes, the round trip and, when tracing, the
/// frame's spans. Returns the records of an ok response holding one record
/// per operand, else nullopt.
std::optional<std::vector<FrameRecord>> exchange_batch(const LoopContext& ctx, Client& client,
                                                       FrameVerb verb, int width,
                                                       const std::vector<TruthTable>& tables,
                                                       std::uint64_t t0, ClientTally& tally)
{
  const std::uint64_t id = client.next_frame_id++;
  const std::string request = encode_batch_request(verb, width, tables);
  const std::uint64_t t1 = obs::now_ticks();
  client.conn->send(request);
  const std::uint64_t t2 = obs::now_ticks();
  std::string payload;
  const FrameHeader header = client.conn->receive(payload);
  const std::uint64_t t3 = obs::now_ticks();
  auto records = decode_records(payload);
  const std::uint64_t t4 = obs::now_ticks();

  ++tally.frames;
  tally.attempted += tables.size();
  tally.request_bytes += request.size();
  tally.response_bytes += kFrameHeaderBytes + payload.size();
  tally.rtt_us.push_back(ticks_us(t3 - t1));
  if (ctx.trace) {
    tally.encode_ticks += t1 - t0;
    tally.write_ticks += t2 - t1;
    tally.read_ticks += t3 - t2;
    tally.decode_ticks += t4 - t3;
    tally.queue_depth_max = std::max(tally.queue_depth_max, ctx.queue_depth->value());
    const std::uint64_t t5 = obs::now_ticks();
    tally.spans.push_back({id, t0, t5, SpanKind::kFrame, client.index});
    tally.spans.push_back({id, t0, t1, SpanKind::kEncode, client.index});
    tally.spans.push_back({id, t1, t2, SpanKind::kWrite, client.index});
    tally.spans.push_back({id, t2, t3, SpanKind::kRead, client.index});
    tally.spans.push_back({id, t3, t4, SpanKind::kDecode, client.index});
  }
  if (header.aux != static_cast<std::uint8_t>(FrameStatus::kOk) || !records.has_value() ||
      records->size() != tables.size()) {
    return std::nullopt;
  }
  return records;
}

/// Closed-loop read client: one lookup frame outstanding until the deadline.
/// `max_frames` bounds warm-up passes (0 = until the deadline).
void read_client(const LoopContext& ctx, Client& client, Clock::time_point deadline,
                 std::size_t max_frames, ClientTally& tally)
{
  const ReadInputs& in = *ctx.inputs;
  std::vector<TruthTable> tables;
  tables.reserve(kBatch);
  while (Clock::now() < deadline && (max_frames == 0 || tally.frames < max_frames)) {
    const FrameRef& frame = in.frames[client.cursor];
    client.cursor = (client.cursor + 1) % in.frames.size();
    const OperandPool& pool = in.pools[static_cast<std::size_t>(frame.width)];
    const std::uint64_t t0 = obs::now_ticks();
    tables.clear();
    for (std::uint32_t i = 0; i < frame.count; ++i) {
      tables.push_back(pool.table(frame.first + i));
    }
    const auto records = exchange_batch(ctx, client, FrameVerb::kLookup, frame.width, tables, t0, tally);
    if (records.has_value()) {
      for (std::uint32_t i = 0; i < frame.count; ++i) {
        tally.ok += (*records)[i].class_id == pool.expected[frame.first + i] ? 1 : 0;
      }
    }
  }
  tally.last_done = Clock::now();
}

/// Closed-loop ingest client: sessions of kIngestSessionFrames append frames
/// of fresh seeded random functions, each ended by `quit` (the server flushes
/// its delta log before acknowledging) and a reconnect. An operand counts as
/// answered only once its session's quit ack arrived. Stops at the deadline
/// or once the client has run `epoch_sessions` sessions in the current epoch.
void ingest_client(const LoopContext& ctx, Client& client, Clock::time_point deadline,
                   std::size_t epoch_sessions, ClientTally& tally)
{
  std::vector<TruthTable> tables;
  tables.reserve(kBatch);
  std::string payload;
  std::vector<Acked> pending;
  const std::string quit = encode_control_request(FrameVerb::kQuit);
  while (Clock::now() < deadline && claim_session(*ctx.epoch_sessions, epoch_sessions)) {
    client.conn = std::make_unique<Connection>(ctx.port);
    pending.clear();
    std::size_t f = 0;
    for (; f < kIngestSessionFrames && Clock::now() < deadline; ++f) {
      const std::uint64_t t0 = obs::now_ticks();
      tables.clear();
      for (std::size_t i = 0; i < kBatch; ++i) {
        tables.push_back(tt_random(ctx.width, client.rng));
      }
      const auto records = exchange_batch(ctx, client, FrameVerb::kAppend, ctx.width, tables, t0, tally);
      for (std::size_t i = 0; records.has_value() && i < kBatch; ++i) {
        if ((*records)[i].class_id != kFrameMissClassId) {
          pending.push_back({tables[i].word(0), (*records)[i].class_id, ctx.window});
        }
      }
    }
    const std::uint64_t id = client.next_frame_id++;
    const std::uint64_t q0 = obs::now_ticks();
    client.conn->send(quit);
    const FrameHeader header = client.conn->receive(payload);
    const std::uint64_t q1 = obs::now_ticks();
    client.conn.reset();
    if (f == 0) {
      ctx.epoch_sessions->fetch_sub(1);  // the deadline came first: give the claim back
    }
    ++tally.control;
    tally.request_bytes += quit.size();
    tally.response_bytes += kFrameHeaderBytes + payload.size();
    if (header.aux == static_cast<std::uint8_t>(FrameStatus::kOk) && payload.size() == 8) {
      tally.ok += pending.size();
      client.acked.insert(client.acked.end(), pending.begin(), pending.end());
      tally.flush_us.push_back(ticks_us(q1 - q0));
    }
    tally.delta_runs_max =
        std::max<std::uint64_t>(tally.delta_runs_max, ctx.ingest_store->num_delta_segments());
    if (ctx.trace) {
      tally.spans.push_back({id, q0, q1, SpanKind::kQuit, client.index});
    }
  }
  tally.last_done = Clock::now();
}

/// Aggregate of one closed-loop window over every client.
struct WindowResult {
  double seconds = 0;
  ClientTally total;
  /// VmHWM since the window started, read right after the clients joined
  /// and before their samples are merged.
  double peak_rss_mib = 0;
};

/// Runs every client on its own thread until `seconds` elapse (or the
/// window's bound is reached) and merges their tallies.
WindowResult run_window(const LoopContext& ctx, std::vector<Client>& clients, double seconds,
                        std::size_t bound)
{
  std::vector<ClientTally> tallies(clients.size());
  reset_peak_rss();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      threads.emplace_back([&, c] {
        try {
          if (ctx.kind == Kind::kIngest) {
            ingest_client(ctx, clients[c], deadline, bound, tallies[c]);
          } else {
            read_client(ctx, clients[c], deadline, bound, tallies[c]);
          }
        } catch (const std::exception& e) {
          tallies[c].error = e.what();
          tallies[c].last_done = Clock::now();
        }
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  WindowResult result;
  result.peak_rss_mib = static_cast<double>(proc_self_field("/proc/self/status", "VmHWM:")) / 1024.0;
  Clock::time_point end = start;
  for (const auto& t : tallies) {
    end = std::max(end, t.last_done);
    merge_into(result.total, t);
  }
  result.seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

// ---------------------------------------------------------------------------
// Deployment: stores on disk, an in-process server, connected clients.

/// ingest_n6: one finished epoch, checked against its reopened store at the end.
struct IngestEpoch {
  std::string path;
  std::vector<Acked> acked;
};

struct Deployment {
  std::filesystem::path dir;
  ReadInputs inputs;
  std::unique_ptr<StoreRouter> router;      ///< mapper_k6
  std::unique_ptr<ClassStore> store;        ///< orbit_* / ingest_n6 (current epoch)
  std::map<int, std::string> index_paths;
  ServeServerOptions server_options;
  std::unique_ptr<ServeServer> server;
  bool server_drained = false;
  std::vector<Client> clients;
  std::vector<IngestEpoch> epochs;  ///< ingest_n6: closed epochs, warm-up first
  std::atomic<std::size_t> epoch_sessions{0};  ///< ingest_n6: claimed in the current epoch
  LoopContext ctx;
  double aig_seconds = 0;    ///< harvesting the operands from the circuits
  double build_seconds = 0;  ///< build_class_store
  double setup_seconds = 0;

  /// Every served store (one per routed width, or the single store).
  [[nodiscard]] std::vector<ClassStore*> stores() const
  {
    std::vector<ClassStore*> out;
    if (router) {
      for (const int w : router->widths()) {
        out.push_back(router->store_for(w));
      }
    } else if (store) {
      out.push_back(store.get());
    }
    return out;
  }

  /// Drains the server (ingest clients have already quit): every connection
  /// closes, the compactor is joined and the last appends are flushed to the
  /// delta log. Returns the seconds it took. The server object stays, so its
  /// counters can still be read, until shut_down.
  double drain()
  {
    const Clock::time_point start = Clock::now();
    for (auto& client : clients) {
      client.conn.reset();
    }
    if (server && !server_drained) {
      server->request_shutdown();
      server->wait();
      server_drained = true;
    }
    return seconds_since(start);
  }

  void shut_down()
  {
    drain();
    server.reset();
    server_drained = false;
  }

  ~Deployment() { shut_down(); }
};

/// ingest_n6: starts a writable server on a fresh empty store on disk.
void open_ingest_epoch(Deployment& d)
{
  const int width = d.ctx.width;
  const std::string path = (d.dir / ("ingest" + std::to_string(d.epochs.size()) + ".fcs")).string();
  ClassStore{width}.save(path);
  d.store = std::make_unique<ClassStore>(ClassStore::open(path));
  d.index_paths[width] = path;
  d.epoch_sessions = 0;
  d.server = std::make_unique<ServeServer>(*d.store, path, d.server_options);
  d.server->start();
  d.ctx.port = d.server->tcp_port();
  d.ctx.ingest_store = d.store.get();
}

/// ingest_n6: drains the epoch's server unless that already happened (it
/// flushes its delta log and joins its compactions), shuts it down and files
/// the epoch's acknowledged appends for the reopen check.
void close_ingest_epoch(Deployment& d)
{
  d.shut_down();
  IngestEpoch epoch{d.index_paths.at(d.ctx.width), {}};
  for (Client& client : d.clients) {
    epoch.acked.insert(epoch.acked.end(), client.acked.begin(), client.acked.end());
    client.acked.clear();
  }
  d.epochs.push_back(std::move(epoch));
  d.store.reset();
  d.ctx.ingest_store = nullptr;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string source_digest = "unknown";
  std::string git_commit = "unknown";
};

/// Sets a workload up from scratch: inputs, stores, server, warm-up.
std::unique_ptr<Deployment> set_up(const WorkloadSpec& spec, const Args& args, int repeat)
{
  const Clock::time_point start = Clock::now();
  auto d = std::make_unique<Deployment>();
  d->dir = std::filesystem::path{args.workdir} / (std::string{spec.name} + "_" + std::to_string(repeat));
  std::filesystem::create_directories(d->dir);
  LoopContext& ctx = d->ctx;
  ctx.kind = spec.kind;
  ctx.width = spec.width;
  ctx.inputs = &d->inputs;
  ctx.epoch_sessions = &d->epoch_sessions;
  ctx.queue_depth = &obs::MetricRegistry::global().gauge("facet_serve_queue_depth");

  ServeServerOptions& server_options = d->server_options;
  server_options.listen = "127.0.0.1:0";
  server_options.proto = "v2";
  server_options.workers = kWorkers;
  server_options.max_connections = 4 * kConnections;

  if (spec.kind == Kind::kIngest) {
    server_options.compact_after_runs = kCompactAfterRuns;
    open_ingest_epoch(*d);
  } else {
    const Clock::time_point aig_start = Clock::now();
    if (spec.kind == Kind::kMapper) {
      make_mapper_inputs(spec.width, args.seed, d->inputs);
    } else {
      make_orbit_inputs(spec.width, args.seed, d->inputs);
    }
    d->aig_seconds = seconds_since(aig_start);
    StoreBuildOptions build;
    build.num_threads = kWorkers;
    StoreOpenOptions open;
    open.use_mmap = true;
    if (spec.kind == Kind::kMapper) {
      d->router = std::make_unique<StoreRouter>();
    }
    for (int w = 0; w <= kMaxVars; ++w) {
      const auto& distinct = d->inputs.distinct[static_cast<std::size_t>(w)];
      if (distinct.empty()) {
        continue;
      }
      const std::string path = (d->dir / ("w" + std::to_string(w) + ".fcs")).string();
      const Clock::time_point build_start = Clock::now();
      build_class_store(distinct, build).save(path);
      d->build_seconds += seconds_since(build_start);
      auto store = std::make_unique<ClassStore>(ClassStore::open(path, open));
      d->index_paths[w] = path;
      if (d->router) {
        d->router->attach(std::move(store));
      } else {
        d->store = std::move(store);
      }
    }
    server_options.readonly = true;
    d->server = d->router ? std::make_unique<ServeServer>(*d->router, d->index_paths, server_options)
                          : std::make_unique<ServeServer>(*d->store, d->index_paths.begin()->second,
                                                          server_options);
    d->server->start();
    ctx.port = d->server->tcp_port();
  }

  d->clients.resize(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    Client& client = d->clients[c];
    client.index = static_cast<std::uint8_t>(c);
    client.rng.seed(args.seed * 0x9E3779B97F4A7C15ULL + c + 1);
    if (spec.kind != Kind::kIngest) {
      client.conn = std::make_unique<Connection>(ctx.port);
      client.cursor = c * d->inputs.frames.size() / kConnections;
    }
  }

  // Warm-up: untimed, unchecked, until the steady state the window measures.
  const double no_deadline = 600.0;
  if (spec.kind == Kind::kMapper) {
    // One full pass over the stream: every distinct cut function cached.
    run_window(ctx, d->clients, no_deadline, d->inputs.frames.size() / kConnections + 1);
  } else if (spec.kind == Kind::kOrbit) {
    // Every source function once (the memo learns every class), then enough
    // frames on both connections to fill the hot cache and close the memo
    // probation window.
    std::vector<Client> first(1);
    std::swap(first[0], d->clients[0]);
    run_window(ctx, first, no_deadline, d->inputs.learn_frames);
    std::swap(first[0], d->clients[0]);
    run_window(ctx, d->clients, no_deadline, kOrbitWarmFrames);
  } else {
    // A few sessions on a throwaway epoch; the window starts on a fresh one.
    run_window(ctx, d->clients, no_deadline, kConnections * kIngestWarmSessions);
    close_ingest_epoch(*d);
    open_ingest_epoch(*d);
  }
  d->setup_seconds = seconds_since(start);
  return d;
}

// ---------------------------------------------------------------------------
// Counters the library exports, snapshotted around the traced slices.

struct CounterSnapshot {
  std::uint64_t table_hits = 0, memo_hits = 0, memo_probes = 0, canonicalizations = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t probe_count = 0, probe_pages = 0;
  std::uint64_t frame_count = 0, frame_sum_ns = 0;  ///< the workload's batch verb
  std::uint64_t all_frames_sum_ns = 0;              ///< every v2 verb the loop sends
  std::uint64_t busy_ns = 0, tasks = 0;
  std::uint64_t compaction_count = 0, compaction_sum_ns = 0;
  std::uint64_t compactions = 0;
  std::uint64_t wchar = 0;
  std::uint64_t appended_records = 0;
};

constexpr std::array kCounterFields{
    &CounterSnapshot::table_hits,       &CounterSnapshot::memo_hits,
    &CounterSnapshot::memo_probes,      &CounterSnapshot::canonicalizations,
    &CounterSnapshot::cache_hits,       &CounterSnapshot::cache_misses,
    &CounterSnapshot::probe_count,      &CounterSnapshot::probe_pages,
    &CounterSnapshot::frame_count,      &CounterSnapshot::frame_sum_ns,
    &CounterSnapshot::all_frames_sum_ns, &CounterSnapshot::busy_ns,
    &CounterSnapshot::tasks,            &CounterSnapshot::compaction_count,
    &CounterSnapshot::compaction_sum_ns, &CounterSnapshot::compactions,
    &CounterSnapshot::wchar,            &CounterSnapshot::appended_records};

/// Adds what every counter gained from `before` to `after` (two snapshots
/// of one server and its stores) to `into`.
void add_delta(CounterSnapshot& into, const CounterSnapshot& before, const CounterSnapshot& after)
{
  for (const auto field : kCounterFields) {
    into.*field += after.*field >= before.*field ? after.*field - before.*field : 0;
  }
}

CounterSnapshot snapshot_counters(const Deployment& d, FrameVerb verb)
{
  CounterSnapshot s;
  for (ClassStore* store : d.stores()) {
    s.table_hits += store->num_table_hits();
    s.memo_hits += store->num_memo_hits();
    s.memo_probes += store->num_memo_probes();
    s.canonicalizations += store->num_canonicalizations();
    const HotCacheStats cache = store->hot_cache_stats();
    s.cache_hits += cache.hits;
    s.cache_misses += cache.misses;
    const auto snapshot = store->tier_snapshot();
    if (const auto* mmap = dynamic_cast<const MmapSegment*>(snapshot->base.get())) {
      const auto probes = mmap->probe_stats();
      s.probe_count += probes.probes;
      s.probe_pages += probes.pages;
    }
    s.appended_records += store->num_records();
  }
  auto& registry = obs::MetricRegistry::global();
  const obs::HistogramSnapshot frame =
      registry
          .histogram("facet_serve_frame_latency",
                     obs::label("proto", "v2") + "," +
                         obs::label("verb", verb == FrameVerb::kAppend ? "append" : "lookup"))
          .snapshot();
  s.frame_count = frame.count();
  s.frame_sum_ns = frame.sum_ns;
  for (const char* other : {"lookup", "append", "quit"}) {
    s.all_frames_sum_ns +=
        registry
            .histogram("facet_serve_frame_latency",
                       obs::label("proto", "v2") + "," + obs::label("verb", other))
            .snapshot()
            .sum_ns;
  }
  s.busy_ns = registry.counter("facet_serve_worker_busy_ns").value();
  s.tasks = registry.counter("facet_serve_worker_tasks").value();
  const obs::HistogramSnapshot compaction =
      registry.histogram("facet_compaction_duration", obs::label("phase", "total")).snapshot();
  s.compaction_count = compaction.count();
  s.compaction_sum_ns = compaction.sum_ns;
  s.compactions = d.server ? d.server->compaction_log().size() : 0;
  s.wchar = proc_self_field("/proc/self/io", "wchar:");
  return s;
}

// ---------------------------------------------------------------------------
// Single-threaded replays of each layer's public entry points.

/// Times `op` over `count` items (stopping early at the replay cap) and
/// returns microseconds per item.
template <typename Op>
double replay_us(std::size_t count, const Op& op)
{
  const Clock::time_point start = Clock::now();
  std::size_t done = 0;
  for (; done < count; ++done) {
    op(done);
    if ((done & 63) == 63 && seconds_since(start) > kReplayCapSeconds) {
      ++done;
      break;
    }
  }
  return done == 0 ? 0.0 : seconds_since(start) * 1e6 / static_cast<double>(done);
}

struct ReplayResult {
  double dispatch_us_per_batch = 0;
  double lookup_ns = 0;
  double lookup_nomemo_ns = 0;
  double canon_us = 0;
  double semiclass_key_us = 0;
  double match_us = 0;
  double append_us = 0;
};

/// The next frames each read connection would send: the replay operands.
std::vector<FrameRef> upcoming_frames(const Deployment& d, std::size_t count)
{
  std::vector<FrameRef> frames;
  const auto& all = d.inputs.frames;
  for (std::size_t k = 0; k < count && k < all.size(); ++k) {
    const Client& client = d.clients[k % d.clients.size()];
    frames.push_back(all[(client.cursor + k / d.clients.size()) % all.size()]);
  }
  return frames;
}

ReplayResult run_replays(Deployment& d, const WorkloadSpec& spec, std::uint64_t seed)
{
  ReplayResult r;
  std::mt19937_64 rng{seed ^ 0x5E9A7ULL};

  // Operands: the workload's own upcoming frames, or fresh ingest functions.
  // The operand-level replays take the first kReplayFrames frames, the
  // dispatch replay the next ones, so neither warms the cache for the other.
  std::vector<std::string> requests;
  std::vector<TruthTable> ops;
  const std::vector<FrameRef> upcoming =
      spec.kind == Kind::kIngest ? std::vector<FrameRef>{} : upcoming_frames(d, 2 * kReplayFrames);
  for (std::size_t k = 0; k < 2 * kReplayFrames; ++k) {
    std::vector<TruthTable> tables;
    int width = spec.width;
    if (spec.kind == Kind::kIngest) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        tables.push_back(tt_random(spec.width, rng));
      }
    } else if (k < upcoming.size()) {
      const FrameRef& frame = upcoming[k];
      width = frame.width;
      const OperandPool& pool = d.inputs.pools[static_cast<std::size_t>(frame.width)];
      for (std::uint32_t i = 0; i < frame.count; ++i) {
        tables.push_back(pool.table(frame.first + i));
      }
    }
    if (k < kReplayFrames) {
      ops.insert(ops.end(), tables.begin(), tables.end());
    } else if (!tables.empty()) {
      requests.push_back(encode_batch_request(
          spec.kind == Kind::kIngest ? FrameVerb::kAppend : FrameVerb::kLookup, width, tables));
    }
  }
  if (ops.size() > kReplayOps) {
    ops.resize(kReplayOps);
  }

  // store.serve: FrameSession::consume on the same request bytes, no socket.
  // Ingest appends go to a fresh in-memory store so the served one is intact.
  {
    std::unique_ptr<ClassStore> scratch;
    ClassStore* store = d.store.get();
    ServeOptions options;
    options.readonly = spec.kind != Kind::kIngest;
    if (spec.kind == Kind::kIngest) {
      scratch = std::make_unique<ClassStore>(spec.width);
      store = scratch.get();
    }
    ServeDispatcher dispatcher{d.router ? nullptr : store, d.router.get(), options};
    FrameSession session{&dispatcher};
    std::string in;
    std::string out;
    r.dispatch_us_per_batch = replay_us(requests.size(), [&](std::size_t k) {
      in = requests[k];
      out.clear();
      (void)session.consume(in, out);
    });
  }

  // store: direct lookups on the served stores (no dispatcher, no socket).
  const auto store_of = [&](const TruthTable& f) -> ClassStore& {
    return d.router ? *d.router->store_for(f.num_vars()) : *d.store;
  };
  std::vector<TruthTable> reps(ops.size());
  if (spec.kind == Kind::kIngest) {
    // Lookups of acknowledged appends: memo bypassed, canonicalize + index.
    std::vector<TruthTable> acked;
    for (const Client& client : d.clients) {
      for (std::size_t i = 0; i < client.acked.size() && acked.size() < kReplayOps;
           i += 1 + client.acked.size() / kReplayOps) {
        acked.push_back(TruthTable{spec.width, {client.acked[i].word}});
      }
    }
    r.lookup_ns = 1000.0 * replay_us(acked.size(), [&](std::size_t i) {
      (void)d.store->lookup(acked[i]);
    });
  } else {
    r.lookup_ns = 1000.0 * replay_us(ops.size(), [&](std::size_t i) {
      (void)store_of(ops[i]).lookup(ops[i]);
    });
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (spec.kind == Kind::kIngest) {
      reps[i] = ops[i];  // a novel class is its own representative
    } else if (const auto hit = store_of(ops[i]).lookup(ops[i])) {
      reps[i] = hit->representative;
    }
  }

  // The same lookups with the semiclass memo off (orbit workloads: the
  // per-width memo decision the reference costs describe).
  if (spec.kind == Kind::kOrbit) {
    StoreOpenOptions open;
    open.use_mmap = true;
    open.store.semiclass_memo_capacity = 0;
    const ClassStore nomemo = ClassStore::open(d.index_paths.begin()->second, open);
    r.lookup_nomemo_ns = 1000.0 * replay_us(ops.size(), [&](std::size_t i) {
      (void)nomemo.lookup(ops[i]);
    });
  }

  // npn: canonicalization, the semiclass key and the matcher (a memo hit).
  r.canon_us = replay_us(ops.size(), [&](std::size_t i) {
    (void)exact_npn_canonical_with_transform(ops[i]);
  });
  r.semiclass_key_us = replay_us(ops.size(), [&](std::size_t i) {
    (void)semiclass_key(ops[i]);
  });
  r.match_us = replay_us(ops.size(), [&](std::size_t i) {
    (void)npn_match(ops[i], reps[i]);
  });

  // store append path: lookup_or_classify(f, true) on fresh stores.
  {
    std::array<std::unique_ptr<ClassStore>, kMaxVars + 1> fresh;
    for (const TruthTable& f : ops) {
      auto& slot = fresh[static_cast<std::size_t>(f.num_vars())];
      if (!slot) {
        slot = std::make_unique<ClassStore>(f.num_vars());
      }
    }
    r.append_us = replay_us(ops.size(), [&](std::size_t i) {
      (void)fresh[static_cast<std::size_t>(ops[i].num_vars())]->lookup_or_classify(ops[i], true);
    });
  }
  return r;
}

// ---------------------------------------------------------------------------
// ingest_n6 oracle: reopen each epoch's store from disk after its drain.

struct ReopenCheck {
  std::uint64_t checked = 0;
  std::array<std::uint64_t, 8> failed_by_window{};
  std::uint64_t id_collisions = 0;
  std::size_t records = 0;
};

/// Every acknowledged append must be served by the reopened store with its
/// acknowledged id (its record's representative is the function itself, or
/// an NPN-equivalent one when the class already existed), a sample is looked
/// up through the reopened store end to end, and distinct classes must hold
/// distinct ids (records bucketed by semiclass key; equivalent pairs across
/// ids fail). Adds the epoch's findings to `check`.
void check_reopened(const IngestEpoch& epoch, int width, std::mt19937_64& rng, ReopenCheck& check)
{
  const ClassStore reopened = ClassStore::open(epoch.path);
  const std::vector<StoreRecord> records = reopened.persisted_records();
  check.records += records.size();
  std::unordered_map<std::uint32_t, const StoreRecord*> by_id;
  for (const StoreRecord& record : records) {
    by_id.emplace(record.class_id, &record);
  }
  for (const Acked& a : epoch.acked) {
    ++check.checked;
    const TruthTable f{width, {a.word}};
    const auto it = by_id.find(a.class_id);
    bool ok = it != by_id.end() &&
              (it->second->representative == f || npn_match(f, it->second->representative));
    if (ok && rng() % 256 == 0) {
      const auto served = reopened.lookup(f);
      ok = served.has_value() && served->class_id == a.class_id && served->known;
    }
    if (!ok) {
      ++check.failed_by_window[std::min<std::size_t>(a.window, 7)];
    }
  }
  std::unordered_map<SemiclassKey, std::vector<const StoreRecord*>, SemiclassKeyHash> buckets;
  for (const StoreRecord& record : records) {
    auto& bucket = buckets[semiclass_key(record.representative)];
    for (const StoreRecord* other : bucket) {
      if (npn_equivalent(record.representative, other->representative)) {
        ++check.id_collisions;
      }
    }
    bucket.push_back(&record);
  }
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// --trace 0: what one slice measured, and the share of the VM's CPU time
/// the hypervisor took meanwhile.
struct SliceFigures {
  double ops = 0;          ///< operands answered correctly
  double seconds = 0;      ///< on ingest_n6 including the drain of an epoch that ended
  double cpu_seconds = 0;  ///< whole-process user + sys
  double batch_p50_us = 0;
  double steal_share = 0;
};

/// The samples (slices or set-ups) a --trace 0 figure is taken over, given
/// each one's steal share, least stolen first: every sample whose share is
/// at most kMaxStealShare, and never fewer than kMinKeptSamples.
std::vector<std::size_t> least_stolen(const std::vector<double>& steal)
{
  std::vector<std::size_t> order(steal.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::size_t keep = std::min(kMinKeptSamples, order.size());
  while (keep < order.size() && steal[order[keep]] <= kMaxStealShare) {
    ++keep;
  }
  order.resize(keep);
  return order;
}

void write_spans(const std::string& path, const std::vector<Span>& spans, std::uint64_t origin)
{
  std::ofstream out{path, std::ios::trunc};
  out << "frame_id\tconn\tspan\tstart_us\tend_us\n";
  out << std::fixed << std::setprecision(3);
  for (const Span& s : spans) {
    out << s.frame_id << '\t' << static_cast<unsigned>(s.conn) << '\t'
        << kSpanNames[static_cast<std::size_t>(s.kind)] << '\t' << ticks_us(s.start - origin)
        << '\t' << ticks_us(s.end - origin) << '\n';
  }
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics)
{
  std::ostringstream out;
  out << std::setprecision(10);
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << metrics[i].name << "\": {\"value\": " << metrics[i].value
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

Args parse_args(int argc, char** argv)
{
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--workdir") {
      args.workdir = value;
    } else if (key == "--source-digest") {
      args.source_digest = value;
    } else if (key == "--git-commit") {
      args.git_commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (args.seconds <= 0) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return args;
}

int run(const Args& args)
{
  const WorkloadSpec* spec = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) {
      spec = &w;
    }
  }
  if (spec == nullptr) {
    std::cerr << "ledger_bench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  obs::warm_up_clock();
  const FrameVerb verb = spec->kind == Kind::kIngest ? FrameVerb::kAppend : FrameVerb::kLookup;
  const bool rss_resets = reset_peak_rss();

  // --- set-up, kSetupRepeats times; the last deployment is measured --------
  std::vector<double> setup_s;
  std::vector<double> aig_s;
  std::vector<double> build_s;
  std::vector<double> setup_steal;
  std::unique_ptr<Deployment> d;
  for (int r = 0; r < kSetupRepeats; ++r) {
    d.reset();
    const HostCpu host0 = host_cpu();
    d = set_up(*spec, args, r);
    setup_steal.push_back(steal_share(host0, host_cpu()));
    setup_s.push_back(d->setup_seconds);
    aig_s.push_back(d->aig_seconds);
    build_s.push_back(d->build_seconds);
  }
  std::size_t classes = 0;
  if (spec->kind != Kind::kIngest) {
    classes = fill_expected(spec->kind, d->inputs);
  }

  // --- measured windows ------------------------------------------------------
  // --trace 0: kUntracedSlices untraced slices. --trace 1: ABBA slices
  // (untraced, traced, traced, untraced), so linear drift cancels in the
  // overhead. A slice is one window, or on ingest_n6 one window per epoch it
  // reaches. The drain that ends an epoch (the server's last delta-log flush
  // and the compactions it joins) counts in its slice's seconds and CPU;
  // starting the next epoch's store and server does not.
  LoopContext& ctx = d->ctx;
  ClientTally plain;
  ClientTally traced;
  double plain_seconds = 0;
  double traced_seconds = 0;
  double peak_rss_mib = 0;              ///< the largest VmHWM of any timed window
  std::vector<double> drain_ms;         ///< ingest_n6: one per epoch that ended
  CounterSnapshot counted;              ///< what the traced windows moved
  std::vector<SliceFigures> per_slice;  ///< --trace 0
  const std::size_t epoch_sessions =
      spec->kind == Kind::kIngest ? kConnections * kIngestEpochSessions : 0;
  const std::size_t slices = args.trace ? 4 : kUntracedSlices;
  const HostCpu host_start = host_cpu();
  for (std::size_t s = 0; s < slices; ++s) {
    ctx.trace = args.trace && (s == 1 || s == 2);
    ctx.window = static_cast<std::uint8_t>(s + 1);
    ClientTally slice;
    double slice_seconds = 0;
    const double cpu0 = process_cpu_seconds();
    const HostCpu host0 = host_cpu();
    for (double left = args.seconds / static_cast<double>(slices); left > 1e-6;) {
      const CounterSnapshot before = ctx.trace ? snapshot_counters(*d, verb) : CounterSnapshot{};
      const WindowResult window = run_window(ctx, d->clients, left, epoch_sessions);
      const bool epoch_over = epoch_sessions != 0 && d->epoch_sessions.load() >= epoch_sessions;
      const double drain_seconds = epoch_over ? d->drain() : 0.0;
      if (ctx.trace) {
        add_delta(counted, before, snapshot_counters(*d, verb));
      }
      // On ingest_n6 only the first measured epoch counts: each new server's
      // threads take fresh allocator arenas while the pages its predecessors'
      // arenas still pin stay resident (malloc_trim cannot return them), so
      // over later epochs the figure would grow with the epochs a run reaches.
      if (epoch_sessions == 0 || d->epochs.size() == 1) {
        peak_rss_mib = std::max(peak_rss_mib, window.peak_rss_mib);
      }
      merge_into(slice, window.total);
      slice_seconds += window.seconds + drain_seconds;
      left -= window.seconds + drain_seconds;
      if (epoch_over) {
        drain_ms.push_back(drain_seconds * 1e3);
        close_ingest_epoch(*d);
        open_ingest_epoch(*d);
      }
      if (!window.total.error.empty()) {
        break;
      }
    }
    if (!args.trace) {
      std::sort(slice.rtt_us.begin(), slice.rtt_us.end());
      per_slice.push_back({static_cast<double>(slice.ok), slice_seconds,
                           process_cpu_seconds() - cpu0, quantile(slice.rtt_us, 0.50),
                           steal_share(host0, host_cpu())});
      slice.rtt_us = {};  // the run's memory should not grow with throughput
    }
    merge_into(ctx.trace ? traced : plain, slice);
    (ctx.trace ? traced_seconds : plain_seconds) += slice_seconds;
  }
  const double run_steal_share = steal_share(host_start, host_cpu());
  std::vector<double> slice_steal;
  for (const SliceFigures& f : per_slice) {
    slice_steal.push_back(f.steal_share);
  }
  std::vector<SliceFigures> kept;
  for (const std::size_t i : least_stolen(slice_steal)) {
    kept.push_back(per_slice[i]);
  }
  std::vector<double> kept_setup_s;
  for (const std::size_t i : least_stolen(setup_steal)) {
    kept_setup_s.push_back(setup_s[i]);
  }
  const std::string error = plain.error.empty() ? traced.error : plain.error;

  std::size_t memo_bypassed = 0;
  for (ClassStore* store : d->stores()) {
    memo_bypassed += store->memo_bypassed() ? 1 : 0;
  }

  // --- replays (traced runs) and the ingest reopen check ---------------------
  ReplayResult replay;
  if (args.trace) {
    replay = run_replays(*d, *spec, args.seed);
  }
  ReopenCheck reopen;
  if (spec->kind == Kind::kIngest) {
    close_ingest_epoch(*d);
    std::mt19937_64 rng{args.seed ^ 0xC4ECULL};
    for (const IngestEpoch& epoch : d->epochs) {
      check_reopened(epoch, spec->width, rng, reopen);
    }
  }

  std::uint64_t attempted = plain.attempted + traced.attempted;
  std::uint64_t failed_reopen = 0;
  for (std::size_t w = 1; w < reopen.failed_by_window.size(); ++w) {
    failed_reopen += reopen.failed_by_window[w];
  }
  std::uint64_t ok = plain.ok + traced.ok;
  ok = ok > failed_reopen ? ok - failed_reopen : 0;
  const std::uint64_t failed = attempted - std::min(attempted, ok);
  const bool correct = error.empty() && failed == 0 && reopen.failed_by_window[0] == 0 &&
                       reopen.id_collisions == 0 && attempted > 0;

  // --- fingerprint -------------------------------------------------------------
  {
    std::ostringstream fp;
    fp << "{\"fingerprint\": {\"workload\": \"" << spec->name << "\", \"seed\": " << args.seed
       << ", \"seconds\": " << args.seconds << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"nproc\": " << std::thread::hardware_concurrency() << ", \"cpu_model\": \""
       << json_escape(cpu_model()) << "\", \"git_commit\": \"" << json_escape(args.git_commit)
       << "\", \"source_digest\": \"" << json_escape(args.source_digest)
       << "\", \"ndebug\": " << (kOptimizedBuild ? "true" : "false")
       << ", \"host\": {\"steal_share\": " << run_steal_share
       << ", \"slice_steal_limit\": " << kMaxStealShare << ", \"slices_kept\": " << kept.size()
       << ", \"slices_dropped\": " << per_slice.size() - kept.size()
       << ", \"kept_steal_max\": " << (kept.empty() ? 0.0 : kept.back().steal_share)
       << ", \"setups_kept\": " << kept_setup_s.size() << "}"
       << ", \"peak_rss\": \""
       << (rss_resets ? "VmHWM reset at the start of every timed window"
                      : "VmHWM over the whole process (clear_refs not writable)")
       << "\", \"params\": {\"connections\": " << kConnections << ", \"workers\": " << kWorkers
       << ", \"batch\": " << kBatch << ", \"setup_repeats\": " << kSetupRepeats
       << ", \"tail_latency\": \"per-layer only (net.batch_p90_us, net.batch_p99_us): over "
          "ten runs under host contention p90 spread 0.31-0.41 and ingest_n6 p99 0.49\"";
    if (spec->kind == Kind::kIngest) {
      fp << ", \"width\": " << spec->width << ", \"session_frames\": " << kIngestSessionFrames
         << ", \"epoch_sessions\": " << epoch_sessions
         << ", \"epochs\": " << d->epochs.size() - 1 << ", \"compact_after_runs\": " << kCompactAfterRuns
         << ", \"drain_ms\": {\"count\": " << drain_ms.size() << ", \"p50\": " << median(drain_ms)
         << "}, \"flush_policy\": \"delta-log frame written on quit before the ack; no fsync "
            "(server default)\""
         << ", \"reopen_checked\": " << reopen.checked << ", \"reopen_records\": " << reopen.records;
    } else {
      std::size_t pool_ops = 0;
      std::size_t distinct = 0;
      fp << ", \"widths\": {";
      bool first = true;
      for (const auto& pool : d->inputs.pools) {
        if (pool.size() == 0) {
          continue;
        }
        pool_ops += pool.size();
        distinct += d->inputs.distinct[static_cast<std::size_t>(pool.width)].size();
        fp << (first ? "" : ", ") << "\"" << pool.width << "\": [" << pool.size() << ", "
           << d->inputs.distinct[static_cast<std::size_t>(pool.width)].size() << "]";
        first = false;
      }
      fp << "}, \"ops_per_pass\": " << pool_ops << ", \"distinct_functions\": " << distinct
         << ", \"classes\": " << classes << ", \"frames_per_pass\": " << d->inputs.frames.size();
    }
    const ClientTally& main = args.trace ? traced : plain;
    fp << "}, \"samples\": {\"batch_rtt\": " << main.frames << ", \"slices\": " << slices
       << ", \"setup\": " << setup_s.size() << ", \"ops\": " << main.ok
       << ", \"flush\": " << main.flush_us.size() << "}}}";
    std::cout << fp.str() << "\n";
  }
  if (!error.empty()) {
    std::cerr << "ledger_bench: client error: " << error << "\n";
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    double kept_ops = 0;
    double kept_seconds = 0;
    double kept_cpu_seconds = 0;
    std::vector<double> kept_p50;
    for (const SliceFigures& f : kept) {
      kept_ops += f.ops;
      kept_seconds += f.seconds;
      kept_cpu_seconds += f.cpu_seconds;
      kept_p50.push_back(f.batch_p50_us);
    }
    metrics.push_back({"ops_per_s", ratio(kept_ops, kept_seconds), "ops/s"});
    metrics.push_back({"batch_p50_us", median(kept_p50), "us"});
    metrics.push_back({"ok_rate", ratio(static_cast<double>(ok), static_cast<double>(attempted)), "fraction"});
    metrics.push_back({"cpu_us_per_op", ratio(kept_cpu_seconds * 1e6, kept_ops), "us"});
    metrics.push_back({"setup_s", median(kept_setup_s), "s"});
    metrics.push_back({"peak_rss_mib", peak_rss_mib, "MiB"});
    std::cout << "# " << spec->name << ": " << ok << " ops in " << plain_seconds << " s ("
              << slices << " slices, " << kept.size() << " kept), " << plain.frames
              << " batch samples; per slice ops/s@steal:";
    for (const SliceFigures& f : per_slice) {
      std::cout << " " << ratio(f.ops, f.seconds) << "@" << f.steal_share;
    }
    std::cout << "; setup s@steal:";
    for (std::size_t r = 0; r < setup_s.size(); ++r) {
      std::cout << " " << setup_s[r] << "@" << setup_steal[r];
    }
    std::cout << "\n";
  } else {
    const double frames = static_cast<double>(traced.frames);
    const double ops = static_cast<double>(traced.attempted);
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const double rtt = ratio(std::accumulate(traced.rtt_us.begin(), traced.rtt_us.end(), 0.0),
                             static_cast<double>(traced.rtt_us.size()));
    const double server_frame =
        ratio(count(counted.frame_sum_ns), count(counted.frame_count)) /
        1000.0;
    const double tasks = count(counted.tasks);
    const double busy_us = count(counted.busy_ns) / 1000.0;
    const double all_frames = frames + static_cast<double>(traced.control);
    const double write_us = ticks_us(traced.write_ticks) / std::max(1.0, frames);
    // Worker time outside FrameSession::consume (socket reads and writes,
    // session bookkeeping), per batch.
    const double worker_io =
        ratio(busy_us - count(counted.all_frames_sum_ns) / 1000.0, all_frames);
    const double unattributed = rtt - write_us - server_frame - worker_io;
    std::vector<double> flush = traced.flush_us;
    std::sort(flush.begin(), flush.end());
    const double compaction_ms =
        ratio(count(counted.compaction_sum_ns),
              count(counted.compaction_count)) /
        1e6;
    const double appended = count(counted.appended_records);
    const double file_bytes = count(counted.wchar) -
                              static_cast<double>(traced.request_bytes + traced.response_bytes);
    const double untraced_rate = ratio(static_cast<double>(plain.ok), plain_seconds);
    const double traced_rate = ratio(static_cast<double>(traced.ok), traced_seconds);

    metrics.push_back({"net.frame.encode_ns_per_op", ratio(ticks_us(traced.encode_ticks) * 1000.0, ops), "ns"});
    metrics.push_back({"net.frame.decode_ns_per_op", ratio(ticks_us(traced.decode_ticks) * 1000.0, ops), "ns"});
    metrics.push_back({"net.rtt_us_per_batch", rtt, "us"});
    std::sort(plain.rtt_us.begin(), plain.rtt_us.end());
    metrics.push_back({"net.batch_p90_us", quantile(plain.rtt_us, 0.90), "us"});
    metrics.push_back({"net.batch_p99_us", quantile(plain.rtt_us, 0.99), "us"});
    metrics.push_back({"net.server_frame_us_per_batch", server_frame, "us"});
    metrics.push_back({"net.transport_us_per_batch", rtt - server_frame, "us"});
    metrics.push_back({"net.reactor.busy_frac",
                       ratio(busy_us / 1e6, static_cast<double>(kWorkers) * traced_seconds), "fraction"});
    metrics.push_back({"net.reactor.tasks_per_batch", ratio(tasks, all_frames), "count"});
    metrics.push_back({"net.reactor.queue_depth_max", static_cast<double>(traced.queue_depth_max), "count"});
    metrics.push_back({"store.serve.dispatch_us_per_batch", replay.dispatch_us_per_batch, "us"});
    metrics.push_back({"store.lookup_ns_per_op", replay.lookup_ns, "ns"});
    metrics.push_back({"store.lookup_nomemo_ns_per_op", replay.lookup_nomemo_ns, "ns"});
    metrics.push_back({"store.table_hit_ratio", ratio(count(counted.table_hits), ops), "fraction"});
    metrics.push_back({"store.cache_hit_ratio",
                       ratio(count(counted.cache_hits),
                             count(counted.cache_hits) + count(counted.cache_misses)),
                       "fraction"});
    metrics.push_back({"store.memo_hit_ratio",
                       ratio(count(counted.memo_hits), count(counted.memo_probes)),
                       "fraction"});
    metrics.push_back({"store.canon_per_op", ratio(count(counted.canonicalizations), ops), "count"});
    metrics.push_back({"store.memo_bypassed", static_cast<double>(memo_bypassed), "count"});
    metrics.push_back({"store.segment.pages_per_probe",
                       ratio(count(counted.probe_pages), count(counted.probe_count)),
                       "count"});
    metrics.push_back({"npn.canon_us", replay.canon_us, "us"});
    metrics.push_back({"npn.semiclass_key_us", replay.semiclass_key_us, "us"});
    metrics.push_back({"npn.match_us", replay.match_us, "us"});
    metrics.push_back({"store.append_us_per_op", replay.append_us, "us"});
    metrics.push_back({"store.flush_ms_p50", quantile(flush, 0.5) / 1000.0, "ms"});
    metrics.push_back({"store.compactions", count(counted.compactions), "count"});
    metrics.push_back({"store.compaction_ms", compaction_ms, "ms"});
    metrics.push_back({"store.write_bytes_per_record", appended > 0 ? ratio(file_bytes, appended) : 0.0, "bytes"});
    metrics.push_back({"store.delta_runs_max", static_cast<double>(traced.delta_runs_max), "count"});
    metrics.push_back({"aig.cut_us_per_cut",
                       d->inputs.cuts > 0 ? median(aig_s) * 1e6 / static_cast<double>(d->inputs.cuts) : 0.0, "us"});
    metrics.push_back({"engine.build_s", median(build_s), "s"});
    metrics.push_back({"unattributed_us_per_batch", unattributed, "us"});
    metrics.push_back({"obs.trace_overhead_frac", untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0,
                       "fraction"});

    // The layer table: per-batch self times against the client round trip.
    std::cout << std::fixed << std::setprecision(2);
    std::cout << "# layer ledger, " << spec->name << ", traced slices: " << traced.frames
              << " batches of <= " << kBatch << " operands\n"
              << "#   client encode (outside rtt)      " << ratio(ticks_us(traced.encode_ticks), frames) << " us\n"
              << "#   client decode (outside rtt)      " << ratio(ticks_us(traced.decode_ticks), frames) << " us\n"
              << "#   rtt                               " << rtt << " us  = 100%\n"
              << "#     net write (client send)         " << write_us << " us  " << 100 * ratio(write_us, rtt) << "%\n"
              << "#     server frame (consume)          " << server_frame << " us  " << 100 * ratio(server_frame, rtt) << "%\n"
              << "#       [replay] store.serve dispatch " << replay.dispatch_us_per_batch << " us (no socket)\n"
              << "#       [replay] store lookups x " << kBatch << "    " << replay.lookup_ns * kBatch / 1000.0 << " us\n"
              << "#     server worker i/o               " << worker_io << " us  " << 100 * ratio(worker_io, rtt) << "%\n"
              << "#     unattributed (wakeups, queue)   " << unattributed << " us  " << 100 * ratio(unattributed, rtt) << "%\n"
              << "#   tracing overhead                  " << 100 * (untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0)
              << "% of untraced ops/s\n";
    std::cout << "# in-process lookup reference (single thread, memo on / memo off):\n";
    for (const auto& ref : kReferenceCosts) {
      std::cout << "#   n=" << ref.width << " reference " << ref.memo_on_us << " / " << ref.memo_off_us
                << " us/op (memo " << ref.memo_off_us / ref.memo_on_us << "x)";
      if (spec->kind == Kind::kOrbit && spec->width == ref.width) {
        std::cout << "; this run " << replay.lookup_ns / 1000.0 << " / " << replay.lookup_nomemo_ns / 1000.0
                  << " us/op (memo " << ratio(replay.lookup_nomemo_ns, replay.lookup_ns) << "x)";
      }
      std::cout << "\n";
    }
    std::cout << std::defaultfloat;

    const std::filesystem::path trace_dir = std::filesystem::path{args.workdir}.parent_path() / "traces";
    std::filesystem::create_directories(trace_dir);
    std::uint64_t first = traced.spans.empty() ? 0 : traced.spans.front().start;
    for (const Span& s : traced.spans) {
      first = std::min(first, s.start);
    }
    write_spans((trace_dir / (std::string{spec->name} + ".tsv")).string(), traced.spans, first);
  }
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv)
{
  if (!kOptimizedBuild) {
    std::cerr << "ledger_bench: refusing to report from a build without NDEBUG "
                 "(configure with -DCMAKE_BUILD_TYPE=Release)\n";
    return 2;
  }
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "ledger_bench: " << e.what() << "\n";
    return 2;
  }
}
