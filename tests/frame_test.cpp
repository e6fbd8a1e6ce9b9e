/// Protocol v2 frame layer tests: codec round-trips, FrameSession semantics
/// (lookup vs append policy, stats/metrics/quit), and the robustness matrix
/// the wire demands — truncated frames, oversized length prefixes, garbage
/// verb ids, bad counts, bad magic — each answering a canonical err frame
/// and either continuing or closing, never hanging. Ends with both
/// protocols sniffed apart on one live server port.

#include "facet/net/frame.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "facet/engine/batch_engine.hpp"
#include "facet/net/server.hpp"
#include "facet/net/socket.hpp"
#include "facet/store/store_builder.hpp"
#include "facet/tt/tt_generate.hpp"
#include "facet/tt/tt_io.hpp"
#include "serve_session.hpp"

namespace facet {
namespace {

using serve_test::send_all;
using serve_test::serve_counter;
using serve_test::SocketLines;

std::vector<TruthTable> random_funcs(int n, std::size_t count, std::uint64_t seed)
{
  std::mt19937_64 rng{seed};
  std::vector<TruthTable> funcs;
  for (std::size_t i = 0; i < count; ++i) {
    funcs.push_back(tt_random(n, rng));
  }
  return funcs;
}

struct Response {
  FrameHeader header;
  std::string payload;
};

/// Splits a response byte stream back into frames.
std::vector<Response> parse_responses(const std::string& out)
{
  std::vector<Response> responses;
  std::size_t offset = 0;
  while (out.size() - offset >= kFrameHeaderBytes) {
    Response r;
    r.header = decode_header(reinterpret_cast<const unsigned char*>(out.data()) + offset);
    EXPECT_EQ(r.header.magic, kFrameResponseMagic);
    EXPECT_LE(offset + kFrameHeaderBytes + r.header.payload_bytes, out.size());
    r.payload = out.substr(offset + kFrameHeaderBytes, r.header.payload_bytes);
    offset += kFrameHeaderBytes + r.header.payload_bytes;
    responses.push_back(std::move(r));
  }
  EXPECT_EQ(offset, out.size()) << "trailing garbage after last response frame";
  return responses;
}

TEST(Frame, OperandCodecRoundTripsAcrossWidths)
{
  std::mt19937_64 rng{0xF2A1ULL};
  for (const int width : {0, 1, 2, 3, 4, 5, 6, 7, 8}) {
    for (int i = 0; i < 8; ++i) {
      const TruthTable tt = tt_random(width, rng);
      std::string wire;
      encode_operand(wire, tt);
      ASSERT_EQ(wire.size(), frame_operand_bytes(width));
      const TruthTable back =
          decode_operand(width, reinterpret_cast<const unsigned char*>(wire.data()));
      EXPECT_EQ(back, tt) << "width " << width;
    }
  }
}

TEST(Frame, HeaderCodecRoundTrips)
{
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = static_cast<std::uint8_t>(FrameVerb::kAppend);
  header.aux = 9;
  header.flags = 0;
  header.payload_bytes = 0xABCDEF;
  std::string wire;
  encode_header(wire, header);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes);
  const FrameHeader back = decode_header(reinterpret_cast<const unsigned char*>(wire.data()));
  EXPECT_EQ(back.magic, header.magic);
  EXPECT_EQ(back.verb, header.verb);
  EXPECT_EQ(back.aux, header.aux);
  EXPECT_EQ(back.flags, header.flags);
  EXPECT_EQ(back.payload_bytes, header.payload_bytes);
}

/// Fixture: one n=5 store + dispatcher + frame session, no sockets.
class FrameSessionTest : public ::testing::Test {
 protected:
  FrameSessionTest()
      : funcs_{random_funcs(5, 40, 0xF2B2ULL)},
        expected_{classify_batch(funcs_, ClassifierKind::kExhaustive, {})},
        store_{build_class_store(funcs_, {})}
  {
  }

  ServeDispatcher make_dispatcher(bool readonly = false)
  {
    ServeOptions options;
    options.readonly = readonly;
    return ServeDispatcher{&store_, nullptr, options};
  }

  /// A function whose class the store does not hold (for miss-path tests).
  TruthTable unknown_func()
  {
    std::mt19937_64 rng{0xF2C3ULL};
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const TruthTable candidate = tt_random(5, rng);
      if (!store_.lookup(candidate).has_value()) {
        return candidate;
      }
    }
    ADD_FAILURE() << "could not find an unknown function";
    return funcs_.front();
  }

  std::vector<TruthTable> funcs_;
  ClassificationResult expected_;
  ClassStore store_;
};

TEST_F(FrameSessionTest, BatchLookupAnswersBatchEngineIdsBitIdentically)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  std::string in = encode_batch_request(FrameVerb::kLookup, 5, funcs_);
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  EXPECT_TRUE(in.empty());

  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  const auto records = decode_records(responses[0].payload);
  ASSERT_TRUE(records.has_value());
  ASSERT_EQ(records->size(), funcs_.size());
  for (std::size_t i = 0; i < funcs_.size(); ++i) {
    EXPECT_EQ((*records)[i].class_id, expected_.class_of[i]) << "operand " << i;
    EXPECT_NE((*records)[i].src, static_cast<std::uint8_t>(FrameSrc::kMiss));
  }
}

TEST_F(FrameSessionTest, LookupNeverClassifiesButAppendDoes)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  const TruthTable stranger = unknown_func();
  const std::size_t records_before = store_.num_records();

  // lookup: pure read — a miss record, and the store is untouched.
  std::string in = encode_batch_request(FrameVerb::kLookup, 5, {stranger});
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  auto records = decode_records(parse_responses(out).at(0).payload);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ((*records)[0].class_id, kFrameMissClassId);
  EXPECT_EQ((*records)[0].src, static_cast<std::uint8_t>(FrameSrc::kMiss));
  EXPECT_EQ(store_.num_records(), records_before);

  // append on the same connection: classifies live and persists.
  in = encode_batch_request(FrameVerb::kAppend, 5, {stranger});
  out.clear();
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  records = decode_records(parse_responses(out).at(0).payload);
  ASSERT_TRUE(records.has_value());
  const std::uint32_t appended_id = (*records)[0].class_id;
  EXPECT_NE(appended_id, kFrameMissClassId);
  EXPECT_EQ((*records)[0].src, static_cast<std::uint8_t>(FrameSrc::kLive));
  EXPECT_GT(store_.num_records(), records_before);

  // and the next lookup hits.
  in = encode_batch_request(FrameVerb::kLookup, 5, {stranger});
  out.clear();
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  records = decode_records(parse_responses(out).at(0).payload);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ((*records)[0].class_id, appended_id);
  EXPECT_NE((*records)[0].src, static_cast<std::uint8_t>(FrameSrc::kMiss));
}

TEST_F(FrameSessionTest, AppendOnReadonlyAnswersErrAndKeepsTheConnection)
{
  ServeDispatcher dispatcher = make_dispatcher(/*readonly=*/true);
  FrameSession session{&dispatcher};
  std::string in = encode_batch_request(FrameVerb::kAppend, 5, {funcs_.front()});
  in += encode_batch_request(FrameVerb::kLookup, 5, {funcs_.front()});
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);

  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kReadonly));
  // framing stayed intact: the lookup after the rejected append answers ok
  EXPECT_EQ(responses[1].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  const auto records = decode_records(responses[1].payload);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ((*records)[0].class_id, expected_.class_of[0]);
}

TEST_F(FrameSessionTest, TruncatedFramesWaitForTheRest)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  const std::string full = encode_batch_request(FrameVerb::kLookup, 5, {funcs_.front()});

  // Feed it one byte at a time: nothing may answer until the frame is
  // complete, and nothing may be consumed prematurely.
  std::string in;
  std::string out;
  for (std::size_t i = 0; i + 1 < full.size(); ++i) {
    in.push_back(full[i]);
    EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(in.size(), i + 1);  // partial frame stays buffered
  }
  in.push_back(full.back());
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  EXPECT_TRUE(in.empty());
  const auto records = decode_records(parse_responses(out).at(0).payload);
  ASSERT_TRUE(records.has_value());
  EXPECT_EQ((*records)[0].class_id, expected_.class_of[0]);
}

TEST_F(FrameSessionTest, OversizedLengthPrefixAnswersErrAndCloses)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = static_cast<std::uint8_t>(FrameVerb::kLookup);
  header.payload_bytes = kMaxFramePayloadBytes + 1;
  std::string in;
  encode_header(in, header);
  std::string out;
  // The header alone convicts the frame — no need to wait for a payload
  // the session would refuse to buffer.
  EXPECT_EQ(session.consume(in, out), FrameStep::kClose);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kTooLarge));
}

TEST_F(FrameSessionTest, GarbageVerbAnswersErrAndContinues)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  FrameHeader header;
  header.magic = kFrameRequestMagic;
  header.verb = 0x7E;
  header.payload_bytes = 0;
  std::string in;
  encode_header(in, header);
  in += encode_batch_request(FrameVerb::kLookup, 5, {funcs_.front()});
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kBadVerb));
  EXPECT_EQ(responses[1].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
}

TEST_F(FrameSessionTest, BadMagicCloses)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  std::string in = "GET / HTTP/1.1\r\n\r\n";  // a lost HTTP client
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kClose);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kBadFrame));
}

TEST_F(FrameSessionTest, CountPayloadMismatchAnswersErrAndContinues)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  // claims 3 operands but carries bytes for 1
  std::string in = encode_batch_request(FrameVerb::kLookup, 5, {funcs_.front()});
  in[kFrameHeaderBytes] = 3;
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kBadCount));
}

TEST_F(FrameSessionTest, UnroutedWidthAnswersErr)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  std::mt19937_64 rng{0xF2E5ULL};
  std::string in = encode_batch_request(FrameVerb::kLookup, 4, {tt_random(4, rng)});
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kContinue);
  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kUnrouted));
}

TEST_F(FrameSessionTest, StatsMetricsAndQuitVerbsAnswer)
{
  ServeDispatcher dispatcher = make_dispatcher();
  FrameSession session{&dispatcher};
  std::string in = encode_control_request(FrameVerb::kStats);
  in += encode_control_request(FrameVerb::kMetrics);
  in += encode_control_request(FrameVerb::kQuit);
  std::string out;
  EXPECT_EQ(session.consume(in, out), FrameStep::kClose);  // quit closes

  const std::vector<Response> responses = parse_responses(out);
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(responses[0].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  EXPECT_EQ(responses[0].payload.rfind("ok connections=", 0), 0u);
  EXPECT_EQ(responses[1].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  EXPECT_NE(responses[1].payload.find("facet_serve"), std::string::npos);
  EXPECT_EQ(responses[2].header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
  ASSERT_EQ(responses[2].payload.size(), 8u);  // u64 flushed count
}

std::string recv_exact(int fd, std::size_t want)
{
  std::string data;
  char buf[4096];
  while (data.size() < want) {
    const ssize_t n =
        ::recv(fd, buf, std::min(sizeof buf, want - data.size()), 0);
    if (n <= 0) {
      ADD_FAILURE() << "connection closed " << (want - data.size()) << " bytes early";
      return data;
    }
    data.append(buf, static_cast<std::size_t>(n));
  }
  return data;
}

Response read_response(int fd)
{
  Response r;
  const std::string head = recv_exact(fd, kFrameHeaderBytes);
  if (head.size() < kFrameHeaderBytes) {
    return r;
  }
  r.header = decode_header(reinterpret_cast<const unsigned char*>(head.data()));
  r.payload = recv_exact(fd, r.header.payload_bytes);
  return r;
}

TEST(Frame, V1AndV2AutoSniffShareOnePort)
{
  const auto funcs = random_funcs(5, 30, 0xF2D4ULL);
  const ClassificationResult expected = classify_batch(funcs, ClassifierKind::kExhaustive, {});
  const std::string path = ::testing::TempDir() + "frame_sniff_5.fcs";
  build_class_store(funcs, {}).save(path);
  std::remove(ClassStore::delta_log_path(path).c_str());

  ClassStore store = ClassStore::open(path);
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  ServeServer server{store, path, options};
  server.start();
  ASSERT_NE(server.tcp_port(), 0);
  const std::uint64_t errors_before = serve_counter("facet_serve_errors_total");
  const std::uint64_t sessions_before = serve_counter("facet_serve_connections_total");

  // v2 clients, four at once: each sends one binary batch over the whole
  // set, then quits.
  const std::size_t v2_clients = 4;
  {
    const auto v2_client = [&] {
      Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
      ASSERT_TRUE(send_all(client.fd(), encode_batch_request(FrameVerb::kLookup, 5, funcs)));
      const Response batch = read_response(client.fd());
      EXPECT_EQ(batch.header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
      const auto records = decode_records(batch.payload);
      ASSERT_TRUE(records.has_value());
      ASSERT_EQ(records->size(), funcs.size());
      for (std::size_t i = 0; i < funcs.size(); ++i) {
        EXPECT_EQ((*records)[i].class_id, expected.class_of[i]);
      }
      ASSERT_TRUE(send_all(client.fd(), encode_control_request(FrameVerb::kQuit)));
      const Response bye = read_response(client.fd());
      EXPECT_EQ(bye.header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
    };
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < v2_clients; ++c) {
      clients.emplace_back(v2_client);
    }
    for (std::thread& client : clients) {
      client.join();
    }
  }

  // v1 client on the SAME port: the first byte is ASCII, so the line
  // protocol answers.
  {
    Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
    SocketLines in{client.fd()};
    ASSERT_TRUE(send_all(client.fd(), "lookup " + to_hex(funcs.front()) + "\nquit\n"));
    std::string line;
    ASSERT_TRUE(in.next(line));
    EXPECT_EQ(line.rfind("ok id=" + std::to_string(expected.class_of[0]), 0), 0u);
    ASSERT_TRUE(in.next(line));
    EXPECT_EQ(line.rfind("ok bye", 0), 0u);
  }

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(serve_counter("facet_serve_errors_total") - errors_before, 0u);
  EXPECT_EQ(serve_counter("facet_serve_connections_total") - sessions_before, v2_clients + 1);
}

/// CI's protocol v2 smoke at test scale: an idle fleet pins reactor slots
/// on four loops while one client runs a v2 batch, a live append and quit;
/// a v1 client on the same port answers the v2 batch's id; and the drain,
/// with the whole fleet still connected, persists the append.
TEST(Frame, IdleFleetV2AppendAndSniffedV1AgreeThenDrainPersists)
{
  const auto funcs = random_funcs(5, 30, 0xF2D6ULL);
  const ClassificationResult expected = classify_batch(funcs, ClassifierKind::kExhaustive, {});
  const TruthTable novel = random_funcs(5, 1, 0xF2D7ULL).front();
  const std::string path = ::testing::TempDir() + "frame_fleet_5.fcs";
  build_class_store(funcs, {}).save(path);
  std::remove(ClassStore::delta_log_path(path).c_str());

  {
    ClassStore store = ClassStore::open(path);
    ServeServerOptions options;
    options.listen = "127.0.0.1:0";
    options.append_on_miss = true;
    options.max_connections = 300;
    options.workers = 4;
    ServeServer server{store, path, options};
    server.start();
    ASSERT_NE(server.tcp_port(), 0);
    const std::uint64_t errors_before = serve_counter("facet_serve_errors_total");
    std::vector<Socket> idle;
    for (int i = 0; i < 200; ++i) {
      idle.push_back(connect_tcp({"127.0.0.1", server.tcp_port()}));
    }

    std::uint32_t first_id = kFrameMissClassId;
    {
      Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
      ASSERT_TRUE(send_all(client.fd(), encode_batch_request(FrameVerb::kLookup, 5, funcs)));
      const auto records = decode_records(read_response(client.fd()).payload);
      ASSERT_TRUE(records.has_value());
      ASSERT_EQ(records->size(), funcs.size());
      for (std::size_t i = 0; i < funcs.size(); ++i) {
        EXPECT_EQ((*records)[i].class_id, expected.class_of[i]);
      }
      first_id = records->front().class_id;

      ASSERT_TRUE(send_all(client.fd(), encode_batch_request(FrameVerb::kAppend, 5, {novel})));
      const auto appended = decode_records(read_response(client.fd()).payload);
      ASSERT_TRUE(appended.has_value());
      ASSERT_EQ(appended->size(), 1u);
      EXPECT_NE(appended->front().class_id, kFrameMissClassId);
      EXPECT_EQ(appended->front().src, static_cast<std::uint8_t>(FrameSrc::kLive));

      ASSERT_TRUE(send_all(client.fd(), encode_control_request(FrameVerb::kQuit)));
      EXPECT_EQ(read_response(client.fd()).payload.size(), 8u);  // u64 flushed count
    }
    {
      Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
      SocketLines in{client.fd()};
      ASSERT_TRUE(send_all(client.fd(), "lookup " + to_hex(funcs.front()) + "\nquit\n"));
      std::string line;
      ASSERT_TRUE(in.next(line));
      // "ok id=<k> rep=..." — the id is the second token's value
      EXPECT_EQ(line.rfind("ok id=" + std::to_string(first_id) + " ", 0), 0u) << line;
    }

    server.request_shutdown();
    server.wait();  // returns with all 200 idle connections still open
    EXPECT_EQ(serve_counter("facet_serve_errors_total") - errors_before, 0u);
  }

  const ClassStore reopened = ClassStore::open(path);
  const auto hit = reopened.lookup(novel);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->known);
  std::remove(ClassStore::delta_log_path(path).c_str());
  std::remove(path.c_str());
}

/// Framing faults (bad magic, oversized length prefix) answer an err frame
/// and close; each counts one request and one error, like any other
/// malformed frame.
TEST(Frame, FramingFaultsCountOneRequestAndOneError)
{
  const std::string path = ::testing::TempDir() + "frame_faults_5.fcs";
  build_class_store(random_funcs(5, 10, 0xF2D5ULL), {}).save(path);
  std::remove(ClassStore::delta_log_path(path).c_str());

  ClassStore store = ClassStore::open(path);
  ServeServerOptions options;
  options.listen = "127.0.0.1:0";
  options.proto = "v2";  // auto would sniff a bad-magic first byte as v1
  ServeServer server{store, path, options};
  server.start();
  ASSERT_NE(server.tcp_port(), 0);
  const std::uint64_t requests_before = serve_counter("facet_serve_requests_total");
  const std::uint64_t errors_before = serve_counter("facet_serve_errors_total");

  FrameHeader oversized;
  oversized.magic = kFrameRequestMagic;
  oversized.verb = static_cast<std::uint8_t>(FrameVerb::kLookup);
  oversized.payload_bytes = kMaxFramePayloadBytes + 1;
  std::string oversized_wire;
  encode_header(oversized_wire, oversized);
  const std::vector<std::pair<std::string, FrameStatus>> faults{
      {"GET / HTTP/1.1\r\n\r\n", FrameStatus::kBadFrame},
      {oversized_wire, FrameStatus::kTooLarge}};
  for (const auto& [wire, status] : faults) {
    Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
    ASSERT_TRUE(send_all(client.fd(), wire));
    EXPECT_EQ(read_response(client.fd()).header.aux, static_cast<std::uint8_t>(status));
  }

  // `stats all` (the v2 stats verb) counts itself, then both faults, on
  // top of whatever the process counted before.
  {
    Socket client = connect_tcp({"127.0.0.1", server.tcp_port()});
    ASSERT_TRUE(send_all(client.fd(), encode_control_request(FrameVerb::kStats)));
    const Response stats = read_response(client.fd());
    EXPECT_EQ(stats.header.aux, static_cast<std::uint8_t>(FrameStatus::kOk));
    const std::string requests = " requests=" + std::to_string(requests_before + 3) + " ";
    const std::string errors = " errors=" + std::to_string(errors_before + 2) + " ";
    EXPECT_NE(stats.payload.find(requests), std::string::npos) << stats.payload;
    EXPECT_NE(stats.payload.find(errors), std::string::npos) << stats.payload;
  }

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(serve_counter("facet_serve_requests_total") - requests_before, 3u);
  EXPECT_EQ(serve_counter("facet_serve_errors_total") - errors_before, 2u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace facet
