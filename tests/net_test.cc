// Network ingestion tests: wire-protocol round trips, decoder hardening,
// and loopback stress against a live VerifierServer — concurrent sessions
// with overlapping virtual timestamps, an abrupt mid-frame disconnect, a
// fault-injected session whose violation must come back over the wire, and
// the backpressure liveness escape.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fuzz_history_util.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "verifier/mechanism_table.h"
#include "workload/workload.h"

namespace leopard {
namespace net {
namespace {

using fuzzutil::BuildSerialHistory;
using fuzzutil::History;
using fuzzutil::kKeys;

VerifierConfig PgSer() {
  return ConfigForMiniDb(Protocol::kMvcc2plSsi,
                         IsolationLevel::kSerializable);
}

/// Rebases a serial history into a disjoint universe so several of them can
/// verify concurrently as independent sessions: keys shift by
/// `session * 100` (histories use kKeys = 20) and every transaction id —
/// including the load transaction — shifts by `(session + 1) * 1'000'000`,
/// so bug routing by transaction id is unambiguous. Timestamps are left
/// untouched on purpose: sessions overlap in virtual time, exercising the
/// server-side watermark merge.
void RebaseHistory(History& h, uint32_t session) {
  const Key key_off = static_cast<Key>(session) * 100;
  const TxnId txn_off = static_cast<TxnId>(session + 1) * 1'000'000;
  for (Trace& t : h.traces) {
    t.txn += txn_off;
    for (auto& r : t.read_set) r.key += key_off;
    for (auto& w : t.write_set) w.key += key_off;
    for (auto& k : t.absent_reads) k += key_off;
  }
}

/// Applies the stale-read mutation from fuzz_history_test: one read is
/// rewritten to observe an overwritten value. Returns false when the seed
/// offers no mutable read.
bool PlantStaleRead(History& h, uint64_t seed) {
  Rng rng(seed ^ 0xabc);
  for (int attempt = 0; attempt < 500; ++attempt) {
    size_t i = rng.Uniform(h.traces.size());
    Trace& t = h.traces[i];
    if (t.op != OpType::kRead || t.read_set.size() != 1) continue;
    Key key = t.read_set[0].key;
    const auto& versions = h.versions[key];
    for (size_t v = 1; v < versions.size(); ++v) {
      if (versions[v].value == t.read_set[0].value &&
          versions[v - 1].value != kTombstoneValue &&
          versions[v - 1].value != versions[v].value) {
        t.read_set[0].value = versions[v - 1].value;
        return true;
      }
    }
  }
  return false;
}

/// Streams a full history over one connection / one stream and finishes.
/// Returns the violations the server attributed to this session.
std::vector<BugDescriptor> RunSession(uint16_t port, History h,
                                      size_t batch_traces = 64) {
  VerifierClient::Options co;
  co.batch_traces = batch_traces;
  auto client =
      VerifierClient::Connect("127.0.0.1:" + std::to_string(port), co);
  EXPECT_TRUE(client.ok()) << client.status();
  if (!client.ok()) return {};
  for (Trace& t : h.traces) {
    Status s = (*client)->Push(0, std::move(t));
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok()) return {};
  }
  auto bye = (*client)->Finish();
  EXPECT_TRUE(bye.ok()) << bye.status();
  return (*client)->violations();
}

/// Receives frames on a raw socket until `want` arrives (or fails the
/// test).
bool ReadFrameOfType(Socket& sock, FrameDecoder& decoder, FrameType want,
                     Frame& out) {
  char buf[4096];
  for (int i = 0; i < 1000; ++i) {
    Status s = decoder.Poll(out);
    if (s.ok()) {
      if (out.type == want) return true;
      continue;  // skip acks etc.
    }
    if (s.code() != StatusCode::kBusy) return false;
    auto got = sock.Recv(buf, sizeof(buf));
    if (!got.ok() || *got == 0) return false;
    decoder.Feed(buf, *got);
  }
  return false;
}

TEST(WireTest, FrameRoundTripByteByByte) {
  HelloMsg hello;
  hello.n_streams = 7;
  std::string frame = EncodeFrame(FrameType::kHello, EncodeHello(hello));
  FrameDecoder decoder;
  Frame out;
  // Feed one byte at a time: the decoder must be Busy until the last one.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(frame.data() + i, 1);
    EXPECT_EQ(decoder.Poll(out).code(), StatusCode::kBusy);
  }
  decoder.Feed(frame.data() + frame.size() - 1, 1);
  ASSERT_TRUE(decoder.Poll(out).ok());
  EXPECT_EQ(out.type, FrameType::kHello);
  auto decoded = DecodeHello(out.payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->version, kWireVersion);
  EXPECT_EQ(decoded->n_streams, 7u);
  EXPECT_EQ(decoder.Poll(out).code(), StatusCode::kBusy);
}

TEST(WireTest, AllMessageTypesRoundTrip) {
  HelloAckMsg ack_in;
  ack_in.base_client = 42;
  auto ack = DecodeHelloAck(EncodeHelloAck(ack_in));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->base_client, 42u);

  std::vector<Trace> traces;
  traces.push_back(MakeReadTrace(9, 2, TimeInterval(100, 105),
                                 {ReadAccess{3, 77}}));
  traces.push_back(MakeWriteTrace(9, 2, TimeInterval(110, 115),
                                  {WriteAccess{3, 78}}));
  traces.push_back(MakeCommitTrace(9, 2, TimeInterval(120, 125)));
  auto batch = DecodeBatch(EncodeBatch(5, traces));
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->stream, 5u);
  ASSERT_EQ(batch->traces.size(), 3u);
  EXPECT_EQ(batch->traces[0].read_set[0].value, 77u);
  EXPECT_EQ(batch->traces[2].op, OpType::kCommit);

  auto back = DecodeBatchAck(EncodeBatchAck(BatchAckMsg{12345}));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->traces_received, 12345u);

  auto close = DecodeCloseStream(EncodeCloseStream(CloseStreamMsg{3}));
  ASSERT_TRUE(close.ok());
  EXPECT_EQ(close->stream, 3u);

  BugDescriptor bug;
  bug.type = BugType::kFuwViolation;
  bug.key = 17;
  bug.txns = {4, 9};
  bug.detail = "lost update";
  auto violation = DecodeViolation(EncodeViolation(bug));
  ASSERT_TRUE(violation.ok());
  EXPECT_EQ(violation->bug.type, BugType::kFuwViolation);
  EXPECT_EQ(violation->bug.key, 17u);
  EXPECT_EQ(violation->bug.txns, (std::vector<TxnId>{4, 9}));
  EXPECT_EQ(violation->bug.detail, "lost update");

  auto bye = DecodeBye(EncodeBye(ByeMsg{999, 3}));
  ASSERT_TRUE(bye.ok());
  EXPECT_EQ(bye->traces_verified, 999u);
  EXPECT_EQ(bye->violations_sent, 3u);

  auto error = DecodeError(EncodeError("boom"));
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(*error, "boom");
}

TEST(WireTest, ViolationRoundTripsStructuredWitnessAtV2) {
  BugDescriptor bug;
  bug.type = BugType::kScViolation;
  bug.key = 5;
  bug.ts = 1000;
  bug.txns = {4, 9};
  bug.detail = "dependency cycle";
  bug.ops.push_back(BugOp{4, "txn-span", 5, 81, TimeInterval(1000, 1200),
                          true, true});
  bug.ops.push_back(BugOp{9, "txn-span", 5, 0, TimeInterval(1100, 1300),
                          false, false});
  bug.edges.push_back(BugEdge{4, 9, DepType::kWr});
  bug.edges.push_back(BugEdge{9, 4, DepType::kRw});

  auto v2 = DecodeViolation(EncodeViolation(bug, 2));
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->bug, bug);

  // A v1 payload carries no witness but stays decodable (old client talking
  // to a new server, or vice versa).
  auto v1 = DecodeViolation(EncodeViolation(bug, 1));
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(v1->bug.type, bug.type);
  EXPECT_EQ(v1->bug.key, bug.key);
  EXPECT_EQ(v1->bug.txns, bug.txns);
  EXPECT_EQ(v1->bug.detail, bug.detail);
  EXPECT_TRUE(v1->bug.ops.empty());
  EXPECT_TRUE(v1->bug.edges.empty());
}

TEST(WireTest, HelloVersionNegotiatesDown) {
  // An old (v1) client hello still decodes; the ack mirrors the lower
  // version back.
  HelloMsg v1_hello;
  v1_hello.version = 1;
  v1_hello.n_streams = 4;
  auto hello = DecodeHello(EncodeHello(v1_hello));
  ASSERT_TRUE(hello.ok());
  EXPECT_EQ(hello->version, 1u);
  HelloAckMsg v1_ack;
  v1_ack.version = 1;
  v1_ack.base_client = 8;
  auto ack = DecodeHelloAck(EncodeHelloAck(v1_ack));
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->version, 1u);
  EXPECT_EQ(ack->base_client, 8u);
}

TEST(WireTest, HelloStreamIlTailRoundTripsAtV4) {
  HelloMsg hello;
  hello.version = kWireVersion;
  hello.n_streams = 3;
  hello.stream_ils = {IsolationLevel::kReadCommitted,
                      IsolationLevel::kSnapshotIsolation};
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->version, kWireVersion);
  EXPECT_EQ(decoded->n_streams, 3u);
  ASSERT_EQ(decoded->stream_ils.size(), 2u);
  EXPECT_EQ(decoded->stream_ils[0], IsolationLevel::kReadCommitted);
  EXPECT_EQ(decoded->stream_ils[1], IsolationLevel::kSnapshotIsolation);

  // No tail declared: the payload is the legacy 8-byte shape and decodes
  // with an empty list.
  HelloMsg legacy;
  legacy.n_streams = 7;
  const std::string legacy_payload = EncodeHello(legacy);
  EXPECT_EQ(legacy_payload.size(), 8u);
  auto plain = DecodeHello(legacy_payload);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->stream_ils.empty());

  // More declared levels than streams is malformed.
  HelloMsg overlong;
  overlong.n_streams = 1;
  overlong.stream_ils = {IsolationLevel::kSerializable,
                         IsolationLevel::kSerializable};
  EXPECT_FALSE(DecodeHello(EncodeHello(overlong)).ok());
}

TEST(WireTest, HelloResumeTailRoundTripsAtV5) {
  HelloMsg hello;
  hello.version = kWireVersion;
  hello.n_streams = 2;
  hello.resumable = true;
  hello.has_resume = true;
  hello.resume_base = 17;
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->resumable);
  EXPECT_TRUE(decoded->has_resume);
  EXPECT_EQ(decoded->resume_base, 17u);

  // Either flag alone still emits (and round-trips) the tail.
  HelloMsg park_only;
  park_only.resumable = true;
  auto parked = DecodeHello(EncodeHello(park_only));
  ASSERT_TRUE(parked.ok());
  EXPECT_TRUE(parked->resumable);
  EXPECT_FALSE(parked->has_resume);

  // Neither flag: the legacy shape, nothing appended.
  HelloMsg plain;
  plain.n_streams = 4;
  auto legacy = DecodeHello(EncodeHello(plain));
  ASSERT_TRUE(legacy.ok());
  EXPECT_FALSE(legacy->resumable);
  EXPECT_FALSE(legacy->has_resume);
  EXPECT_EQ(legacy->resume_base, 0u);
}

TEST(WireTest, HelloAckResumeFloorsRoundTripAtV5) {
  HelloAckMsg ack;
  ack.version = kWireVersion;
  ack.base_client = 17;
  ack.resume_floors = {0, 123456789ull, uint64_t{1} << 62};
  auto decoded = DecodeHelloAck(EncodeHelloAck(ack));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->base_client, 17u);
  EXPECT_EQ(decoded->resume_floors, ack.resume_floors);

  HelloAckMsg fresh;
  fresh.base_client = 3;
  auto plain = DecodeHelloAck(EncodeHelloAck(fresh));
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->resume_floors.empty());
}

// Campaign regression: a range scan's scanned interval and its absent keys
// must cross the wire bit-exactly — re-encoding the decoded batch must
// reproduce the original payload byte for byte.
TEST(WireTest, RangeScanBatchReencodesByteIdentical) {
  Trace scan = MakeReadTrace(31, 4, TimeInterval(1000, 1400),
                             {ReadAccess{64, 7}, ReadAccess{70, 9}});
  scan.range_first = 64;
  scan.range_count = 16;
  scan.absent_reads = {65, 66, 79};
  scan.il = IsolationLevel::kReadCommitted;
  Trace locking = MakeReadTrace(31, 4, TimeInterval(1500, 1501),
                                {ReadAccess{64, 7}});
  locking.for_update = true;
  const std::vector<Trace> traces = {scan, locking};

  const std::string payload = EncodeBatch(2, traces);
  auto batch = DecodeBatch(payload);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->traces.size(), 2u);
  EXPECT_EQ(batch->traces[0].range_first, 64u);
  EXPECT_EQ(batch->traces[0].range_count, 16u);
  EXPECT_EQ(batch->traces[0].absent_reads, (std::vector<Key>{65, 66, 79}));
  EXPECT_EQ(batch->traces[0].il, IsolationLevel::kReadCommitted);
  EXPECT_TRUE(batch->traces[1].for_update);
  EXPECT_EQ(EncodeBatch(batch->stream, batch->traces, batch->ingest_ns),
            payload);
}

TEST(WireTest, BatchRoundTripsIsolationTags) {
  std::vector<Trace> traces;
  traces.push_back(MakeReadTrace(9, 2, TimeInterval(100, 105),
                                 {ReadAccess{3, 77}}));
  traces[0].il = IsolationLevel::kReadCommitted;
  traces.push_back(MakeWriteTrace(9, 2, TimeInterval(110, 115),
                                  {WriteAccess{3, 78}}));
  traces[1].il = IsolationLevel::kSnapshotIsolation;
  traces.push_back(MakeCommitTrace(9, 2, TimeInterval(120, 125)));
  // traces[2] untagged: must stay SERIALIZABLE through the wire.
  auto batch = DecodeBatch(EncodeBatch(5, traces));
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch->traces.size(), 3u);
  EXPECT_EQ(batch->traces[0].il, IsolationLevel::kReadCommitted);
  EXPECT_EQ(batch->traces[1].il, IsolationLevel::kSnapshotIsolation);
  EXPECT_EQ(batch->traces[2].il, IsolationLevel::kSerializable);
}

TEST(WireTest, DecoderPoisonsOnOversizedLength) {
  FrameDecoder decoder(1024);
  std::string bad;
  for (int i = 0; i < 4; ++i) bad.push_back(static_cast<char>(0xff));
  bad.push_back(static_cast<char>(FrameType::kBatch));
  decoder.Feed(bad.data(), bad.size());
  Frame out;
  EXPECT_EQ(decoder.Poll(out).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoder.poisoned());
  // Poisoning is permanent — even a valid frame afterwards stays rejected.
  std::string good = EncodeFrame(FrameType::kHello, EncodeHello(HelloMsg{}));
  decoder.Feed(good.data(), good.size());
  EXPECT_EQ(decoder.Poll(out).code(), StatusCode::kInvalidArgument);
}

TEST(WireTest, DecoderPoisonsOnUnknownType) {
  FrameDecoder decoder;
  std::string bad;
  for (int i = 0; i < 4; ++i) bad.push_back(0);
  bad.push_back(static_cast<char>(0x9e));
  decoder.Feed(bad.data(), bad.size());
  Frame out;
  EXPECT_EQ(decoder.Poll(out).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoder.poisoned());
}

TEST(WireTest, BatchRejectsCorruptTraceCount) {
  // A count far beyond what the payload can hold must fail cleanly (and
  // before any allocation sized from it).
  std::string payload;
  for (int i = 0; i < 4; ++i) payload.push_back(0);  // stream 0
  for (int i = 0; i < 4; ++i) payload.push_back(static_cast<char>(0xff));
  auto batch = DecodeBatch(payload);
  EXPECT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetLoopbackTest, SingleSessionVerifiesClean) {
  obs::MetricsRegistry registry;
  VerifierServer::Options so;
  so.expected_sessions = 1;
  so.metrics = &registry;
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());
  // The server drains (and sends BYE) inside WaitReport, so it must run
  // concurrently with the session — same shape as leopard_serve's main.
  std::thread drain([&server] { server.WaitReport(); });

  History h = BuildSerialHistory(7, 120);
  const size_t total = h.traces.size();
  auto violations = RunSession(server.port(), std::move(h));
  EXPECT_TRUE(violations.empty());

  drain.join();
  const VerifyReport& report = server.WaitReport();  // cached after drain
  EXPECT_EQ(report.stats.TotalViolations(), 0u);
  EXPECT_EQ(server.traces_received(), total);
  EXPECT_EQ(registry.counter("net.traces_in")->Value(), total);
  EXPECT_GE(registry.counter("net.frames_in")->Value(), 3u);
  EXPECT_EQ(registry.counter("net.decode_errors")->Value(), 0u);
}

TEST(NetLoopbackTest, ConcurrentSessionsFaultAndDisconnect) {
  // Six expected sessions against a 4-shard server: four clean, one with a
  // planted stale read (its violation must come back over its own
  // connection), and one that handshakes, sends half a frame header, and
  // vanishes.
  constexpr uint32_t kClean = 4;
  obs::MetricsRegistry registry;
  VerifierServer::Options so;
  so.n_shards = 4;
  so.expected_sessions = kClean + 2;
  so.metrics = &registry;
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();
  std::thread drain([&server] { server.WaitReport(); });

  std::vector<std::thread> threads;
  std::atomic<size_t> clean_violations{0};
  for (uint32_t s = 0; s < kClean; ++s) {
    threads.emplace_back([&, s] {
      History h = BuildSerialHistory(100 + s, 150);
      RebaseHistory(h, s);
      clean_violations += RunSession(port, std::move(h)).size();
    });
  }

  std::atomic<size_t> faulty_violations{0};
  std::atomic<bool> faulty_got_cr{false};
  threads.emplace_back([&] {
    History h = BuildSerialHistory(4242, 150);
    ASSERT_TRUE(PlantStaleRead(h, 4242));
    RebaseHistory(h, kClean);
    auto violations = RunSession(port, std::move(h));
    faulty_violations = violations.size();
    for (const auto& bug : violations) {
      if (bug.type == BugType::kCrViolation) faulty_got_cr = true;
    }
  });

  threads.emplace_back([&] {
    auto sock = TcpConnect("127.0.0.1", port);
    ASSERT_TRUE(sock.ok());
    std::string hello = EncodeFrame(FrameType::kHello, EncodeHello(HelloMsg{}));
    ASSERT_TRUE(sock->SendAll(hello.data(), hello.size()).ok());
    FrameDecoder decoder;
    Frame ack;
    ASSERT_TRUE(ReadFrameOfType(*sock, decoder, FrameType::kHelloAck, ack));
    // Half a BATCH frame header, then gone.
    std::string partial = EncodeFrame(FrameType::kBatch, "xxxx");
    sock->SendAll(partial.data(), 3);
    sock->Close();
  });

  for (auto& t : threads) t.join();
  drain.join();

  const VerifyReport& report = server.WaitReport();
  EXPECT_EQ(clean_violations.load(), 0u);
  EXPECT_GE(faulty_violations.load(), 1u);
  EXPECT_TRUE(faulty_got_cr.load());
  EXPECT_GE(report.stats.cr_violations, 1u);
  EXPECT_EQ(server.sessions_completed(), kClean + 2);
  EXPECT_GE(registry.counter("net.disconnects")->Value(), 1u);
  EXPECT_GE(registry.counter("net.violations_sent")->Value(), 1u);
  EXPECT_GE(registry.histogram("net.violation_report_ns")->Count(), 1u);
}

TEST(NetLoopbackTest, BackpressureStallsButStaysLive) {
  // An absurdly small in-flight budget forces the stall path on every
  // batch; the override escape must keep the session moving and the run
  // must still verify everything correctly.
  obs::MetricsRegistry registry;
  VerifierServer::Options so;
  so.expected_sessions = 1;
  so.max_inflight_bytes = 1;
  so.stall_override_ms = 5;
  so.metrics = &registry;
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());
  std::thread drain([&server] { server.WaitReport(); });

  History h = BuildSerialHistory(11, 60);
  const size_t total = h.traces.size();
  auto violations = RunSession(server.port(), std::move(h), 32);
  EXPECT_TRUE(violations.empty());

  drain.join();
  const VerifyReport& report = server.WaitReport();
  EXPECT_EQ(report.stats.TotalViolations(), 0u);
  EXPECT_EQ(server.traces_received(), total);
  EXPECT_GE(registry.counter("net.backpressure_stalls")->Value(), 1u);
  EXPECT_GE(registry.counter("net.backpressure_overrides")->Value(), 1u);
}

TEST(NetLoopbackTest, MalformedFrameGetsErrorAndSessionDies) {
  obs::MetricsRegistry registry;
  VerifierServer::Options so;
  so.expected_sessions = 1;
  so.metrics = &registry;
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());

  auto sock = TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  std::string hello = EncodeFrame(FrameType::kHello, EncodeHello(HelloMsg{}));
  ASSERT_TRUE(sock->SendAll(hello.data(), hello.size()).ok());
  FrameDecoder decoder;
  Frame frame;
  ASSERT_TRUE(ReadFrameOfType(*sock, decoder, FrameType::kHelloAck, frame));

  // A structurally corrupt stream: unknown frame type byte.
  std::string garbage;
  for (int i = 0; i < 4; ++i) garbage.push_back(0);
  garbage.push_back(static_cast<char>(0x7f));
  ASSERT_TRUE(sock->SendAll(garbage.data(), garbage.size()).ok());

  ASSERT_TRUE(ReadFrameOfType(*sock, decoder, FrameType::kError, frame));
  auto message = DecodeError(frame.payload);
  ASSERT_TRUE(message.ok());
  EXPECT_FALSE(message->empty());

  // The failed session still counts as completed, so the drain finishes.
  server.WaitReport();
  EXPECT_GE(registry.counter("net.decode_errors")->Value(), 1u);
}

TEST(NetLoopbackTest, BatchBeforeHelloIsRejected) {
  VerifierServer::Options so;
  so.expected_sessions = 1;
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());

  auto sock = TcpConnect("127.0.0.1", server.port());
  ASSERT_TRUE(sock.ok());
  std::string batch = EncodeFrame(FrameType::kBatch, EncodeBatch(0, {}));
  ASSERT_TRUE(sock->SendAll(batch.data(), batch.size()).ok());
  FrameDecoder decoder;
  Frame frame;
  EXPECT_TRUE(ReadFrameOfType(*sock, decoder, FrameType::kError, frame));
  // The session never completed its handshake, so it does not count
  // towards expected_sessions — end the run explicitly.
  server.Shutdown();
  server.WaitReport();
}

TEST(NetLoopbackTest, MultiStreamSessionMergesCorrectly) {
  // One connection, four logical streams fed in global ts_bef order —
  // exactly how leopard_cli --connect replays per-client trace files.
  VerifierServer::Options so;
  so.expected_sessions = 1;
  so.n_shards = 2;
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());
  std::thread drain([&server] { server.WaitReport(); });

  History h = BuildSerialHistory(21, 150);
  const size_t total = h.traces.size();
  VerifierClient::Options co;
  co.n_streams = 4;
  auto client = VerifierClient::Connect(
      "127.0.0.1:" + std::to_string(server.port()), co);
  ASSERT_TRUE(client.ok()) << client.status();
  // The history's traces carry client = txn % 6; route them to stream
  // client % 4 in history order, which is globally ts_bef-sorted, so every
  // stream individually stays non-decreasing.
  for (Trace& t : h.traces) {
    uint32_t stream = t.client % 4;
    ASSERT_TRUE((*client)->Push(stream, std::move(t)).ok());
  }
  auto bye = (*client)->Finish();
  ASSERT_TRUE(bye.ok()) << bye.status();
  EXPECT_EQ(bye->traces_verified, total);
  EXPECT_TRUE((*client)->violations().empty());

  drain.join();
  const VerifyReport& report = server.WaitReport();
  EXPECT_EQ(report.stats.TotalViolations(), 0u);
}

/// A dirty write between two transactions of one session: exclusive lock
/// spans overlap on key 1 — an ME violation when the stream promises >= RR,
/// legitimately interleaving statement locks when it declares RC.
std::vector<Trace> DirtyWriteTraces() {
  return {
      MakeWriteTrace(kLoadTxnId, 0, TimeInterval(1, 2), {{1, 100}}),
      MakeCommitTrace(kLoadTxnId, 0, TimeInterval(3, 4)),
      MakeWriteTrace(1, 0, TimeInterval(10, 11), {{1, 101}}),
      MakeWriteTrace(2, 0, TimeInterval(14, 15), {{1, 102}}),
      MakeCommitTrace(1, 0, TimeInterval(40, 41)),
      MakeCommitTrace(2, 0, TimeInterval(44, 45)),
  };
}

std::vector<BugDescriptor> StreamDirtyWrites(
    uint16_t port, std::vector<IsolationLevel> stream_ils) {
  VerifierClient::Options co;
  co.stream_ils = std::move(stream_ils);
  auto client =
      VerifierClient::Connect("127.0.0.1:" + std::to_string(port), co);
  EXPECT_TRUE(client.ok()) << client.status();
  if (!client.ok()) return {};
  for (Trace& t : DirtyWriteTraces()) {
    Status s = (*client)->Push(0, std::move(t));
    EXPECT_TRUE(s.ok()) << s;
  }
  auto bye = (*client)->Finish();
  EXPECT_TRUE(bye.ok()) << bye.status();
  return (*client)->violations();
}

TEST(NetLoopbackTest, StreamIsolationSuppressesWeakSessionViolations) {
  // Control first: the same history on an undeclared (SERIALIZABLE) stream
  // must come back with the ME violation over the wire.
  {
    VerifierServer::Options so;
    so.expected_sessions = 1;
    VerifierServer server(PgSer(), so);
    ASSERT_TRUE(server.Start().ok());
    std::thread drain([&server] { server.WaitReport(); });
    auto violations = StreamDirtyWrites(server.port(), {});
    drain.join();
    ASSERT_FALSE(violations.empty());
    bool got_me = false;
    for (const auto& bug : violations) {
      if (bug.type == BugType::kMeViolation) got_me = true;
    }
    EXPECT_TRUE(got_me);
    EXPECT_GE(server.WaitReport().stats.me_violations, 1u);
  }
  // Declared RC: the server restamps the stream's traces to RC before
  // verification, the pair never binds, and the would-be report is counted
  // as suppressed instead.
  {
    VerifierServer::Options so;
    so.expected_sessions = 1;
    VerifierServer server(PgSer(), so);
    ASSERT_TRUE(server.Start().ok());
    std::thread drain([&server] { server.WaitReport(); });
    auto violations =
        StreamDirtyWrites(server.port(), {IsolationLevel::kReadCommitted});
    drain.join();
    EXPECT_TRUE(violations.empty());
    const VerifyReport& report = server.WaitReport();
    EXPECT_EQ(report.stats.me_violations, 0u);
    EXPECT_GE(report.stats.me_suppressed_weak, 1u);
    EXPECT_GT(report.stats.weak_il_traces, 0u);
  }
}

TEST(NetLoopbackTest, StreamIlOptionValidation) {
  VerifierServer::Options so;
  so.expected_sessions = 1;
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());
  const std::string addr = "127.0.0.1:" + std::to_string(server.port());

  // More declared levels than streams: rejected before the handshake.
  VerifierClient::Options overlong;
  overlong.n_streams = 1;
  overlong.stream_ils = {IsolationLevel::kReadCommitted,
                         IsolationLevel::kSerializable};
  EXPECT_FALSE(VerifierClient::Connect(addr, overlong).ok());

  // Per-stream levels need the v4 handshake: a v3-pinned session cannot
  // declare them.
  VerifierClient::Options pinned;
  pinned.wire_version = 3;
  pinned.stream_ils = {IsolationLevel::kReadCommitted};
  EXPECT_FALSE(VerifierClient::Connect(addr, pinned).ok());

  server.Shutdown();
  server.WaitReport();
}

TEST(NetLoopbackTest, V3PinnedSessionShipsRecordsUntagged) {
  // A session that negotiated v3 must strip record-level IL tags (a pre-v4
  // decoder rejects the flag bit), so the server judges the stream at
  // SERIALIZABLE and the dirty write still fires — tags only thin verdicts
  // when the whole path speaks v4.
  VerifierServer::Options so;
  so.expected_sessions = 1;
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());
  std::thread drain([&server] { server.WaitReport(); });

  VerifierClient::Options co;
  co.wire_version = 3;
  auto client = VerifierClient::Connect(
      "127.0.0.1:" + std::to_string(server.port()), co);
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_EQ((*client)->wire_version(), 3u);
  for (Trace& t : DirtyWriteTraces()) {
    t.il = IsolationLevel::kReadCommitted;  // stripped in flight
    ASSERT_TRUE((*client)->Push(0, std::move(t)).ok());
  }
  ASSERT_TRUE((*client)->Finish().ok());
  auto violations = (*client)->violations();
  drain.join();

  ASSERT_FALSE(violations.empty());
  bool got_me = false;
  for (const auto& bug : violations) {
    if (bug.type == BugType::kMeViolation) got_me = true;
  }
  EXPECT_TRUE(got_me);
  const VerifyReport& report = server.WaitReport();
  EXPECT_GE(report.stats.me_violations, 1u);
  EXPECT_EQ(report.stats.weak_il_traces, 0u);
}

// v5 session resume, end to end: a resumable session streams half its
// history, drains the ack watermark, drops the connection abruptly, then
// re-attaches to the parked session — same base client id, floors honored —
// and streams the rest. The server must stitch both connections into one
// session whose verification is clean and complete.
TEST(NetLoopbackTest, ResumableSessionSurvivesDisconnect) {
  VerifierServer::Options so;
  so.expected_sessions = 1;
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());
  std::thread drain([&server] { server.WaitReport(); });

  History h = BuildSerialHistory(31, 80);
  const size_t total = h.traces.size();
  const size_t half = total / 2;
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());

  VerifierClient::Options co;
  co.batch_traces = 8;
  co.resumable = true;
  auto first = VerifierClient::Connect(endpoint, co);
  ASSERT_TRUE(first.ok()) << first.status();
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE((*first)->Push(0, h.traces[i]).ok());
  }
  ASSERT_TRUE((*first)->Flush(0).ok());
  // Drain the ack watermark so the abrupt close below cannot lose a
  // sent-but-unacked batch.
  ASSERT_TRUE((*first)->WaitForAcked(half).ok());
  const uint32_t base = (*first)->base_client();
  first->reset();  // abrupt close: no CLOSE_STREAM, no BYE

  VerifierClient::Options ro = co;
  ro.resume = true;
  ro.resume_base = base;
  std::unique_ptr<VerifierClient> second;
  for (int attempt = 0; attempt < 500; ++attempt) {
    // The server parks the session only once it notices the EOF; until
    // then a resume request falls back to a fresh allocation, which we
    // discard (the fallback parks harmlessly on close).
    auto again = VerifierClient::Connect(endpoint, ro);
    ASSERT_TRUE(again.ok()) << again.status();
    if ((*again)->resumed()) {
      second = std::move(*again);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(second, nullptr) << "server never parked the dropped session";
  EXPECT_EQ(second->base_client(), base);
  ASSERT_EQ(second->resume_floors().size(), 1u);
  // The floor never overtakes the next trace we owe: the history is pushed
  // in ts_bef order and everything past `half` is still unsent.
  EXPECT_LE(second->resume_floors()[0], h.traces[half].ts_bef());
  for (size_t i = half; i < total; ++i) {
    ASSERT_TRUE(second->Push(0, h.traces[i]).ok());
  }
  auto bye = second->Finish();
  ASSERT_TRUE(bye.ok()) << bye.status();
  EXPECT_TRUE(second->violations().empty());

  drain.join();
  const VerifyReport& report = server.WaitReport();
  EXPECT_EQ(report.stats.TotalViolations(), 0u);
  // Both connection legs landed in the same verification run.
  EXPECT_EQ(server.traces_received(), total);
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Wake latency of a served job: the drain starts the moment the last
// stream closes, not on a timer tick. Five back-to-back one-session
// servers; the median time from the last CLOSE_STREAM to the BYE stays
// under 50 ms.
TEST(NetLoopbackTest, ByeFollowsLastCloseWithoutPollTick) {
  std::vector<double> close_to_bye_ms;
  for (uint64_t job = 0; job < 5; ++job) {
    VerifierServer::Options so;
    so.expected_sessions = 1;
    VerifierServer server(PgSer(), so);
    ASSERT_TRUE(server.Start().ok());
    std::thread drain([&server] { server.WaitReport(); });

    History h = BuildSerialHistory(50 + job, 40);
    auto client = VerifierClient::Connect(
        "127.0.0.1:" + std::to_string(server.port()), VerifierClient::Options{});
    EXPECT_TRUE(client.ok()) << client.status();
    if (!client.ok()) {
      server.Shutdown();
      drain.join();
      return;
    }
    for (Trace& t : h.traces) EXPECT_TRUE((*client)->Push(0, t).ok());
    const auto closed_at = std::chrono::steady_clock::now();
    EXPECT_TRUE((*client)->CloseStream(0).ok());
    auto bye = (*client)->Finish();
    close_to_bye_ms.push_back(MsSince(closed_at));
    EXPECT_TRUE(bye.ok()) << bye.status();
    drain.join();
    EXPECT_EQ(server.WaitReport().stats.TotalViolations(), 0u);
  }
  std::vector<double> sorted = close_to_bye_ms;
  std::sort(sorted.begin(), sorted.end());
  std::string all;
  for (double ms : close_to_bye_ms) all += std::to_string(ms) + " ";
  EXPECT_LT(sorted[sorted.size() / 2], 50.0) << "close->BYE ms: " << all;
}

// Shutdown of a service with a handshaken session that never closes its
// stream: the acceptor is woken out of accept(2) and the idle reader out of
// recv(2), so the drain does not wait for either to time out.
TEST(NetLoopbackTest, ShutdownWithIdleOpenSessionReturnsPromptly) {
  VerifierServer::Options so;  // expected_sessions = 0: run until Shutdown
  VerifierServer server(PgSer(), so);
  ASSERT_TRUE(server.Start().ok());
  auto client = VerifierClient::Connect(
      "127.0.0.1:" + std::to_string(server.port()), VerifierClient::Options{});
  ASSERT_TRUE(client.ok()) << client.status();

  const auto start = std::chrono::steady_clock::now();
  server.Shutdown();
  const VerifyReport& report = server.WaitReport();
  const double drain_ms = MsSince(start);
  EXPECT_LT(drain_ms, 50.0);
  EXPECT_EQ(report.stats.TotalViolations(), 0u);
  EXPECT_EQ(server.sessions_completed(), 1u);  // force-closed, not lost
}

}  // namespace
}  // namespace net
}  // namespace leopard
