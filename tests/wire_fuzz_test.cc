// Deterministic mutation fuzzing of the wire decoders. Encoder output of
// every frame type (isolation levels, resume flags and floors, range-scan
// BATCH records, the VIOLATION witness) is mutated by byte flips,
// truncations, extensions and length-field corruption, then fed to
// FrameDecoder and to every Decode* function. Each input must decode or
// return a Status — never crash, which the ASan/UBSan build turns into a
// hard check — and every decoded message must re-encode to a frame that
// decodes back to the same bytes. The seed and the iteration budget are
// fixed, so a run is reproducible and takes seconds under the sanitizers.

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "net/wire.h"
#include "trace/trace.h"
#include "verifier/bug.h"

namespace leopard {
namespace net {
namespace {

constexpr FrameType kAllTypes[] = {
    FrameType::kHello,     FrameType::kHelloAck,    FrameType::kBatch,
    FrameType::kBatchAck,  FrameType::kCloseStream, FrameType::kViolation,
    FrameType::kBye,       FrameType::kError,
};

/// Decodes `payload` as a `type` message and re-encodes it; nullopt when
/// the decoder rejects the payload.
std::optional<std::string> Reencode(FrameType type,
                                    const std::string& payload) {
  switch (type) {
    case FrameType::kHello: {
      auto m = DecodeHello(payload);
      if (!m.ok()) return std::nullopt;
      return EncodeHello(*m);
    }
    case FrameType::kHelloAck: {
      auto m = DecodeHelloAck(payload);
      if (!m.ok()) return std::nullopt;
      return EncodeHelloAck(*m);
    }
    case FrameType::kBatch: {
      auto m = DecodeBatch(payload);
      if (!m.ok()) return std::nullopt;
      return EncodeBatch(m->stream, m->traces, m->ingest_ns);
    }
    case FrameType::kBatchAck: {
      auto m = DecodeBatchAck(payload);
      if (!m.ok()) return std::nullopt;
      return EncodeBatchAck(*m);
    }
    case FrameType::kCloseStream: {
      auto m = DecodeCloseStream(payload);
      if (!m.ok()) return std::nullopt;
      return EncodeCloseStream(*m);
    }
    case FrameType::kViolation: {
      auto m = DecodeViolation(payload);
      if (!m.ok()) return std::nullopt;
      return EncodeViolation(m->bug);
    }
    case FrameType::kBye: {
      auto m = DecodeBye(payload);
      if (!m.ok()) return std::nullopt;
      return EncodeBye(*m);
    }
    case FrameType::kError: {
      auto m = DecodeError(payload);
      if (!m.ok()) return std::nullopt;
      return EncodeError(*m);
    }
  }
  return std::nullopt;
}

std::vector<Frame> SeedFrames() {
  std::vector<Frame> seeds;
  auto add = [&seeds](FrameType type, std::string payload) {
    seeds.push_back(Frame{type, std::move(payload)});
  };

  HelloMsg hello;
  hello.n_streams = 4;
  hello.stream_ils = {IsolationLevel::kReadCommitted,
                      IsolationLevel::kSnapshotIsolation,
                      IsolationLevel::kSerializable};
  add(FrameType::kHello, EncodeHello(hello));
  hello.stream_ils.clear();
  hello.resumable = true;
  hello.has_resume = true;
  hello.resume_base = 12;
  add(FrameType::kHello, EncodeHello(hello));

  HelloAckMsg ack;
  ack.base_client = 12;
  add(FrameType::kHelloAck, EncodeHelloAck(ack));
  ack.resume_floors = {0, 1000, uint64_t{1} << 40};
  add(FrameType::kHelloAck, EncodeHelloAck(ack));

  Trace scan = MakeReadTrace(31, 4, TimeInterval(1000, 1400),
                             {ReadAccess{64, 7}, ReadAccess{70, 9}});
  scan.range_first = 64;
  scan.range_count = 16;
  scan.absent_reads = {65, 66, 79};
  scan.il = IsolationLevel::kReadCommitted;
  Trace locking = MakeReadTrace(31, 4, TimeInterval(1500, 1501),
                                {ReadAccess{64, 7}});
  locking.for_update = true;
  Trace write = MakeWriteTrace(31, 4, TimeInterval(1600, 1610),
                               {WriteAccess{64, 8}, WriteAccess{90, 1}});
  write.il = IsolationLevel::kSnapshotIsolation;
  add(FrameType::kBatch,
      EncodeBatch(2, {scan, locking, write,
                      MakeCommitTrace(31, 4, TimeInterval(1700, 1701))},
                  123456789));
  add(FrameType::kBatch,
      EncodeBatch(0, {MakeAbortTrace(32, 5, TimeInterval(10, 11))}));
  add(FrameType::kBatch, EncodeBatch(1, {}));

  add(FrameType::kBatchAck, EncodeBatchAck(BatchAckMsg{4096}));
  add(FrameType::kCloseStream, EncodeCloseStream(CloseStreamMsg{3}));

  BugDescriptor bug;
  bug.type = BugType::kScViolation;
  bug.key = 5;
  bug.ts = 1000;
  bug.txns = {4, 9};
  bug.detail = "dependency cycle";
  bug.ops.push_back(BugOp{4, "txn-span", 5, 81, TimeInterval(1000, 1200),
                          true, true});
  bug.ops.push_back(BugOp{9, "read", 5, 0, TimeInterval(1100, 1300), false,
                          false});
  bug.edges.push_back(BugEdge{4, 9, DepType::kWr});
  bug.edges.push_back(BugEdge{9, 4, DepType::kRw});
  add(FrameType::kViolation, EncodeViolation(bug));
  BugDescriptor bare;
  bare.type = BugType::kCrViolation;
  bare.detail = "x";
  add(FrameType::kViolation, EncodeViolation(bare));

  add(FrameType::kBye, EncodeBye(ByeMsg{999, 3}));
  add(FrameType::kError, EncodeError("server draining"));
  return seeds;
}

void PutU32At(std::string& bytes, size_t pos, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    bytes[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// One to four stacked mutations of an encoded frame.
std::string Mutate(std::string frame, Rng& rng) {
  const uint64_t n = 1 + rng.Uniform(4);
  for (uint64_t i = 0; i < n; ++i) {
    switch (rng.Uniform(5)) {
      case 0:  // bit flip
        if (!frame.empty()) {
          frame[rng.Uniform(frame.size())] ^=
              static_cast<char>(1u << rng.Uniform(8));
        }
        break;
      case 1:  // byte overwrite
        if (!frame.empty()) {
          frame[rng.Uniform(frame.size())] = static_cast<char>(rng.Next());
        }
        break;
      case 2:  // truncation
        frame.resize(rng.Uniform(frame.size() + 1));
        break;
      case 3: {  // extension
        const uint64_t extra = 1 + rng.Uniform(16);
        for (uint64_t k = 0; k < extra; ++k) {
          frame.push_back(static_cast<char>(rng.Next()));
        }
        break;
      }
      case 4: {  // a length or count field gets a boundary value
        if (frame.size() < 4) break;
        // The frame header's length one time in three, else any u32 slot.
        const size_t pos =
            rng.Uniform(3) == 0 ? 0 : rng.Uniform(frame.size() - 3);
        const uint32_t size = static_cast<uint32_t>(frame.size());
        const uint32_t choices[] = {0,          1,          2,
                                    size - 5,   size - 4,   size - 6,
                                    size,       0x7fffffff, 0xffffffff,
                                    static_cast<uint32_t>(rng.Uniform(64))};
        PutU32At(frame, pos, choices[rng.Uniform(std::size(choices))]);
        break;
      }
    }
  }
  return frame;
}

struct Tally {
  uint64_t inputs = 0;
  uint64_t frames_polled = 0;
  uint64_t decoded = 0;
  uint64_t failures = 0;
  std::string first_failure;
};

std::string Hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    out.push_back(kDigits[(static_cast<uint8_t>(c) >> 4) & 0xf]);
    out.push_back(kDigits[static_cast<uint8_t>(c) & 0xf]);
  }
  return out;
}

/// Decodes `payload` as `type`; a message that decodes must re-encode to a
/// valid frame whose payload is a fixed point of decode + encode.
void CheckPayload(FrameType type, const std::string& payload, Tally& tally) {
  const std::optional<std::string> once = Reencode(type, payload);
  if (!once) return;
  ++tally.decoded;
  std::string why;
  const std::string frame = EncodeFrame(type, *once);
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  Frame out;
  std::optional<std::string> twice;
  if (!decoder.Poll(out).ok() || out.type != type || out.payload != *once ||
      decoder.buffered_bytes() != 0) {
    why = "re-encoded frame does not decode";
  } else if (!(twice = Reencode(type, *once))) {
    why = "re-encoded payload is rejected";
  } else if (*twice != *once) {
    why = "re-encoding is not a fixed point";
  }
  if (why.empty()) return;
  if (tally.failures++ == 0) {
    tally.first_failure = std::string(FrameTypeName(type)) + ": " + why +
                          "; input " + Hex(payload);
  }
}

void FeedInput(const std::string& bytes, Rng& rng, Tally& tally) {
  ++tally.inputs;
  // Through the frame decoder, split into random chunks.
  FrameDecoder decoder;
  size_t fed = 0;
  Frame frame;
  while (true) {
    const Status polled = decoder.Poll(frame);
    if (polled.ok()) {
      ++tally.frames_polled;
      CheckPayload(frame.type, frame.payload, tally);
      continue;
    }
    if (polled.code() != StatusCode::kBusy || fed == bytes.size()) break;
    const size_t chunk = 1 + rng.Uniform(bytes.size() - fed);
    decoder.Feed(bytes.data() + fed, chunk);
    fed += chunk;
  }
  // And the bytes after the header straight into every payload decoder.
  if (bytes.size() >= kFrameHeaderBytes) {
    const std::string payload = bytes.substr(kFrameHeaderBytes);
    for (FrameType type : kAllTypes) CheckPayload(type, payload, tally);
  }
}

TEST(WireFuzzTest, SeedsRoundTrip) {
  Tally tally;
  Rng rng(1);
  for (const Frame& seed : SeedFrames()) {
    const std::optional<std::string> again = Reencode(seed.type, seed.payload);
    ASSERT_TRUE(again.has_value()) << FrameTypeName(seed.type);
    EXPECT_EQ(*again, seed.payload) << FrameTypeName(seed.type);
    FeedInput(EncodeFrame(seed.type, seed.payload), rng, tally);
  }
  EXPECT_EQ(tally.failures, 0u) << tally.first_failure;
}

TEST(WireFuzzTest, MutatedFramesDecodeOrFailCleanly) {
  constexpr uint64_t kIterationsPerSeed = 4000;
  const std::vector<Frame> seeds = SeedFrames();
  Rng rng(0x5eed);
  Tally tally;
  for (const Frame& seed : seeds) {
    const std::string frame = EncodeFrame(seed.type, seed.payload);
    for (uint64_t i = 0; i < kIterationsPerSeed; ++i) {
      FeedInput(Mutate(frame, rng), rng, tally);
    }
  }
  EXPECT_EQ(tally.failures, 0u) << tally.first_failure;
  EXPECT_EQ(tally.inputs, seeds.size() * kIterationsPerSeed);
  // The mutations reach past the framing: some inputs still decode.
  EXPECT_GT(tally.frames_polled, tally.inputs / 10);
  EXPECT_GT(tally.decoded, tally.inputs / 10);
}

}  // namespace
}  // namespace net
}  // namespace leopard
