#ifndef LEOPARD_NET_WIRE_H_
#define LEOPARD_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"
#include "verifier/bug.h"

namespace leopard {
namespace net {

/// Length-prefixed binary wire protocol for shipping client-side traces to
/// a remote VerifierServer and streaming violation reports back
/// (DESIGN.md §8).
///
/// Every frame is
///     u32 payload_len | u8 type | payload[payload_len]
/// little-endian, like the trace file format whose record layout the kBatch
/// payload reuses verbatim (trace_io::AppendTraceRecord).
///
/// Session lifecycle: the client opens with kHello declaring the protocol
/// version and how many logical client streams it multiplexes over this
/// connection; the server answers kHelloAck with the base stream id it
/// assigned. kBatch frames then carry traces for one stream each and are
/// acknowledged with kBatchAck; kCloseStream ends one stream. Violations
/// stream back as kViolation frames at any point after the offending
/// traces; kBye terminates the session after the server drained. kError
/// (either direction) reports a protocol failure, after which the sender
/// closes the connection.
///
/// There is one protocol version and every frame type has one fixed
/// payload layout (DESIGN.md §8 tabulates them): no section is optional or
/// detected from the payload length, and a payload with missing or
/// trailing bytes is malformed. DecodeHello and DecodeHelloAck reject any
/// version other than kWireVersion, so a peer built for another version is
/// refused at the handshake.
constexpr uint32_t kWireVersion = 5;
constexpr size_t kFrameHeaderBytes = 5;  // u32 payload length + u8 type
/// Upper bound on one frame's payload; a header declaring more poisons the
/// decoder (malformed or hostile stream).
constexpr size_t kMaxFramePayload = 16u << 20;

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kBatch = 3,
  kBatchAck = 4,
  kCloseStream = 5,
  kViolation = 6,
  kBye = 7,
  kError = 8,
};

const char* FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Serializes a complete frame (header + payload).
std::string EncodeFrame(FrameType type, std::string_view payload);

/// Incremental frame decoder: feed arbitrary byte chunks as they arrive
/// from a socket, poll complete frames out. Tolerates frames split across
/// any number of reads (partial-frame handling); a structurally invalid
/// header (oversized length, unknown type) permanently poisons the decoder
/// — framing can not be resynchronized on a corrupt byte stream.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const char* data, size_t n);

  /// kOk: `out` holds the next frame. kBusy: need more bytes.
  /// kInvalidArgument: the stream is corrupt (decoder poisoned).
  Status Poll(Frame& out);

  size_t buffered_bytes() const { return buf_.size() - pos_; }
  bool poisoned() const { return poisoned_; }

 private:
  size_t max_payload_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
  bool poisoned_ = false;
};

// --- Typed payloads -------------------------------------------------------

struct HelloMsg {
  uint32_t version = kWireVersion;
  uint32_t n_streams = 1;
  /// Declared isolation level per stream, indexed by stream id (entries
  /// beyond n_streams are rejected; streams past the end of the list
  /// default to SERIALIZABLE).
  std::vector<IsolationLevel> stream_ils;
  /// Session resume. `resumable` asks the server to park this session's
  /// stream state (per-client floors) if the connection drops before every
  /// stream closed cleanly. `has_resume` asks to re-attach to the parked
  /// session whose base client id is `resume_base`; when no such parked
  /// session exists the server falls back to a fresh allocation (detected
  /// by the ack's base_client differing from resume_base).
  bool resumable = false;
  bool has_resume = false;
  uint32_t resume_base = 0;
};

struct HelloAckMsg {
  uint32_t version = kWireVersion;
  /// First verifier client id assigned to this session; the session's
  /// stream `s` maps to verifier client `base_client + s`.
  uint32_t base_client = 0;
  /// On a successful resume, one entry per stream — the oldest ts_bef the
  /// resumed stream may still push (its re-admission floor). Empty on fresh
  /// sessions.
  std::vector<Timestamp> resume_floors;
};

struct BatchMsg {
  uint32_t stream = 0;
  std::vector<Trace> traces;
  /// Steady-clock ns on the client at the moment the batch was pushed onto
  /// the wire; 0 = unstamped. Comparable with the server's obs::NowNs()
  /// only when both ends share a machine (loopback) — consumers must treat
  /// negative deltas as clock skew.
  uint64_t ingest_ns = 0;
};

struct BatchAckMsg {
  /// Total traces the server has accepted from this session so far.
  uint64_t traces_received = 0;
};

struct CloseStreamMsg {
  uint32_t stream = 0;
};

struct ViolationMsg {
  BugDescriptor bug;
};

struct ByeMsg {
  uint64_t traces_verified = 0;
  uint32_t violations_sent = 0;
};

std::string EncodeHello(const HelloMsg& m);
StatusOr<HelloMsg> DecodeHello(const std::string& payload);

std::string EncodeHelloAck(const HelloAckMsg& m);
StatusOr<HelloAckMsg> DecodeHelloAck(const std::string& payload);

/// The payload always ends in the 8-byte `ingest_ns` stamp.
std::string EncodeBatch(uint32_t stream, const std::vector<Trace>& traces,
                        uint64_t ingest_ns = 0);
StatusOr<BatchMsg> DecodeBatch(const std::string& payload);

std::string EncodeBatchAck(const BatchAckMsg& m);
StatusOr<BatchAckMsg> DecodeBatchAck(const std::string& payload);

std::string EncodeCloseStream(const CloseStreamMsg& m);
StatusOr<CloseStreamMsg> DecodeCloseStream(const std::string& payload);

/// The payload always carries the structured witness (anchor ts, ops,
/// edges), empty lists included.
std::string EncodeViolation(const BugDescriptor& bug);
StatusOr<ViolationMsg> DecodeViolation(const std::string& payload);

std::string EncodeBye(const ByeMsg& m);
StatusOr<ByeMsg> DecodeBye(const std::string& payload);

std::string EncodeError(std::string_view message);
StatusOr<std::string> DecodeError(const std::string& payload);

}  // namespace net
}  // namespace leopard

#endif  // LEOPARD_NET_WIRE_H_
