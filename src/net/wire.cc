#include "net/wire.h"

#include <cstring>

#include "trace/trace_io.h"

namespace leopard {
namespace net {

namespace {

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

class Reader {
 public:
  explicit Reader(const std::string& bytes, size_t pos = 0)
      : bytes_(bytes), pos_(pos) {}

  bool GetU8(uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++]))
           << (8 * i);
    }
    return true;
  }
  bool GetU64(uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
           << (8 * i);
    }
    return true;
  }
  bool GetString(std::string& out, uint32_t len) {
    if (static_cast<uint64_t>(len) > bytes_.size() - pos_) return false;
    out.assign(bytes_, pos_, len);
    pos_ += len;
    return true;
  }
  size_t pos() const { return pos_; }
  bool Done() const { return pos_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::string& bytes_;
  size_t pos_;
};

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what +
                                 " payload");
}

Status CheckVersion(uint32_t version, const char* frame) {
  if (version == kWireVersion) return Status::Ok();
  return Status::InvalidArgument(std::string(frame) + " wire version " +
                                 std::to_string(version) + ", expected " +
                                 std::to_string(kWireVersion));
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "HELLO";
    case FrameType::kHelloAck:
      return "HELLO_ACK";
    case FrameType::kBatch:
      return "BATCH";
    case FrameType::kBatchAck:
      return "BATCH_ACK";
    case FrameType::kCloseStream:
      return "CLOSE_STREAM";
    case FrameType::kViolation:
      return "VIOLATION";
    case FrameType::kBye:
      return "BYE";
    case FrameType::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU8(out, static_cast<uint8_t>(type));
  out.append(payload);
  return out;
}

void FrameDecoder::Feed(const char* data, size_t n) {
  // Compact the consumed prefix before it dominates the buffer, so a
  // long-lived connection does not grow its buffer without bound.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

Status FrameDecoder::Poll(Frame& out) {
  if (poisoned_) return Status::InvalidArgument("frame stream corrupt");
  if (buf_.size() - pos_ < kFrameHeaderBytes) {
    return Status::Busy("need more bytes");
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[pos_ + i]))
           << (8 * i);
  }
  const uint8_t type = static_cast<uint8_t>(buf_[pos_ + 4]);
  if (len > max_payload_) {
    poisoned_ = true;
    return Status::InvalidArgument("frame payload length " +
                                   std::to_string(len) + " exceeds limit");
  }
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kError)) {
    poisoned_ = true;
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  if (buf_.size() - pos_ < kFrameHeaderBytes + len) {
    return Status::Busy("need more bytes");
  }
  out.type = static_cast<FrameType>(type);
  out.payload.assign(buf_, pos_ + kFrameHeaderBytes, len);
  pos_ += kFrameHeaderBytes + len;
  return Status::Ok();
}

std::string EncodeHello(const HelloMsg& m) {
  std::string out;
  PutU32(out, m.version);
  PutU32(out, m.n_streams);
  PutU32(out, static_cast<uint32_t>(m.stream_ils.size()));
  for (IsolationLevel il : m.stream_ils) PutU8(out, static_cast<uint8_t>(il));
  PutU8(out, static_cast<uint8_t>((m.resumable ? 1 : 0) |
                                  (m.has_resume ? 2 : 0)));
  PutU32(out, m.resume_base);
  return out;
}

StatusOr<HelloMsg> DecodeHello(const std::string& payload) {
  Reader r(payload);
  HelloMsg m;
  if (!r.GetU32(m.version)) return Malformed("HELLO");
  Status version = CheckVersion(m.version, "HELLO");
  if (!version.ok()) return version;
  uint32_t n_ils = 0;
  if (!r.GetU32(m.n_streams) || !r.GetU32(n_ils)) return Malformed("HELLO");
  if (n_ils > m.n_streams || n_ils > r.remaining()) {
    return Status::InvalidArgument("HELLO isolation levels exceed streams");
  }
  m.stream_ils.reserve(n_ils);
  for (uint32_t i = 0; i < n_ils; ++i) {
    uint8_t il = 0;
    if (!r.GetU8(il)) return Malformed("HELLO");
    if (il > static_cast<uint8_t>(IsolationLevel::kSerializable)) {
      return Status::InvalidArgument("HELLO invalid isolation level");
    }
    m.stream_ils.push_back(static_cast<IsolationLevel>(il));
  }
  uint8_t flags = 0;
  if (!r.GetU8(flags) || !r.GetU32(m.resume_base) || !r.Done()) {
    return Malformed("HELLO");
  }
  if ((flags & ~uint8_t{0x3}) != 0) {
    return Status::InvalidArgument("HELLO unknown resume flags");
  }
  m.resumable = (flags & 0x1) != 0;
  m.has_resume = (flags & 0x2) != 0;
  return m;
}

std::string EncodeHelloAck(const HelloAckMsg& m) {
  std::string out;
  PutU32(out, m.version);
  PutU32(out, m.base_client);
  PutU32(out, static_cast<uint32_t>(m.resume_floors.size()));
  for (Timestamp floor : m.resume_floors) PutU64(out, floor);
  return out;
}

StatusOr<HelloAckMsg> DecodeHelloAck(const std::string& payload) {
  Reader r(payload);
  HelloAckMsg m;
  if (!r.GetU32(m.version)) return Malformed("HELLO_ACK");
  Status version = CheckVersion(m.version, "HELLO_ACK");
  if (!version.ok()) return version;
  uint32_t n_floors = 0;
  if (!r.GetU32(m.base_client) || !r.GetU32(n_floors) ||
      static_cast<uint64_t>(n_floors) * 8 != r.remaining()) {
    return Malformed("HELLO_ACK");
  }
  m.resume_floors.resize(n_floors);
  for (Timestamp& floor : m.resume_floors) r.GetU64(floor);
  return m;
}

std::string EncodeBatch(uint32_t stream, const std::vector<Trace>& traces,
                        uint64_t ingest_ns) {
  std::string out;
  PutU32(out, stream);
  PutU32(out, static_cast<uint32_t>(traces.size()));
  for (const Trace& t : traces) AppendTraceRecord(out, t);
  PutU64(out, ingest_ns);
  return out;
}

StatusOr<BatchMsg> DecodeBatch(const std::string& payload) {
  Reader r(payload);
  BatchMsg m;
  uint32_t count = 0;
  if (!r.GetU32(m.stream) || !r.GetU32(count)) return Malformed("BATCH");
  // Each record is at least 54 bytes (empty sets) and the ingest stamp
  // follows; reject counts the payload can't hold before reserving.
  if (static_cast<uint64_t>(count) * 54 + 8 > r.remaining()) {
    return Status::InvalidArgument("BATCH trace count exceeds payload");
  }
  m.traces.reserve(count);
  size_t pos = r.pos();
  for (uint32_t i = 0; i < count; ++i) {
    Trace t;
    Status s = DecodeTraceRecord(payload, pos, t);
    if (!s.ok()) return s;
    m.traces.push_back(std::move(t));
  }
  Reader stamp(payload, pos);
  if (!stamp.GetU64(m.ingest_ns) || !stamp.Done()) {
    return Status::InvalidArgument("BATCH must end in the 8-byte ingest stamp");
  }
  return m;
}

std::string EncodeBatchAck(const BatchAckMsg& m) {
  std::string out;
  PutU64(out, m.traces_received);
  return out;
}

StatusOr<BatchAckMsg> DecodeBatchAck(const std::string& payload) {
  Reader r(payload);
  BatchAckMsg m;
  if (!r.GetU64(m.traces_received) || !r.Done()) {
    return Malformed("BATCH_ACK");
  }
  return m;
}

std::string EncodeCloseStream(const CloseStreamMsg& m) {
  std::string out;
  PutU32(out, m.stream);
  return out;
}

StatusOr<CloseStreamMsg> DecodeCloseStream(const std::string& payload) {
  Reader r(payload);
  CloseStreamMsg m;
  if (!r.GetU32(m.stream) || !r.Done()) return Malformed("CLOSE_STREAM");
  return m;
}

std::string EncodeViolation(const BugDescriptor& bug) {
  std::string out;
  PutU8(out, static_cast<uint8_t>(bug.type));
  PutU64(out, bug.key);
  PutU32(out, static_cast<uint32_t>(bug.txns.size()));
  for (TxnId id : bug.txns) PutU64(out, id);
  PutU32(out, static_cast<uint32_t>(bug.detail.size()));
  out.append(bug.detail);
  // Structured witness: anchor ts, ops, edges.
  PutU64(out, bug.ts);
  PutU32(out, static_cast<uint32_t>(bug.ops.size()));
  for (const BugOp& op : bug.ops) {
    PutU64(out, op.txn);
    PutU32(out, static_cast<uint32_t>(op.role.size()));
    out.append(op.role);
    PutU64(out, op.key);
    PutU64(out, op.value);
    PutU64(out, op.interval.bef);
    PutU64(out, op.interval.aft);
    PutU8(out, static_cast<uint8_t>((op.committed ? 1 : 0) |
                                    (op.has_value ? 2 : 0)));
  }
  PutU32(out, static_cast<uint32_t>(bug.edges.size()));
  for (const BugEdge& e : bug.edges) {
    PutU64(out, e.from);
    PutU64(out, e.to);
    PutU8(out, static_cast<uint8_t>(e.type));
  }
  return out;
}

StatusOr<ViolationMsg> DecodeViolation(const std::string& payload) {
  Reader r(payload);
  ViolationMsg m;
  uint8_t type = 0;
  uint32_t n = 0;
  if (!r.GetU8(type) || !r.GetU64(m.bug.key) || !r.GetU32(n)) {
    return Malformed("VIOLATION");
  }
  if (type > static_cast<uint8_t>(BugType::kScViolation)) {
    return Status::InvalidArgument("invalid VIOLATION bug type");
  }
  m.bug.type = static_cast<BugType>(type);
  if (static_cast<uint64_t>(n) * 8 > r.remaining()) {
    return Status::InvalidArgument("VIOLATION txn count exceeds payload");
  }
  m.bug.txns.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    TxnId id = 0;
    if (!r.GetU64(id)) return Malformed("VIOLATION");
    m.bug.txns.push_back(id);
  }
  uint32_t detail_len = 0;
  if (!r.GetU32(detail_len) || !r.GetString(m.bug.detail, detail_len)) {
    return Malformed("VIOLATION");
  }
  uint32_t n_ops = 0;
  if (!r.GetU64(m.bug.ts) || !r.GetU32(n_ops)) return Malformed("VIOLATION");
  // Each op is at least 45 bytes (empty role).
  if (static_cast<uint64_t>(n_ops) * 45 > r.remaining()) {
    return Status::InvalidArgument("VIOLATION op count exceeds payload");
  }
  m.bug.ops.reserve(n_ops);
  for (uint32_t i = 0; i < n_ops; ++i) {
    BugOp op;
    uint32_t role_len = 0;
    uint8_t flags = 0;
    if (!r.GetU64(op.txn) || !r.GetU32(role_len) ||
        !r.GetString(op.role, role_len) || !r.GetU64(op.key) ||
        !r.GetU64(op.value) || !r.GetU64(op.interval.bef) ||
        !r.GetU64(op.interval.aft) || !r.GetU8(flags)) {
      return Malformed("VIOLATION");
    }
    op.committed = (flags & 1) != 0;
    op.has_value = (flags & 2) != 0;
    m.bug.ops.push_back(std::move(op));
  }
  uint32_t n_edges = 0;
  if (!r.GetU32(n_edges)) return Malformed("VIOLATION");
  if (static_cast<uint64_t>(n_edges) * 17 > r.remaining()) {
    return Status::InvalidArgument("VIOLATION edge count exceeds payload");
  }
  m.bug.edges.reserve(n_edges);
  for (uint32_t i = 0; i < n_edges; ++i) {
    BugEdge e;
    uint8_t dep = 0;
    if (!r.GetU64(e.from) || !r.GetU64(e.to) || !r.GetU8(dep)) {
      return Malformed("VIOLATION");
    }
    if (dep > static_cast<uint8_t>(DepType::kRw)) {
      return Status::InvalidArgument("invalid VIOLATION edge type");
    }
    e.type = static_cast<DepType>(dep);
    m.bug.edges.push_back(e);
  }
  if (!r.Done()) return Malformed("VIOLATION");
  return m;
}

std::string EncodeBye(const ByeMsg& m) {
  std::string out;
  PutU64(out, m.traces_verified);
  PutU32(out, m.violations_sent);
  return out;
}

StatusOr<ByeMsg> DecodeBye(const std::string& payload) {
  Reader r(payload);
  ByeMsg m;
  if (!r.GetU64(m.traces_verified) || !r.GetU32(m.violations_sent) ||
      !r.Done()) {
    return Malformed("BYE");
  }
  return m;
}

std::string EncodeError(std::string_view message) {
  std::string out;
  PutU32(out, static_cast<uint32_t>(message.size()));
  out.append(message);
  return out;
}

StatusOr<std::string> DecodeError(const std::string& payload) {
  Reader r(payload);
  uint32_t len = 0;
  std::string msg;
  if (!r.GetU32(len) || !r.GetString(msg, len) || !r.Done()) {
    return Malformed("ERROR");
  }
  return msg;
}

}  // namespace net
}  // namespace leopard
