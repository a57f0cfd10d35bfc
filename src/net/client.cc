#include "net/client.h"

#include <utility>

#include "obs/metrics.h"

namespace leopard {
namespace net {

namespace {
constexpr size_t kRecvChunk = 64 * 1024;
}  // namespace

StatusOr<std::unique_ptr<VerifierClient>> VerifierClient::Connect(
    const std::string& host_port, const Options& options) {
  if (options.n_streams == 0) {
    return Status::InvalidArgument("n_streams must be >= 1");
  }
  std::string host;
  uint16_t port = 0;
  if (!ParseHostPort(host_port, host, port)) {
    return Status::InvalidArgument("bad host:port spec '" + host_port + "'");
  }
  auto sock = TcpConnect(host, port);
  if (!sock.ok()) return sock.status();
  std::unique_ptr<VerifierClient> client(
      new VerifierClient(std::move(*sock), options));

  if (options.stream_ils.size() > options.n_streams) {
    return Status::InvalidArgument("stream_ils longer than n_streams");
  }
  HelloMsg hello;
  hello.n_streams = options.n_streams;
  hello.stream_ils = options.stream_ils;
  hello.resumable = options.resumable;
  hello.has_resume = options.resume;
  hello.resume_base = options.resume ? options.resume_base : 0;
  const std::string frame = EncodeFrame(FrameType::kHello, EncodeHello(hello));
  Status s = client->sock_.SendAll(frame.data(), frame.size());
  if (!s.ok()) return s;
  Frame ack;
  s = client->WaitFor(FrameType::kHelloAck, ack);
  if (!s.ok()) return s;
  // DecodeHelloAck refuses an ack of any other wire version.
  auto msg = DecodeHelloAck(ack.payload);
  if (!msg.ok()) return msg.status();
  client->base_client_ = msg->base_client;
  // A successful resume keeps the requested base id and reports per-stream
  // floors; a fallback allocation gets a fresh (different) base.
  client->resumed_ = options.resume && msg->base_client == options.resume_base;
  client->resume_floors_ = std::move(msg->resume_floors);
  return client;
}

VerifierClient::VerifierClient(Socket sock, const Options& options)
    : sock_(std::move(sock)),
      opts_(options),
      pending_(options.n_streams),
      stream_closed_(options.n_streams, 0) {
  sock_.SetRecvTimeoutMs(opts_.recv_timeout_ms);
  if (opts_.metrics != nullptr) {
    m_batches_out_ = opts_.metrics->counter("net.client.batches_out");
    m_traces_out_ = opts_.metrics->counter("net.client.traces_out");
    m_bytes_out_ = opts_.metrics->counter("net.client.bytes_out");
    m_violations_in_ = opts_.metrics->counter("net.client.violations_received");
  }
}

VerifierClient::~VerifierClient() { sock_.Close(); }

Status VerifierClient::Push(uint32_t stream, Trace trace) {
  if (stream >= pending_.size()) {
    return Status::InvalidArgument("no such stream");
  }
  if (stream_closed_[stream]) {
    return Status::FailedPrecondition("push on closed stream");
  }
  if (dead_) {
    return Status::FailedPrecondition("session dead: " + server_error_);
  }
  pending_[stream].push_back(std::move(trace));
  if (pending_[stream].size() >= opts_.batch_traces) {
    return SendBatch(stream);
  }
  return Status::Ok();
}

Status VerifierClient::Flush(uint32_t stream) {
  if (stream >= pending_.size()) {
    return Status::InvalidArgument("no such stream");
  }
  if (pending_[stream].empty()) return Status::Ok();
  return SendBatch(stream);
}

Status VerifierClient::SendBatch(uint32_t stream) {
  if (dead_) {
    return Status::FailedPrecondition("session dead: " + server_error_);
  }
  // Stamp the batch with the push-time steady clock so the server can
  // attribute wire + queueing latency to the ingest stage.
  std::string frame = EncodeFrame(
      FrameType::kBatch, EncodeBatch(stream, pending_[stream], obs::NowNs()));
  const size_t n = pending_[stream].size();
  pending_[stream].clear();
  Status s = sock_.SendAll(frame.data(), frame.size());
  if (!s.ok()) {
    dead_ = true;
    return s;
  }
  if (m_batches_out_ != nullptr) m_batches_out_->Inc();
  if (m_traces_out_ != nullptr) m_traces_out_->Inc(n);
  if (m_bytes_out_ != nullptr) m_bytes_out_->Inc(frame.size());
  // Keep the pipe two-way: pick up acks and violations the server already
  // sent so neither side ever blocks on a full send buffer.
  return DrainNonblocking();
}

Status VerifierClient::CloseStream(uint32_t stream) {
  if (stream >= pending_.size()) {
    return Status::InvalidArgument("no such stream");
  }
  if (stream_closed_[stream]) return Status::Ok();
  Status s = Flush(stream);
  if (!s.ok()) return s;
  stream_closed_[stream] = 1;
  std::string frame = EncodeFrame(FrameType::kCloseStream,
                                  EncodeCloseStream(CloseStreamMsg{stream}));
  s = sock_.SendAll(frame.data(), frame.size());
  if (!s.ok()) dead_ = true;
  return s;
}

StatusOr<ByeMsg> VerifierClient::Finish() {
  for (uint32_t i = 0; i < pending_.size(); ++i) {
    Status s = CloseStream(i);
    if (!s.ok()) return s;
  }
  Frame bye;
  Status s = WaitFor(FrameType::kBye, bye);
  if (!s.ok()) return s;
  return bye_;
}

Status VerifierClient::WaitForAcked(uint64_t min_acked) {
  while (acked_traces_ < min_acked) {
    if (dead_) {
      return Status::FailedPrecondition("session dead: " + server_error_);
    }
    Frame frame;
    Status s = WaitFor(FrameType::kBatchAck, frame);
    if (!s.ok()) return s;
    s = Consume(std::move(frame));
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

Status VerifierClient::Consume(Frame frame) {
  switch (frame.type) {
    case FrameType::kBatchAck: {
      auto msg = DecodeBatchAck(frame.payload);
      if (!msg.ok()) return msg.status();
      acked_traces_ = msg->traces_received;
      return Status::Ok();
    }
    case FrameType::kViolation: {
      auto msg = DecodeViolation(frame.payload);
      if (!msg.ok()) return msg.status();
      violations_.push_back(std::move(msg->bug));
      if (m_violations_in_ != nullptr) m_violations_in_->Inc();
      return Status::Ok();
    }
    case FrameType::kBye: {
      auto msg = DecodeBye(frame.payload);
      if (!msg.ok()) return msg.status();
      bye_ = *msg;
      got_bye_ = true;
      return Status::Ok();
    }
    case FrameType::kError: {
      auto msg = DecodeError(frame.payload);
      server_error_ = msg.ok() ? *msg : "unreadable server error";
      dead_ = true;
      return Status::Internal("server error: " + server_error_);
    }
    default:
      dead_ = true;
      return Status::InvalidArgument(std::string("unexpected frame ") +
                                     FrameTypeName(frame.type));
  }
}

Status VerifierClient::DrainNonblocking() {
  char buf[kRecvChunk];
  while (true) {
    Frame frame;
    Status s = decoder_.Poll(frame);
    if (s.ok()) {
      s = Consume(std::move(frame));
      if (!s.ok()) return s;
      continue;
    }
    if (s.code() != StatusCode::kBusy) {
      dead_ = true;
      return s;  // poisoned decoder
    }
    auto got = sock_.RecvNonblocking(buf, sizeof(buf));
    if (!got.ok()) {
      if (got.status().code() == StatusCode::kBusy) return Status::Ok();
      dead_ = true;
      return got.status();
    }
    if (*got == 0) {
      dead_ = true;
      return Status::Ok();  // EOF: a pending error/bye was already consumed
    }
    decoder_.Feed(buf, *got);
  }
}

Status VerifierClient::WaitFor(FrameType want, Frame& out) {
  char buf[kRecvChunk];
  while (true) {
    Frame frame;
    Status s = decoder_.Poll(frame);
    if (s.ok()) {
      if (frame.type == want) {
        // kBye must still be recorded (Finish returns bye_).
        if (want == FrameType::kBye) {
          Status cs = Consume(frame);
          if (!cs.ok()) return cs;
        }
        out = std::move(frame);
        return Status::Ok();
      }
      s = Consume(std::move(frame));
      if (!s.ok()) return s;
      continue;
    }
    if (s.code() != StatusCode::kBusy) {
      dead_ = true;
      return s;
    }
    auto got = sock_.Recv(buf, sizeof(buf));
    if (!got.ok()) {
      if (got.status().code() == StatusCode::kBusy) {
        dead_ = true;
        return Status::Busy("timed out waiting for " +
                            std::string(FrameTypeName(want)));
      }
      dead_ = true;
      return got.status();
    }
    if (*got == 0) {
      dead_ = true;
      return Status::Internal("connection closed waiting for " +
                              std::string(FrameTypeName(want)));
    }
    decoder_.Feed(buf, *got);
  }
}

}  // namespace net
}  // namespace leopard
