#ifndef LEOPARD_NET_CLIENT_H_
#define LEOPARD_NET_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "trace/trace.h"
#include "verifier/bug.h"

namespace leopard {
namespace net {

/// Client side of the wire protocol (wire.h): connects to a VerifierServer,
/// multiplexes one or more logical client streams over the connection, and
/// collects violation reports the server streams back.
///
/// Usage:
///     auto client = VerifierClient::Connect("127.0.0.1:7411", opts);
///     client->Push(stream, trace);   // buffered, auto-flushed per batch
///     ...
///     auto bye = client->Finish();   // closes streams, drains the report
///     for (const BugDescriptor& bug : client->violations()) ...
///
/// Not thread-safe: one thread drives a VerifierClient. Multi-stream
/// pushing from a single thread is the supported way to replay several
/// per-client trace files over one connection — interleave pushes in
/// global ts_bef order so the server-side merge never stalls on an idle
/// stream's watermark.
///
/// Deadlock note: after every batch the client opportunistically drains
/// whatever the server sent (acks, violations) without blocking, so the
/// server's write side never fills up while both ends are sending.
class VerifierClient {
 public:
  struct Options {
    /// Logical client streams multiplexed over this connection.
    uint32_t n_streams = 1;
    /// Auto-flush threshold: a stream's buffered traces are sent once this
    /// many accumulate. Flush()/CloseStream() send regardless.
    size_t batch_traces = 256;
    /// Timeout for blocking waits (HELLO_ACK, the BYE drain in Finish()).
    uint64_t recv_timeout_ms = 30000;
    /// Optional instrumentation: net.client.* counters.
    obs::MetricsRegistry* metrics = nullptr;
    /// Declared isolation level per stream, indexed by stream id (must not
    /// be longer than n_streams; missing entries default to SERIALIZABLE).
    std::vector<IsolationLevel> stream_ils;
    /// Session resume. `resumable` asks the server to park this session's
    /// per-stream floors if the connection drops before all streams closed
    /// cleanly, so a later connection can resume them. `resume` +
    /// `resume_base` re-attach to such a parked session: on success the
    /// server assigns the same base client id (check resumed()); when
    /// nothing is parked under resume_base it falls back to a fresh
    /// allocation.
    bool resumable = false;
    bool resume = false;
    uint32_t resume_base = 0;
  };

  /// Connects and performs the handshake. `host_port` is "host:port";
  /// an empty host means 127.0.0.1.
  static StatusOr<std::unique_ptr<VerifierClient>> Connect(
      const std::string& host_port, const Options& options);

  ~VerifierClient();
  VerifierClient(const VerifierClient&) = delete;
  VerifierClient& operator=(const VerifierClient&) = delete;

  /// Buffers one trace for `stream`; sends a kBatch once the buffer reaches
  /// batch_traces. ts_bef must be non-decreasing per stream.
  Status Push(uint32_t stream, Trace trace);

  /// Sends `stream`'s buffered traces now (no-op when empty).
  Status Flush(uint32_t stream);

  /// Flushes and closes one stream. Idempotent.
  Status CloseStream(uint32_t stream);

  /// Closes any remaining streams and blocks until the server's kBye (the
  /// server sends it only after the verification run drained, so every
  /// violation involving this session has arrived by then).
  StatusOr<ByeMsg> Finish();

  /// Violations the server attributed to this session, in arrival order.
  const std::vector<BugDescriptor>& violations() const { return violations_; }

  /// Traces the server has acknowledged (from the latest kBatchAck).
  uint64_t acked_traces() const { return acked_traces_; }

  /// Blocks until the server has acknowledged at least `min_acked` traces
  /// from this session (consuming violations on the way). A client that
  /// intends to drop the connection and resume later calls this first, so
  /// no sent-but-unacked batch can be lost to an abrupt close.
  Status WaitForAcked(uint64_t min_acked);

  /// True when Connect() re-attached to the parked session requested via
  /// Options::resume — the session kept its old base client id and
  /// resume_floors() holds the per-stream push floors.
  bool resumed() const { return resumed_; }

  /// Per-stream re-admission floors of a resumed session (empty otherwise):
  /// stream s may only push traces with ts_bef >= resume_floors()[s].
  const std::vector<Timestamp>& resume_floors() const { return resume_floors_; }

  /// First verifier client id of this session (stream s = base + s).
  uint32_t base_client() const { return base_client_; }

  /// The server's kError message, when the session died on one.
  const std::string& server_error() const { return server_error_; }

 private:
  VerifierClient(Socket sock, const Options& options);

  Status SendBatch(uint32_t stream);
  /// Processes one received frame (ack / violation / error / bye).
  Status Consume(Frame frame);
  /// Drains everything already queued by the kernel, without blocking.
  Status DrainNonblocking();
  /// Blocks until `want` arrives (consuming everything else on the way).
  Status WaitFor(FrameType want, Frame& out);

  Socket sock_;
  Options opts_;
  FrameDecoder decoder_;
  uint32_t base_client_ = 0;
  std::vector<std::vector<Trace>> pending_;    // per stream
  std::vector<uint8_t> stream_closed_;
  std::vector<BugDescriptor> violations_;
  uint64_t acked_traces_ = 0;
  bool resumed_ = false;
  std::vector<Timestamp> resume_floors_;
  bool got_bye_ = false;
  ByeMsg bye_;
  std::string server_error_;
  bool dead_ = false;  // connection unusable (error seen or peer gone)

  obs::Counter* m_batches_out_ = nullptr;
  obs::Counter* m_traces_out_ = nullptr;
  obs::Counter* m_bytes_out_ = nullptr;
  obs::Counter* m_violations_in_ = nullptr;
};

}  // namespace net
}  // namespace leopard

#endif  // LEOPARD_NET_CLIENT_H_
