#ifndef LEOPARD_NET_SERVER_H_
#define LEOPARD_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "diagnose/witness.h"
#include "durable/checkpoint.h"
#include "durable/wal.h"
#include "harness/online_verifier.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/registry.h"
#include "obs/watchdog.h"

namespace leopard {

namespace obs {
class EventJournal;
}  // namespace obs

namespace net {

/// TCP ingestion front-end for online verification: accepts N concurrent
/// client connections speaking the wire protocol (wire.h), decodes their
/// trace batches and pushes them into one OnlineVerifier, so key-sharded
/// parallel verification (--shards=N) works unchanged behind the network
/// boundary. Violations stream back to the session(s) whose transactions
/// are involved.
///
/// Threading: one accept thread plus one reader thread per connection.
/// Each blocks on its own event — accept(2), recv(2) bounded only by the
/// idle timeout, verifier progress under backpressure — and a drain wakes
/// them directly (Listener::Wake, Socket::ShutdownBoth,
/// OnlineVerifier::NotifyProgressWaiters) instead of waiting out a tick.
/// Sessions register their streams dynamically (OnlineVerifier::AddClient);
/// a "gate" stream held open by the server keeps the pipeline watermark at
/// zero until all `expected_sessions` have completed their handshake, so
/// concurrently-connecting replay clients with overlapping virtual
/// timestamps merge correctly. With expected_sessions == 0 the gate drops
/// immediately and late joiners are admitted at the current dispatch floor
/// (the realtime-clock deployment), which the server enforces per stream.
///
/// Backpressure: a session whose decoded-but-unverified bytes exceed
/// max_inflight_bytes stalls its reader thread (so TCP flow control blocks
/// the producer at the socket) instead of buffering without bound — but
/// only while the verifier is making progress; when dispatch is starved
/// on *another* stream's watermark the frame is admitted anyway, trading
/// bounded overshoot for liveness (net.backpressure_overrides counts it).
class VerifierServer {
 public:
  struct Options {
    /// TCP port to listen on; 0 = kernel-assigned (read back via port()).
    uint16_t port = 0;
    /// Verification shards, forwarded to OnlineVerifier/ShardedLeopard.
    uint32_t n_shards = 1;
    /// Sessions to serve before draining and reporting. 0 = keep serving
    /// until Shutdown() is called.
    uint32_t expected_sessions = 0;
    /// Hard cap on concurrently-registered client streams across all
    /// sessions (a handshake requesting more is rejected).
    uint32_t max_streams = 256;
    /// Close a session that still owes stream data and sends nothing for
    /// this long (0 = never). It is the reader's receive timeout.
    uint64_t idle_timeout_ms = 30000;
    /// Backpressure threshold on decoded-but-unverified trace bytes.
    size_t max_inflight_bytes = 64u << 20;
    /// Give up on a backpressure stall with no verifier progress after this
    /// long and admit the frame (watermark starvation, see class comment).
    uint64_t stall_override_ms = 500;
    /// Per-frame payload limit handed to the decoder.
    size_t max_frame_bytes = kMaxFramePayload;
    /// Optional instrumentation: net.* counters/gauges/histograms (see
    /// docs/OBSERVABILITY.md) plus everything OnlineVerifier exports.
    obs::MetricsRegistry* metrics = nullptr;
    uint64_t progress_interval_ms = 0;
    bool print_progress = false;
    /// Optional state-transition journal (session open/close, backpressure
    /// engage/release, violations, diagnosis lifecycle) shared with the
    /// verification engine.
    obs::EventJournal* events = nullptr;
    /// Optional heartbeat watchdog: reader threads register as
    /// "net.session<id>.reader", the diagnosis worker as "diagnose.worker",
    /// the engine threads via OnlineVerifier/ShardedLeopard.
    obs::Watchdog* watchdog = nullptr;
    /// Record every received trace and, when a violation surfaces, run the
    /// delta-debugging minimizer (src/diagnose) on a background worker —
    /// never on a reader or the dispatcher thread. Results via diagnoses().
    bool diagnose = false;
    /// When diagnosing, also write repro artifacts (diagnosis.json,
    /// conflict.dot, minimized trace) under `<dir>/diag_<n>`. Empty = keep
    /// the Diagnosis records in memory only.
    std::string diagnose_out_dir;
    /// Verifier re-runs the minimizer may spend per diagnosis.
    uint64_t diagnose_max_oracle_runs = 512;
    /// Distinct (bug type, key) diagnoses to run before ignoring further
    /// violations (bounds worker time on pathological histories).
    uint32_t max_diagnoses = 4;
    /// Durable state directory (src/durable). Non-empty enables the
    /// write-ahead trace log + periodic checkpoints: every accepted batch
    /// is logged before it reaches the verifier, and on restart the server
    /// loads the newest checkpoint, replays the log past its cut and
    /// resumes with identical verdicts. Empty = in-memory only (a crash
    /// loses the run), exactly the pre-durability behavior.
    std::string state_dir;
    /// Checkpoint cadence; 0 disables the periodic checkpointer (WAL-only
    /// durability — recovery then replays the whole log).
    uint64_t checkpoint_interval_ms = 10000;
    /// Also checkpoint after this many newly accepted traces (0 = only the
    /// timer). Whichever fires first wins; the other resets.
    uint64_t checkpoint_every_traces = 0;
    /// WAL segment size before seal + rotate.
    size_t wal_segment_bytes = 64u << 20;
  };

  VerifierServer(const VerifierConfig& config, const Options& options);
  ~VerifierServer();
  VerifierServer(const VerifierServer&) = delete;
  VerifierServer& operator=(const VerifierServer&) = delete;

  /// Binds the listener and starts accepting. Call once.
  Status Start();

  /// Port actually bound (valid after Start()).
  uint16_t port() const { return port_; }

  /// Blocks until `expected_sessions` sessions have ended (or Shutdown()
  /// was called), drains the verifier, streams the remaining violations
  /// and BYEs to connected sessions, and returns the aggregated report.
  /// Idempotent.
  const VerifyReport& WaitReport();

  /// Stops accepting and unblocks WaitReport() even before
  /// expected_sessions completed. Safe from any thread (including a signal
  /// watchdog). Streams still open are force-closed at their current point.
  void Shutdown();

  /// Traces accepted from the network so far.
  uint64_t traces_received() const {
    return traces_received_.load(std::memory_order_relaxed);
  }
  /// Sessions that finished (cleanly or by disconnect).
  uint32_t sessions_completed() const {
    return sessions_completed_.load(std::memory_order_relaxed);
  }

  /// Diagnoses produced by the background minimizer (Options::diagnose).
  /// Stable only after WaitReport() returned — the worker is joined there.
  const std::vector<diagnose::Diagnosis>& diagnoses() const {
    return diagnoses_;
  }

  /// Point-in-time operational snapshot for /statusz. Thread-safe; cheap
  /// enough to call per scrape.
  struct StatusSnapshot {
    uint32_t sessions_active = 0;      // accepted, not yet finished
    uint32_t sessions_handshaken = 0;  // completed the HELLO exchange
    uint32_t sessions_completed = 0;
    uint64_t traces_received = 0;
    uint64_t inflight_bytes = 0;  // decoded but not yet verified
    uint32_t diagnoses_queued = 0;
    uint32_t diagnoses_done = 0;
    bool draining = false;
    /// Per-session declared isolation levels (v4 HELLO tail): one entry per
    /// live handshaken session, session id -> per-stream level list.
    /// Sessions that never declared levels report all-SERIALIZABLE.
    std::vector<std::pair<uint32_t, std::vector<IsolationLevel>>> session_ils;
    // Durability (all zero without Options::state_dir).
    bool durable = false;
    uint64_t checkpoints_written = 0;
    uint64_t checkpoint_age_ms = 0;  // since the last checkpoint; 0 = never
    uint64_t wal_segments = 0;
    uint64_t wal_next_seq = 0;
  };
  StatusSnapshot GetStatus() const;

  /// Takes a checkpoint now (durable mode only): rotates the WAL so the cut
  /// lands on a segment boundary, serializes the full verifier state at a
  /// quiescent point and garbage-collects fully-covered WAL segments.
  /// Also what the periodic checkpointer calls. Safe from any thread.
  Status TriggerCheckpoint();

  /// Recovery outcome of Start() (durable mode; zeros on a fresh dir).
  struct RecoveryInfo {
    bool resumed = false;           // a checkpoint or WAL entries were found
    uint64_t checkpoint_cut = 0;    // 0 = no checkpoint, full-log replay
    uint64_t entries_replayed = 0;  // WAL entries applied past the cut
    uint64_t entries_skipped = 0;   // WAL entries already in the checkpoint
    uint64_t torn_bytes = 0;        // truncated torn tail, if any
  };
  const RecoveryInfo& recovery() const { return recovery_; }

 private:
  struct Session {
    uint32_t id = 0;
    Socket sock;
    std::thread reader;
    std::mutex write_mu;          // serializes acks/violations/bye/error
    uint32_t n_streams = 0;       // 0 until the handshake succeeded
    uint32_t base_client = 0;     // first OnlineVerifier client id
    /// Negotiated wire version: min(client, server). Selects the violation
    /// payload layout this session receives.
    uint32_t version = kWireVersion;
    /// Declared isolation level per stream (v4 HELLO tail), one entry per
    /// stream once the handshake succeeded; SERIALIZABLE when undeclared.
    /// Applied weakest-wins against each record's own tag in HandleBatch.
    /// Written once under mu_ during the handshake, read under mu_ after.
    std::vector<IsolationLevel> stream_ils;
    std::vector<Timestamp> floor;          // admission floor per stream
    std::vector<Timestamp> last_ts;        // per-stream order enforcement
    std::vector<uint8_t> stream_closed;    // reader thread only
    std::atomic<uint64_t> traces_received{0};
    std::atomic<uint64_t> last_frame_ns{0};
    std::atomic<uint32_t> violations_sent{0};
    /// v5: the client declared the session resumable — an abrupt disconnect
    /// parks its stream state (see parked_) instead of retiring the ids.
    bool resumable = false;
    /// Session counted towards sessions_completed (exactly once).
    std::atomic<bool> counted_complete{false};
    /// Write side dead (error sent or peer gone); skip further sends.
    std::atomic<bool> defunct{false};
    /// Reader thread's heartbeat slot (nullptr without Options::watchdog).
    obs::Watchdog::Slot* wd_slot = nullptr;
  };

  void AcceptLoop();
  void ReaderLoop(Session& session);
  /// Dispatches one decoded frame; returns false to end the session.
  bool HandleFrame(Session& session, Frame frame);
  bool HandleHello(Session& session, const Frame& frame);
  bool HandleBatch(Session& session, const Frame& frame);
  /// Sends kError and marks the session defunct.
  void FailSession(Session& session, const std::string& message);
  /// Closes every still-open stream of the session and, if it completed
  /// the handshake, counts the session as finished.
  void FinishSession(Session& session);
  /// Counts the session as finished (once) and wakes WaitReport.
  void CountCompleted(Session& session);
  void SendToSession(Session& session, const std::string& frame);
  /// Routes one bug to the sessions owning its transactions (dispatcher
  /// thread, via OnlineVerifier's on_bug).
  void OnBug(const BugDescriptor& bug);
  /// Blocks while the in-flight byte budget is exhausted, waking on
  /// verifier progress; see class comment for the starvation escape.
  /// Suspends the session's watchdog slot while stalled (a stalled reader
  /// is flow control, not a wedge).
  void Backpressure(Session& session, size_t incoming_bytes);
  /// Background diagnosis worker: pops queued violations and delta-debugs
  /// the recorded history (Options::diagnose).
  void DiagnoseLoop();
  /// Joins the diagnosis worker after draining its queue.
  void StopDiagnoseWorker();
  /// Durable mode (Options::state_dir). RecoverState rebuilds the verifier
  /// from the newest loadable checkpoint + WAL replay and opens the log for
  /// appending; called from Start() before any session is accepted.
  Status RecoverState(const OnlineVerifier::Options& vo);
  /// Appends a client registration to the WAL (no-op when not durable).
  /// Takes durable_mu_ — never call with mu_ held.
  void WalAddClient(ClientId client);
  /// The checkpoint implementation behind TriggerCheckpoint().
  Status DoCheckpoint();
  /// Periodic checkpointer thread (durable mode with a nonzero interval).
  void CheckpointLoop();
  void StopCheckpointWorker();

  VerifierConfig config_;
  Options opts_;
  obs::MetricsRegistry* metrics_;  // not owned; may be nullptr

  Listener listener_;  // Wake()/Close() under mu_ once threads run
  uint16_t port_ = 0;
  std::unique_ptr<OnlineVerifier> online_;
  ClientId gate_client_ = 0;

  mutable std::mutex mu_;  // sessions_, routing maps, allocation, lifecycle
  std::condition_variable drain_cv_;
  std::vector<std::unique_ptr<Session>> sessions_;
  /// Violation routing, split so it survives a restart: txn -> verifier
  /// client id is durable (checkpointed and rebuilt by WAL replay), while
  /// client id -> live session is ephemeral and rebuilt per handshake. A
  /// restored txn whose session died with the old process simply has no
  /// client_session_ entry (counted net.violations_unroutable).
  std::unordered_map<TxnId, ClientId> txn_client_;
  std::unordered_map<ClientId, Session*> client_session_;
  /// Stream state parked by an abrupt disconnect of a *resumable* session
  /// (v5), keyed by base client id. A later HELLO with has_resume re-admits
  /// the same verifier client ids at floors that preserve Theorem 1
  /// (OnlineVerifier::ReopenClient). In-process only: durable recovery
  /// closes all restored clients, so a restart empties this map and resume
  /// attempts fall back to fresh allocation. Guarded by mu_.
  struct ParkedSession {
    uint32_t n_streams = 0;
    std::vector<IsolationLevel> stream_ils;
    std::vector<Timestamp> last_ts;
    std::vector<uint8_t> stream_closed;
  };
  std::unordered_map<uint32_t, ParkedSession> parked_;
  uint32_t next_stream_slot_ = 0;  // streams allocated (excluding the gate)
  uint32_t sessions_handshaken_ = 0;
  bool gate_closed_ = false;
  bool drained_ = false;
  /// True while one WaitReport() caller runs the teardown sequence. Further
  /// callers (the drain-thread idiom has at least two) park on drain_cv_
  /// until drained_ — the teardown joins threads and must run exactly once.
  bool draining_ = false;
  std::atomic<bool> stopping_{false};  // set by Shutdown(), any thread
  std::atomic<uint64_t> traces_received_{0};
  std::atomic<uint64_t> pushed_bytes_{0};
  std::atomic<uint32_t> sessions_completed_{0};
  std::thread accept_thread_;
  VerifyReport report_;

  // Durability (Options::state_dir). durable_mu_ orders WAL appends against
  // checkpoint cuts: HandleBatch holds it across {append, sync, push}, the
  // checkpointer across {rotate, read cut, serialize}. Lock order is
  // durable_mu_ -> mu_; no path may take durable_mu_ while holding mu_.
  bool durable_ = false;  // set once in Start(), before any thread
  mutable std::mutex durable_mu_;
  durable::WalWriter wal_;             // guarded by durable_mu_
  durable::CheckpointStore ckpts_;     // written under durable_mu_
  RecoveryInfo recovery_;              // written once in Start()
  uint64_t last_ckpt_cut_ = 0;         // guarded by durable_mu_
  std::atomic<uint64_t> last_ckpt_ns_{0};
  std::atomic<uint64_t> checkpoints_written_{0};
  std::atomic<uint64_t> wal_segments_{0};  // mirror for /statusz
  std::atomic<uint64_t> wal_next_seq_{0};  // mirror for /statusz
  std::atomic<uint64_t> traces_at_last_ckpt_{0};
  std::mutex ckpt_thread_mu_;
  std::condition_variable ckpt_thread_cv_;
  bool ckpt_stop_ = false;  // guarded by ckpt_thread_mu_
  std::thread ckpt_thread_;

  // Background diagnosis (Options::diagnose).
  mutable std::mutex diag_mu_;  // recorded_, diag_queue_, diagnoses_, diag_stop_
  std::condition_variable diag_cv_;
  std::vector<Trace> recorded_;               // every accepted trace
  std::deque<BugDescriptor> diag_queue_;      // violations awaiting a worker
  std::vector<diagnose::Diagnosis> diagnoses_;
  uint32_t diagnoses_enqueued_ = 0;
  bool diag_stop_ = false;
  std::thread diag_thread_;

  // Cached metric handles (nullptr when metrics_ == nullptr).
  obs::Counter* m_connections_ = nullptr;
  obs::Counter* m_sessions_done_ = nullptr;
  obs::Counter* m_disconnects_ = nullptr;
  obs::Counter* m_frames_in_ = nullptr;
  obs::Counter* m_bytes_in_ = nullptr;
  obs::Counter* m_traces_in_ = nullptr;
  obs::Counter* m_decode_errors_ = nullptr;
  obs::Counter* m_stalls_ = nullptr;
  obs::Counter* m_stall_ns_ = nullptr;
  obs::Counter* m_overrides_ = nullptr;
  obs::Counter* m_violations_sent_ = nullptr;
  obs::Counter* m_violations_unroutable_ = nullptr;
  obs::Counter* m_report_send_errors_ = nullptr;
  obs::Counter* m_clock_skew_ = nullptr;
  obs::Counter* m_wal_appends_ = nullptr;
  obs::Counter* m_wal_bytes_ = nullptr;
  obs::Counter* m_wal_errors_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;
  obs::Counter* m_checkpoint_errors_ = nullptr;
  obs::Gauge* m_wal_segments_g_ = nullptr;
  obs::Gauge* m_active_ = nullptr;
  obs::Gauge* m_inflight_ = nullptr;
  obs::Histogram* m_report_latency_ = nullptr;
  obs::Histogram* m_stage_ingest_ = nullptr;  // client stamp -> server read
  obs::Histogram* m_stage_report_ = nullptr;  // server read -> bug reported
  obs::Histogram* m_ckpt_ns_ = nullptr;       // checkpoint wall time
};

}  // namespace net
}  // namespace leopard

#endif  // LEOPARD_NET_SERVER_H_
